"""Ordered alphabets, the substitution tree, theta, and Farey word sequences."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .words import ABWord, UVWord


@dataclass(frozen=True)
class OrderedAlphabet:
    """A pair (alpha, beta) reachable from (a, b) by the pair operations
    (u,v) -> (uv,v) and (u,v) -> (u,uv), with the {U,V}-word witness that
    maps a to alpha and b to beta."""

    alpha: ABWord
    beta: ABWord
    witness: UVWord

    @property
    def depth(self):
        return len(self.witness)

    def concat(self):
        return self.alpha + self.beta

    def parent_split(self):
        """Return ('uvv', u, v) when (alpha,beta) = (uv, v), ('uuv', u, v)
        when (alpha,beta) = (u, uv), or None at the root."""
        a, b = self.alpha.letters, self.beta.letters
        if len(a) > len(b) and a.endswith(b):
            return "uvv", ABWord(a[: len(a) - len(b)]), self.beta
        if len(b) > len(a) and b.startswith(a):
            return "uuv", self.alpha, ABWord(b[len(a):])
        return None

    def __str__(self):
        return "(%s, %s)" % (self.alpha, self.beta)


ROOT = OrderedAlphabet(ABWord("a"), ABWord("b"), UVWord(""))


def children(node):
    """The two tree children; appending U gives (uv, v), appending V (u, uv)."""
    u, v, w = node.alpha, node.beta, node.witness
    return (OrderedAlphabet(u + v, v, w + "U"),
            OrderedAlphabet(u, u + v, w + "V"))


def enumerate_alphabets(n):
    """All ordered alphabets at depth <= n, breadth-first (2^k at depth k)."""
    if n < 0:
        raise DomainError("depth must be >= 0")
    out = [ROOT]
    level = [ROOT]
    for _ in range(n):
        nxt = []
        for node in level:
            nxt.extend(children(node))
        out.extend(nxt)
        level = nxt
    return out


def witness_for(alpha, beta):
    """Recover the {U,V}-witness of a pair, or None when it is not in the tree."""
    a, b = str(alpha), str(beta)
    ops = []
    while True:
        if (a, b) == ("a", "b"):
            return UVWord("".join(reversed(ops)))
        if len(a) > len(b) and a.endswith(b):
            a = a[: len(a) - len(b)]
            ops.append("U")
        elif len(b) > len(a) and b.startswith(a):
            b = b[len(a):]
            ops.append("V")
        else:
            return None


def is_ordered_alphabet(alpha, beta):
    return witness_for(alpha, beta) is not None


def alphabet_from_pair(alpha, beta):
    w = witness_for(alpha, beta)
    if w is None:
        raise DomainError("(%s, %s) is not an ordered alphabet" % (alpha, beta))
    return OrderedAlphabet(ABWord(str(alpha)), ABWord(str(beta)), w)


def theta(k):
    """Proportion of letters b in the word, as a reduced rational."""
    w = ABWord(str(k))
    if not w:
        raise DomainError("theta of the empty word")
    return Fraction(w.count("b"), len(w))


def mediant(x, y):
    """(p+r)/(q+s) for x = p/q < y = r/s."""
    x, y = Fraction(x), Fraction(y)
    if not x < y:
        raise DomainError("mediant needs x < y")
    return Fraction(x.numerator + y.numerator, x.denominator + y.denominator)


def theta_inverse(x):
    """The unique word in c(A) or {a, b} with theta = x, by Stern-Brocot descent.

    Each mediant step concatenates the flanking words, so the result carries
    its factorization as a product of an ordered alphabet.
    """
    x = Fraction(x)
    if x < 0 or x > 1:
        raise DomainError("theta_inverse needs x in [0,1]")
    if x == 0:
        return ABWord("a")
    if x == 1:
        return ABWord("b")
    lf, lw = Fraction(0), "a"
    rf, rw = Fraction(1), "b"
    while True:
        mf = mediant(lf, rf)
        mw = lw + rw
        if x == mf:
            return ABWord(mw)
        if x < mf:
            rf, rw = mf, mw
        else:
            lf, lw = mf, mw


def farey_fractions(n):
    """The Farey sequence F_n in increasing order."""
    if n < 1:
        raise DomainError("farey order must be >= 1")
    a, b, c, d = 0, 1, 1, n
    out = [Fraction(0)]
    while c <= n:
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
        out.append(Fraction(a, b))
    return out


def farey_words(n):
    """Words kappa_1..kappa_|F_n| with theta image F_n, in increasing theta order.

    The endpoints a and b (theta 0 and 1) are included; interior words are
    exactly the concatenations of ordered alphabets with at most n letters.
    """
    return [theta_inverse(f) for f in farey_fractions(n)]
