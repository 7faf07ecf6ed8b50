"""Weak and semi renormalization of {a,b}-words over ordered alphabets."""

from __future__ import annotations

from dataclasses import dataclass

from .alphabets import ROOT, OrderedAlphabet, children
from .errors import NoValidExtension, NotRenormalizable
from .words import ABWord, Word


@dataclass(frozen=True)
class WeakRenormalization:
    """w = w1 * kernel * w2 with the kernel written over {alpha, beta}.

    kernel_letters spells the factorization with 'a' for alpha and 'b' for
    beta; lengths in the defining inequalities are digit lengths.
    """

    w1: ABWord
    kernel_letters: str
    alphabet: OrderedAlphabet
    w2: ABWord

    @property
    def kernel(self):
        a, b = self.alphabet.alpha.letters, self.alphabet.beta.letters
        return ABWord("".join(a if c == "a" else b for c in self.kernel_letters))

    @property
    def word(self):
        return self.w1 + self.kernel + self.w2

    def violations(self):
        """All Definition-of-weak-renormalizability conditions that fail."""
        out = []
        al, be = self.alphabet.alpha, self.alphabet.beta
        cat = (al + be).letters
        mx = 2 * max(len(al), len(be))
        if 2 * len(self.w1) >= mx:
            out.append("w1 too long")
        if 2 * len(self.w2) >= mx:
            out.append("w2 too long")
        if not cat.startswith(self.w2.letters):
            out.append("w2 not a prefix of alpha beta")
        if not cat.endswith(self.w1.letters):
            out.append("w1 not a suffix of alpha beta")
        split = self.alphabet.parent_split()
        if split is not None and self.kernel_letters:
            kind, u, v = split
            if kind == "uuv" and self.kernel_letters.endswith("a"):
                if 2 * len(v) > 2 * len(self.w2):
                    out.append("kernel ends with alpha but |v| > |w2|")
            if kind == "uvv" and self.kernel_letters.startswith("b"):
                if 2 * len(u) > 2 * len(self.w1):
                    out.append("kernel starts with beta but |u| > |w1|")
        return out

    def is_valid(self):
        return not self.violations()


def trivial_renormalization(w):
    """Every {a,b}-word is (a,b)-weakly renormalizable with itself as kernel."""
    ab = w if isinstance(w, ABWord) else ABWord.from_word(w)
    return WeakRenormalization(ABWord(""), ab.letters, ROOT, ABWord(""))


def _factor_over(s, a, b):
    """Factor letter-string s over words a, b; 'a' before 'b' when both parse.

    Returns the mark string over {'a','b'} or None.  Parsed right to left:
    nxt[i] is the (mark, next position) of the preferred parse of s[i:].
    """
    n = len(s)
    nxt = {n: None}
    for i in range(n - 1, -1, -1):
        for mark, w in (("a", a), ("b", b)):
            if s.startswith(w, i) and i + len(w) in nxt:
                nxt[i] = mark, i + len(w)
                break
    if 0 not in nxt:
        return None
    marks, i = [], 0
    while i < n:
        mark, i = nxt[i]
        marks.append(mark)
    return "".join(marks)


def decompose_over(word, alphabet, fixed_w1=None, fixed_w2=None):
    """First valid weak renormalization of an {a,b}-word over the alphabet.

    Candidates are scanned with |w1| ascending then |w2| ascending, so empty
    trailing words are preferred; fixed_w1/fixed_w2 pin one side exactly.
    Returns None when no decomposition satisfies every condition.
    """
    ab = word if isinstance(word, ABWord) else ABWord.from_word(word)
    s = ab.letters
    al, be = alphabet.alpha.letters, alphabet.beta.letters
    cat = al + be
    mx = max(len(al), len(be))
    if fixed_w1 is not None:
        w1s = [fixed_w1.letters]
    else:
        w1s = [cat[len(cat) - k:] for k in range(0, mx)]
    if fixed_w2 is not None:
        w2s = [fixed_w2.letters]
    else:
        w2s = [cat[:k] for k in range(0, mx)]
    for w1 in w1s:
        if not s.startswith(w1):
            continue
        for w2 in w2s:
            if len(w1) + len(w2) > len(s) or not s.endswith(w2):
                continue
            mid = s[len(w1): len(s) - len(w2)]
            marks = _factor_over(mid, al, be)
            if marks is None:
                continue
            cand = WeakRenormalization(ABWord(w1), marks, alphabet, ABWord(w2))
            if cand.is_valid():
                return cand
    return None


def renorm_step(r):
    """One step of the renormalization algorithm.

    Refines a decomposition over (u, v) into one over (uv, v) or (u, uv);
    the tie prefers (uv, v).  The stable trailing word of the lemma (w1 when
    the kernel starts with u, w2 when it ends with v) is pinned bit-exactly.
    """
    if not r.kernel_letters:
        raise NotRenormalizable("empty kernel cannot be refined")
    ks = r.kernel_letters
    if "aa" in ks and "bb" in ks:
        raise NotRenormalizable(
            "kernel mixes uu and vv blocks (forbidden-pattern obstruction)")
    child_u, child_v = children(r.alphabet)  # (uv, v) and (u, uv)
    order = []
    if "aa" not in ks:
        order.append(child_u)
    if "bb" not in ks:
        order.append(child_v)
    pin1 = r.w1 if ks.startswith("a") else None
    pin2 = r.w2 if ks.endswith("b") else None
    word = r.word
    for alphabet in order:
        got = decompose_over(word, alphabet, fixed_w1=pin1, fixed_w2=pin2)
        if got is not None:
            return got
    raise NotRenormalizable("no successor alphabet admits a valid decomposition")


def _ab_extensions(s):
    """Valid {a,b}-word extensions of a digit string by at most one digit per
    side, in the order: none, right, left, both."""
    out = []
    for left in ("", s[0]):
        for right in ("", s[-1]):
            try:
                ab = ABWord.from_word(Word(left + s + right))
            except ValueError:
                continue
            out.append(ab)
    return out


def find_alphabet(w, n):
    """Scale-n alphabet of a digit word: iterate the renormalization algorithm
    from the trivial decomposition of an {a,b}-extension until |alpha beta| >= n.

    Returns (alphabet, decomposition) with |alpha|, |beta| < n in digits.
    """
    s = str(w)
    if not s:
        raise NotRenormalizable("empty word")
    exts = _ab_extensions(s)
    if not exts:
        raise NoValidExtension("no one-digit completion to an {a,b}-word")
    last_err = None
    for ab in exts:
        r = trivial_renormalization(ab)
        try:
            while 2 * len(r.alphabet.concat()) < n:
                r = renorm_step(r)
        except NotRenormalizable as e:
            last_err = e
            continue
        al, be = r.alphabet.alpha, r.alphabet.beta
        if 2 * len(al) >= n or 2 * len(be) >= n:
            last_err = NotRenormalizable(
                "alphabet letters reached size n before the pair did")
            continue
        return r.alphabet, r
    raise last_err


def semi_renormalize(w, alphabet):
    """Weak renormalization of an extension of w (at most one digit per side)
    over the given alphabet; extensions tried in (none, right, left, both) order."""
    s = str(w)
    if not s:
        raise NotRenormalizable("empty word")
    exts = _ab_extensions(s)
    if not exts:
        raise NoValidExtension("no one-digit completion to an {a,b}-word")
    for ab in exts:
        got = decompose_over(ab, alphabet)
        if got is not None:
            return got
    raise NotRenormalizable(
        "no extension is weakly renormalizable over %s" % (alphabet,))
