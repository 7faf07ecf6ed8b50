"""Good/bad cut classification, cut push-forwards, and forbidden patterns."""

from __future__ import annotations

from dataclasses import dataclass

from .biseq import markov_value
from .cf import FREE_TAILS, TAIL_MAX, TAIL_MIN, lambda_range
from .errors import DomainError, PreconditionUnverified, TemplateMismatch
from .lang import Threshold, membership, parse_threshold
from .surd import SurdSum
from .words import ABWord, UVWord, Word, apply_subst

CUT_DEPTH = 14  # extension digits classify_cut tries before "unresolved"


@dataclass(frozen=True)
class Cut:
    """A finite word with a marked bar: context_left | context_right."""

    left: Word
    right: Word

    def __post_init__(self):
        if not self.left or not self.right:
            raise DomainError("both sides of a cut must be nonempty")

    @property
    def word(self):
        return self.left + self.right

    def __str__(self):
        return "%s|%s" % (self.left, self.right)

    @classmethod
    def parse(cls, text):
        l, _, r = text.partition("|")
        return cls(Word(l), Word(r))


def position_bounds(word, i):
    """(min, max) of lambda at position i of a finite word, over all bi-infinite
    completions; exact values attained by the alternating extremal tails.

    This is deliberately not the integer tail-image kernel of lang.  lang's
    bounds are outer bounds over tails that respect the certified run bans,
    so they differ from these exact free-tail extrema, which `cfspectra cuts`
    prints.  Kept apart, this route can check lang's refutations
    independently."""
    return lambda_range(str(word), i, FREE_TAILS, FREE_TAILS)


@dataclass(frozen=True)
class CutClass:
    kind: str  # good | bad | mixed | unresolved
    sup_left: SurdSum
    sup_right: SurdSum
    depth: int | None = None

    def __str__(self):
        return self.kind if self.depth is None else "%s(depth=%d)" % (self.kind, self.depth)


def classify_cut(cut):
    """Exact classification of the two bar-adjacent positions.

    good: lambda < 3 at both positions for every completion (exact suprema via
    extremal tails).  bad: every completion has lambda > 3 at one of the two
    positions (branch-and-bound over extension digits).  mixed: neither, shown
    by an extension closed by per(12) or per(21) on each side.  Every value
    lies in Q(sqrt 3), so each comparison with 3 is an exact QuadSurd sign.
    """
    s = str(cut.word)
    m = len(cut.left)
    pos_l, pos_r = m - 1, m
    _, sup_l = position_bounds(s, pos_l)
    _, sup_r = position_bounds(s, pos_r)
    sups = SurdSum.from_value(sup_l), SurdSum.from_value(sup_r)
    if sup_l < 3 and sup_r < 3:
        return CutClass("good", *sups)

    stack = [("", "")]
    capped = False
    while stack:
        lext, rext = stack.pop()
        w = lext + s + rext
        pl, pr = len(lext) + pos_l, len(lext) + pos_r
        min_l, _ = position_bounds(w, pl)
        min_r, _ = position_bounds(w, pr)
        if min_l > 3 or min_r > 3:
            continue  # every completion of this branch exceeds 3 here
        # the closings per(12) and per(21) on each side, as tails read away
        # from the word: per(12) is [0;(21)^inf] = TAIL_MIN on the left and
        # [0;(12)^inf] = TAIL_MAX on the right, per(21) the other way round
        for left in (TAIL_MIN, TAIL_MAX):
            for right in (TAIL_MAX, TAIL_MIN):
                if all(lambda_range(w, p, (left, left), (right, right))[0] <= 3
                       for p in (pl, pr)):
                    return CutClass("mixed", *sups, depth=len(lext) + len(rext))
        if len(lext) + len(rext) >= CUT_DEPTH:
            capped = True
            continue
        if len(lext) <= len(rext):
            stack.extend([("1" + lext, rext), ("2" + lext, rext)])
        else:
            stack.extend([(lext, rext + "1"), (lext, rext + "2")])
    if capped:
        return CutClass("unresolved", *sups, depth=CUT_DEPTH)
    return CutClass("bad", *sups)


# kind -> (l0, l1, r0, r1): the letters around w* and w in the template
# X l0 w* l1 | r0 w r1 Y, with X and Y empty for the symmetric kinds
PUSH_TEMPLATES = {
    "good-symmetric": ("a", "b", "a", "b"),
    "good-asymmetric": ("b", "a", "b", "a"),
    "bad-symmetric": ("a", "a", "b", "b"),
    "bad-asymmetric": ("b", "b", "a", "a"),
}


def _ab(side):
    try:
        return ABWord.from_word(side).letters
    except ValueError as e:
        raise TemplateMismatch("cut sides must be {a,b}-words: %s" % e)


def push_cut(w_uv, cut, kind):
    """Push a template cut through a {U,V}-substitution word.

    Templates (with w an {a,b}-word, X and Y context words):
      good-symmetric   a w* b | a w b       ->  a u+ W(w*) v- b | a u+ W(w) v- b
      good-asymmetric  X b w* a | b w a Y   ->  b u+ W(w*) v- a | b u+ W(w) v- a
      bad-symmetric    a w* a | b w b       ->  a u+ W(w*) v- a | b u+ W(w) v- b
      bad-asymmetric   X b w* b | a w a Y   ->  b u+ W(w*) v- b | a u+ W(w) v- a
    where u = W(a), v = W(b); asymmetric kinds require |W(X)| >= |u| and
    |W(Y)| >= |v|.  The scan takes the longest w whose template fits.
    """
    if kind not in PUSH_TEMPLATES:
        raise DomainError("unknown kind %r" % kind)
    l0, l1, r0, r1 = PUSH_TEMPLATES[kind]
    W = UVWord(str(w_uv))
    if len(W) == 0:
        return cut
    ls, rs = _ab(cut.left), _ab(cut.right)
    u, v = apply_subst(W, "a"), apply_subst(W, "b")
    symmetric = not kind.endswith("asymmetric")
    for k in range(min(len(ls), len(rs)) - 2, -1, -1):
        w = rs[1:1 + k]
        if not (ls.endswith(l0 + w[::-1] + l1) and rs.startswith(r0 + w + r1)):
            continue
        X, Y = ls[:len(ls) - k - 2], rs[k + 2:]
        if (not X and not Y) if symmetric else (
                len(apply_subst(W, X)) >= len(u) and len(apply_subst(W, Y)) >= len(v)):
            break
    else:
        raise TemplateMismatch("cut does not contain the %s template" % kind)

    def side(a, x, b):
        return ABWord(a + (u.head() + apply_subst(W, x) + v.body()).letters + b).to_word()

    return Cut(side(l0, w[::-1], l1), side(r0, w, r1))


@dataclass(frozen=True)
class CompareVerdict:
    ok: bool
    base_bound: SurdSum    # exact sup of lambda over cuts built on the base word
    extended_bound: SurdSum
    threshold: object


def compare_bad_cuts(omega, omega_tilde, t, x="1", witness=None):
    """Certify that every sequence ... x omega_tilde* b | a omega_tilde y ... has
    lambda below t, given that the base bad cut x omega* b | a omega y occurs in
    a word of the t-level language.

    The precondition is certified on the base cut's word
    u = x omega* 1122 omega y itself, the word whose bound is returned: by a
    caller-supplied witness sequence whose Markov value is <= t and which
    contains u (every occurrence of u is repeated within one period and one
    |u| of the transients, so that window is searched); without one, by the
    witness of lang.membership of u when its verdict is "in", which needs a
    t that lang.Threshold.of accepts.  Either witness is rechecked through
    markov_value.  A text t is parsed once, on entry, by
    lang.parse_threshold.  Returns the exact bound chain.
    """
    if isinstance(t, str):
        t = parse_threshold(t)
    o, ot = str(omega), str(omega_tilde)
    if not ot.startswith(o):
        raise DomainError("extended word must begin with the base word")
    if x not in ("1", "2"):
        raise DomainError("x must be a digit")
    y = "1" if x == "2" else "2"
    base_word, ext_word = (x + w[::-1] + "1122" + w + y for w in (o, ot))
    if witness is not None:
        lo = len(witness.left_transient) + len(witness.left_period) + len(base_word)
        hi = len(witness.right_transient) + len(witness.right_period) + len(base_word)
        if base_word not in witness.segment(-lo, hi):
            raise PreconditionUnverified("witness does not exhibit the base cut")
    else:
        try:
            th = Threshold.of(t)
        except DomainError as exc:
            raise PreconditionUnverified("no witness, and %s" % exc) from exc
        cert = membership(base_word, th)
        if cert.verdict != "in":
            raise PreconditionUnverified("the base cut is %s at t" % cert.verdict)
        witness = cert.witness
    mv, _, _ = markov_value(witness)
    if not mv <= t:
        raise PreconditionUnverified("witness Markov value exceeds t")
    # the exact sup of lambda at the first digit of a = 22 over every
    # completion of x w* b | a w y
    base, ext = (SurdSum.from_value(position_bounds(u, len(w) + 3)[1])
                 for u, w in ((base_word, o), (ext_word, ot)))
    ok = (ext - t).sign() < 0
    return CompareVerdict(ok, base, ext, t)


@dataclass(frozen=True)
class PatternHit:
    name: str
    offset: int
    pattern: str


def forbidden_pattern_check(w, alphabet, n):
    """Scan a digit word for the forbidden factors attached to an alphabet.

    Patterns: alpha^2 ... beta^2 blocks, the four explicit b u+ ... v- a words
    (subject to their size side conditions), and exponent patterns
    alpha^r1 beta alpha^r2 beta with r2 < r1 - 1.  Returns the list of hits.
    """
    s = str(w)
    u, v = alphabet.alpha, alphabet.beta
    ud, vd = u.to_word().letters, v.to_word().letters
    up = u.head().to_word().letters
    vm = v.body().to_word().letters
    hits = []

    def scan(name, pattern):
        start = 0
        while True:
            k = s.find(pattern, start)
            if k < 0:
                break
            hits.append(PatternHit(name, k, pattern))
            start = k + 1

    scan("alpha2beta2", ud * 2 + vd * 2)
    if 2 * (2 * len(u) + len(v)) <= n:
        scan("w0", "11" + up + ud * 2 + vd + ud * 3 + vm + "22")
        scan("w1", "11" + up + ud + vd + ud * 2 + vm + "22")
        scan("w2", "11" + up + ud + vd + ud * 2 + vd + ud * 2 + vm + "22")
    if 2 * (len(u) + len(v)) <= n / 2:
        scan("w3", "11" + up + (ud + vd) * 2 + ud * 2 + vd + ud + vm + "22")
    max_r = len(s) // max(1, len(ud)) + 1
    for r1 in range(2, max_r + 1):
        for r2 in range(0, r1 - 1):
            pat = ud * r1 + vd + ud * r2 + vd
            if len(pat) > len(s):
                continue
            scan("force(r1=%d,r2=%d)" % (r1, r2), pat)
    return hits
