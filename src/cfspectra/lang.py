"""Certified membership and enumeration of the language of t-bounded words.

Sigma(t, n) is the set of length-n factors of bi-infinite {1,2}-sequences
whose lambda value stays <= t at every position.  Membership is certified:
In carries an eventually periodic witness, Out a branch-and-bound refutation
depth, and Unresolved is a first-class verdict.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from .alphabets import ROOT, children, farey_words
from .biseq import BiSeq, _markov_periodic, lambdas, markov_value
from .cf import IDENTITY, cf_matrix, floor_exp, floor_log, mat_mul
from .errors import DomainError
from .surd import QuadSurd
from .words import Word


# ---------------------------------------------------------------- thresholds

FIXED_BITS = 128  # F, the fraction bits of the fixed-point position screen

_EXPONENTIAL = re.compile(r"(.+)([+-])(\d+)\^-(\d+)")


def parse_threshold(text):
    """Parse a threshold exactly: 'sqrt(12)', a decimal or rational literal,
    or H+B^-E / H-B^-E with H such a literal, an integer base B >= 2 and an
    integer exponent E >= 0.  Anything else raises DomainError."""
    s = str(text).strip().replace(" ", "")
    if s == "sqrt(12)":
        return QuadSurd(0, 2, 1, 3)
    m = _EXPONENTIAL.fullmatch(s)
    try:
        if m is None and "^" not in s:
            return Fraction(s)
        if m is not None and int(m[3]) >= 2:
            off = Fraction(1, int(m[3]) ** int(m[4]))
            return Fraction(m[1]) + (off if m[2] == "+" else -off)
    except (ValueError, ZeroDivisionError):
        pass
    raise DomainError("cannot parse threshold %r" % str(text))


@dataclass(frozen=True)
class Threshold:
    """A language threshold t, rational or sqrt(12), with what the decisions
    at t read off it, built once by Threshold.of.

    Kernel form: t = num/den, or t*t = num/den when root is set; thresholds
    compare and hash by it.  Every decision at t is exact integer
    arithmetic, of two kinds: decide, the three-way verdict (refuted,
    retired or live) at a position of the position-bound kernel, and
    root_le, the comparison of a periodic witness's Markov value.  A
    rational t also keeps its excess over 3, the integer excess = num - 3 den
    with t - 3 = excess/den: positions carry their values as offsets from 3.
    fixed = floor((t - 3) 2^F), F = FIXED_BITS, is the screen that
    _position_verdict runs before decide.  value is t as given or parsed
    (it is printed).  qmax caps the block rule's cylinder denominators (see
    _aabb_factor).
    """
    value: object = field(compare=False)
    num: int
    den: int
    root: bool
    excess: int = field(compare=False)
    fixed: int = field(compare=False)
    qmax: int | None = field(compare=False)

    @staticmethod
    def of(x):
        """The Threshold of text (see parse_threshold), an int, a Fraction or
        a QuadSurd that is rational or sqrt(12); a Threshold is returned as
        is.  Anything else raises DomainError."""
        if not isinstance(x, (Threshold, str, int, Fraction, QuadSurd)):
            raise DomainError("not a threshold: %r" % (x,))
        return x if isinstance(x, Threshold) else _threshold(x)

    def decide(self, x, den, h):
        """The decision at a position of value v = 3 + x/den whose forward
        cylinder has diameter 1/h (den, h > 0), exactly: 1 when v > t
        (refuted), -1 when v + 1/h <= t (retired), else 0 (live).

        A rational t compares x/den with e/t_den, e = excess, and
        y/(den h) = v + 1/h - 3, y = x h + den, likewise, by cross products.
        sqrt(12) compares squares.  _position_verdict screens each position
        with fixed first, so only the few positions whose enclosure
        straddles t or t - 1/h reach this exact path."""
        if self.root:
            num = x + 3 * den
            if num > 0 and num * num * self.den > self.num * den * den:
                return 1
            a, b = num * h + den, den * h
            return -1 if a <= 0 or a * a * self.den <= self.num * b * b else 0
        e = self.excess
        if x * self.den > e * den:
            return 1
        return 0 if (x * h + den) * self.den > e * den * h else -1

    def root_le(self, D, c):
        """sqrt(D)/c <= t, exactly (D >= 0, c > 0)."""
        if self.root:
            return D * self.den <= self.num * c * c
        return self.num >= 0 and D * self.den * self.den <= self.num * self.num * c * c


@functools.lru_cache(maxsize=64, typed=True)
def _threshold(x):
    value = parse_threshold(x) if isinstance(x, str) else x
    if isinstance(value, QuadSurd) and value.q:
        if (value.p, value.q, value.r, value.d) != (0, 2, 1, 3):
            raise DomainError("enumeration thresholds must be rational or sqrt(12)")
        # sqrt(12) - 3 > e^-1: only factors with r = 0, q < e, qualify
        return Threshold(value, 12, 1, True, 0,
                         math.isqrt(12 << 2 * FIXED_BITS) - (3 << FIXED_BITS), floor_exp(1))
    f = Fraction(value.p, value.r) if isinstance(value, QuadSurd) else Fraction(value)
    num, den = f.numerator, f.denominator
    excess = num - 3 * den
    # the block rule refutes above 3 + e^-r, so the cap is the largest r with
    # e^-r >= t - 3, and r(w) = floor(ln q) <= r iff q <= floor(e^(r+1)):
    # None (no cap) for t <= 3, 0 (no block applies) for t >= 4
    qmax = (None if excess <= 0 else 0 if excess >= den
            else floor_exp(floor_log(Fraction(den, excess)) + 1))
    return Threshold(value, num, den, False, excess, (excess << FIXED_BITS) // den, qmax)


# --------------------------------------------- admissible-tail value bounds

class TailTables:
    """Certified outer bounds on [0; X] over admissible one-sided tails.

    An admissible tail continues a run of the junction digit and must not
    close an interior odd run of banned length: runs of 1s up to j1 and runs
    of 2s up to j2 may only be closed at even total length.  j = 1 encodes the
    121/212 exclusion; longer bans are certified against the working
    threshold before use.  States are (digit, L) with L the current run
    length (0 = no parity constraint: unbounded on the far side or longer
    than the ban).  The bounds, integer pairs (num, den), are the fixed point
    of the outward-rounded map (lo down, hi up; see _iterate_tables).
    ends[digit][L] is the pair (lo, hi) of state (digit, L), L = 0 .. j, the
    one lookup behind bounds, with each bound x kept as the triple
    (num, den, floor(x 2^F)), F = FIXED_BITS, for the position screen
    (_position_verdict).
    """

    def __init__(self, j1, j2, lo, hi):
        self.j1 = j1
        self.j2 = j2
        self._lo = lo
        self._hi = hi

        def fixed(x):
            return x + ((x[0] << FIXED_BITS) // x[1],)

        self.ends = {d: tuple((fixed(lo[d, L]), fixed(hi[d, L])) for L in range(j + 1))
                     for d, j in (("1", j1), ("2", j2))}

    def tails(self, digit, runlen, bounded):
        """The ends entry (lo, hi) for tails at this junction, each bound a
        triple (num, den, fixed)."""
        ends = self.ends[digit]
        return ends[runlen if bounded and runlen < len(ends) else 0]

    def bounds(self, digit, runlen, bounded):
        """((lo_num, lo_den), (hi_num, hi_den)) for tails at this junction."""
        lo, hi = self.tails(digit, runlen, bounded)
        return lo[:2], hi[:2]

    def run_banned(self, digit, runlen):
        """Whether closing a both-sided run of this digit and length is banned."""
        j = self.j1 if digit == "1" else self.j2
        return runlen % 2 == 1 and runlen <= j

    @staticmethod
    def start_run(s):
        """(digit, runlen, bounded) of the leading run of a digit string."""
        d = s[0]
        r = 1
        while r < len(s) and s[r] == d:
            r += 1
        return d, r, r < len(s)

    @staticmethod
    def end_run(s):
        return TailTables.start_run(s[::-1])

    def has_banned_run(self, s):
        """Scan a digit string for interior odd runs of banned length."""
        i = 0
        n = len(s)
        while i < n:
            j = i
            while j < n and s[j] == s[i]:
                j += 1
            if i > 0 and j < n and self.run_banned(s[i], j - i):
                return True
            i = j
        return False


def _iterate_tables(j1, j2, bits):
    """The greatest fixed point inside the seed box of x -> 1/(c + x) over
    the transitions, each bound rounded outward to a multiple of 2**-bits.

    The rounded map is inclusion-monotone and the seed box is a post-fixpoint
    (1/(2 + hi0) > lo0 and 1/(1 + lo0) < hi0), so an update in place never
    widens a bound.  Sweeps update each digit's states in chain order (d, 0),
    (d, j) .. (d, 1), so one sweep carries a run of any length; they narrow
    the bounds on a finite grid, and stop when a sweep changes nothing.

    Integer kernel: floor and ceil are monotone, so they commute with the min
    and max over transitions, and for a next-state bound p/q the rounded
    image is floor(scale*q / (c*q + p)) (lo) or its ceiling (hi).  Bounds are
    carried as (numerator, denominator) pairs; after the first sweep every
    denominator is scale.
    """
    scale = 1 << bits
    lo0 = (36602, 100000)   # below (sqrt3 - 1)/2
    hi0 = (73206, 100000)   # above sqrt3 - 1
    trans = {}  # in sweep order
    for d, j, nd, jn in (("1", j1, "2", j2), ("2", j2, "1", j1)):
        for L in [0] + list(range(j, 0, -1)):
            out = [(int(d), (d, L + 1 if 0 < L < j else 0))]
            # closing the run is allowed when no parity constraint applies
            if L % 2 == 0:
                out.append((int(nd), (nd, 1 if jn >= 1 else 0)))
            trans[(d, L)] = out
    m = dict.fromkeys(trans, lo0)
    big = dict.fromkeys(trans, hi0)

    changed = True
    while changed:
        changed = False
        for s, out in trans.items():
            lo = hi = None
            for c, ns in out:
                p, q = big[ns]
                a = scale * q // (c * q + p)
                p, q = m[ns]
                b = -(-scale * q // (c * q + p))
                lo = a if lo is None or a < lo else lo
                hi = b if hi is None or b > hi else hi
            if (lo, scale) != m[s] or (hi, scale) != big[s]:
                m[s], big[s] = (lo, scale), (hi, scale)
                changed = True
    return TailTables(j1, j2, m, big)


@functools.lru_cache(maxsize=1)
def _free_tables():
    return _iterate_tables(0, 0, 128)


def tail_tables_for(t, run_cap):
    """Tables certified at threshold t, banning interior odd runs up to
    run_cap when each exclusion is provable at t.

    The 1-run and 2-run ban lengths are bootstrapped: runs of length 1
    (the 121/212 exclusion) hold for t <= 3.06; each longer pattern
    2 1^(j+2) 2 or 1 2^(j+2) 1 is admitted only after a position-bound
    refutation using the tables certified so far.  Every table is the fixed
    point of the outward-rounded map for its ban lengths (_iterate_tables).
    The cap is bucketed, and the tables depend only on t and the bucket.
    """
    return _certified_tables(Threshold.of(t), (max(1, run_cap) + 15) // 16 * 16 + 1)


@functools.lru_cache(maxsize=16)
def _certified_tables(th, run_cap):
    # t > 3.06 = 153/50; sqrt(12), the one root threshold, is above it
    if th.root or 50 * th.num > 153 * th.den:
        return _free_tables()
    j1 = j2 = 1
    tables = _iterate_tables(1, 1, 160)
    stall1 = stall2 = False
    while not (stall1 and stall2):
        before = (j1, j2)
        if not stall1:
            stall1 = (j1 + 2 > run_cap or
                      _bound_build("2" + "1" * (j1 + 2) + "2", th, tables) is not None)
            j1 += 0 if stall1 else 2
        if not stall2:
            stall2 = (j2 + 2 > run_cap or
                      _bound_build("1" + "2" * (j2 + 2) + "1", th, tables) is not None)
            j2 += 0 if stall2 else 2
        if (j1, j2) != before:
            tables = _iterate_tables(j1, j2, 160 + 4 * max(j1, j2))
    return _iterate_tables(j1, j2, 200 + 4 * max(j1, j2))


# ------------------------------------------------------- the periodic family

@functools.lru_cache(maxsize=1 << 16)
def period_markov(period):
    """(D, c) with sqrt(D)/c the Markov value of the two-sided periodic
    sequence, cached."""
    return _markov_periodic(period)[:2]


def _windows(period, n):
    reps = period * (n // len(period) + 2)
    for off in range(len(period)):
        yield reps[off:off + n], off


@functools.lru_cache(maxsize=8)
def factor_witness_map(n):
    """word -> (period, offset) for every length-n factor of the periodic
    family, with the shortest (then theta-least) period winning.

    The family is the digit images of the Farey words of order n//2 + 3, read
    by letter count (a stable sort keeps theta order within one count): a
    window of n digits covers at most n//2 + 1 two-digit letters, and two
    more counts are kept as a margin.
    """
    wmap = {}
    for word in sorted(farey_words(n // 2 + 3), key=len):
        period = str(word.to_word())
        for w, off in _windows(period, n):
            if w not in wmap:
                wmap[w] = (period, off)
    return wmap


# ------------------------------------------------------------- certificates

@dataclass
class MembershipCertificate:
    word: Word
    threshold: object
    verdict: str                  # "in" | "out" | "unresolved"
    witness: BiSeq | None = None  # for "in": contains word starting at position 0
    refutation_depth: int | None = None

    def verify(self):
        """Re-check the certificate through exact quadratic-surd arithmetic,
        not the integer kernel that decided it: a periodic witness has
        lambda <= t at each phase of one period, read off one lambdas sweep
        over the period; any other witness has its Markov value <= t, by
        markov_value."""
        if self.verdict != "in":
            return True
        seq = self.witness
        if seq.segment(0, len(self.word)) != str(self.word):
            return False
        if seq.is_periodic():
            return all(lam <= self.threshold
                       for lam in lambdas(seq, 0, len(seq.right_period)))
        mv, _, _ = markov_value(seq)
        return mv <= self.threshold  # any exact threshold

    def row(self):
        wit = ""
        if self.witness is not None:
            wit = "per(%s)" % self.witness.right_period
        return (str(self.word), self.verdict, wit,
                "" if self.refutation_depth is None else str(self.refutation_depth))


@dataclass
class LanguageSet:
    n: int
    threshold: object
    words: dict          # word string -> MembershipCertificate (verdict "in")
    unresolved: dict     # word string -> MembershipCertificate

    def sorted_words(self):
        return sorted(self.words)

    def word_set(self):
        return set(self.words)

    def transposition_closed(self):
        return all(w[::-1] in self.words for w in self.words)

    def rows(self):
        """The header row, then the in-words' rows and the unresolved, each sorted."""
        return [("word", "verdict", "witness-period", "refutation-depth")] + [
            (self.words.get(w) or self.unresolved[w]).row()
            for w in sorted(self.words) + sorted(self.unresolved)]

    def to_json_obj(self):
        return {
            "n": self.n,
            "threshold": str(self.threshold),
            "count": len(self.words),
            "words": [self.words[w].row() for w in sorted(self.words)],
            "unresolved": [self.unresolved[w].row() for w in sorted(self.unresolved)],
        }


def _periodic_witness(period, offset, word, th):
    """The "in" certificate per(period) read from offset."""
    seq = BiSeq.periodic(period[offset:] + period[:offset])
    return MembershipCertificate(Word(word), th.value, "in", seq)


def _family_witness(s, th):
    """An "in" certificate from the periodic-family period that
    factor_witness_map assigns to s, when its Markov value is <= t; else None."""
    hit = factor_witness_map(len(s)).get(s)
    if hit is None:
        return None
    period, off = hit
    if not th.root_le(*period_markov(period)):
        return None
    return _periodic_witness(period, off, s, th)


def _pads_by_length():
    """The self-closing pads a f^k b (|a|, |b| <= 2, f in {1, 2}, k <= 10),
    grouped by length, each group sorted: 351 pads of lengths 0..14."""
    sides = ("", "1", "2", "11", "12", "21", "22")
    pads = {a + f * k + b for a in sides for b in sides for f in "12" for k in range(11)}
    return tuple(tuple(sorted(p for p in pads if len(p) == n))
                 for n in range(max(map(len, pads)) + 1))


_PADS = _pads_by_length()


def _pad_witness(s, th, pads):
    """An "in" certificate per(s + pad) from the first pad whose periodic
    Markov value is <= t; else None."""
    for pad in pads:
        period = s + pad
        if th.root_le(*period_markov(period)):
            return _periodic_witness(period, 0, s, th)
    return None


# ------------------------------------------------------ position bound kernel

def _min_tail_image(g, parity, lo, hi):
    """min over admissible tail values x of (g00 x + g01)/(g10 x + g11),
    as an integer pair; parity is the digit count of the word behind g.
    The max is the min at the other parity."""
    xn, xd = lo if parity == 0 else hi  # orientation flips with each digit
    g00, g01, g10, g11 = g
    return g00 * xn + g01 * xd, g10 * xn + g11 * xd


# A position bound is the tuple (s, rev, end, back, live): the digit string
# s; the product M(s[n-1]) .. M(s[0]) over its reversal, M(c) = (0, 1, 1, c);
# its end run (digit, runlen, bounded); the backward tail bounds of its
# leading run; and the live positions (i, beta, bd, b, g00, g01, g10, g11),
# the base s[i] plus the least backward tail image at i being 3 + beta/bd,
# b = floor(beta 2^F / bd) its fixed-point floor (F = FIXED_BITS) and
# (g00, g01, g10, g11) the forward matrix M(s[i+1]) .. M(s[n-1]).  A bound
# is built whole (_bound_build) or grown on the right into both its
# children at once (_bound_children), never on the left: once the leading
# run is closed the bases never change, so one retirement rule serves both,
# and both test each position by _position_verdict.

def _position_verdict(th, beta, bd, b, g00, g01, g10, g11, tail):
    """The decision of Threshold.decide at a position of base 3 + beta/bd,
    b = floor(beta 2^F / bd), and forward matrix g, whose least forward
    tail image is read at tail = (num, den, X), the end run's tail bound
    x = num/den for the position's parity with X = floor(x 2^F): 1 refuted,
    -1 retired, 0 live.

    The least forward tail image is g(x) = (g00 x + g01)/(g10 x + g11) at the
    tail bound x = lo when the forward part has even length and x = hi when
    odd (see _min_tail_image), and the cylinder of the forward part has
    diameter 1/h, h = g11 (g10 + g11).  A position retires when its bound
    v = 3 + beta/bd + g(x) plus that diameter is <= t: growing s only
    narrows its forward tail inside that cylinder, and leaves its base alone
    once the leading run is closed (before that, a child is built whole).

    A fixed-point screen decides first, in integers scaled by 2^F.  Let
    G = floor(g(X 2^-F) 2^F), one integer division.  det g = +-1 and
    g10 x + g11 >= 1 on [0, 1], which holds every tail bound, so |g'| <= 1
    there; and x - X 2^-F lies in [0, 2^-F), so g(x) 2^F lies in
    (G - 1, G + 2).  With beta 2^F / bd in [b, b + 1), (v - 3) 2^F lies in
    the open interval (lo, lo + 4), lo = b + G - 1, and (t - 3) 2^F in
    [E, E + 1), E = th.fixed.  Hence lo >= E + 1 gives v > t (refuted), and
    lo + 4 <= E gives v < t; then, with i = floor(2^F / h), so that 2^F / h
    lies in [i, i + 1), lo + 4 + i + 1 <= E gives v + 1/h < t (retired) and
    lo + i >= E + 1 gives v + 1/h > t (live).  Only where the enclosure
    straddles t - 3 or t - 3 - 1/h does decide form the exact products."""
    xn, xd, X = tail
    h = g11 * (g10 + g11)
    e = th.fixed
    G = ((g00 * X + (g01 << FIXED_BITS)) << FIXED_BITS) // (g10 * X + (g11 << FIXED_BITS))
    lo = b + G - 1
    if lo > e:
        return 1
    if lo + 4 <= e:
        i = (1 << FIXED_BITS) // h
        if lo + i + 5 <= e:
            return -1
        if lo + i > e:
            return 0
    fd = g10 * xn + g11 * xd
    return th.decide(beta * fd + (g00 * xn + g01 * xd) * bd, bd * fd, h)


def _bound_build(s, th, tables):
    """The position bound of the digit string s, built whole from suffix
    products; None when s closes a banned interior odd run or some position
    of s has every admissible bi-infinite completion exceed t there.

    This covers the coupled bound at 11|22 bars: at the first 2 of a 1122,
    lambda = 2 + [0;2,Y...] + [0;1,1,X...] = 3 + [0;1,1,X...] - [0;1,1,Y...],
    since [0;2,Y] = 1 - [0;1,1,Y], and both forms take the same tail values.
    """
    if tables.has_banned_run(s):
        return None
    back = tables.bounds(*TailTables.start_run(s))
    end = TailTables.end_run(s)
    tails = tables.tails(*end)
    forward = [IDENTITY]
    for c in reversed(s[1:]):
        forward.append(mat_mul((0, 1, 1, int(c)), forward[-1]))
    forward.reverse()
    rev = IDENTITY
    live = []
    for i, c in enumerate(s):
        bn, bd = _min_tail_image(rev, i % 2, *back)
        beta = bn + (int(c) - 3) * bd
        pos = (i, beta, bd, (beta << FIXED_BITS) // bd) + forward[i]
        verdict = _position_verdict(th, *pos[1:], tails[(len(s) - 1 - i) % 2])
        if verdict > 0:
            return None
        if verdict == 0:
            live.append(pos)
        rev = mat_mul((0, 1, 1, int(c)), rev)
    return s, rev, end, back, live


def _bound_children(bound, th, tables):
    """The position bounds of s + "1" and s + "2" grown from the bound of s,
    each None as _bound_build gives it, from one walk over the live
    positions: each is unpacked once, its forward matrix g grown to g M(1)
    and g M(2), and tested for each child still alive against that child's
    end-run tail bounds.  While s is one run, every position's backward tail
    reads the leading run, which a child may close: both are then built
    whole."""
    s, rev, (e_d, e_r, e_b), back, live = bound
    if not e_b:
        return _bound_build(s + "1", th, tables), _bound_build(s + "2", th, tables)
    n = len(s)
    # each child's end run and the tail bounds it reads; the child that
    # closes the end run is dead from the start (kept None) when that closes
    # a banned interior odd run
    r1, r2 = (e_r + 1, 1) if e_d == "1" else (1, e_r + 1)
    ends1, ends2 = tables.ends["1"], tables.ends["2"]
    tails1 = ends1[r1 if r1 < len(ends1) else 0]
    tails2 = ends2[r2 if r2 < len(ends2) else 0]
    kept1, kept2 = [], []
    if tables.run_banned(e_d, e_r):
        kept1, kept2 = (kept1, None) if e_d == "1" else (None, kept2)
    # the two children are written out, not looped over: this walk is the
    # enumerator's inner loop
    for i, beta, bd, fb, g00, g01, g10, g11 in live:
        par = (n - i) % 2
        a, b = g00 + g01, g10 + g11  # g M(1) = (g01, a, g11, b)
        if kept1 is not None:
            verdict = _position_verdict(th, beta, bd, fb, g01, a, g11, b, tails1[par])
            if verdict > 0:
                kept1 = None
            elif verdict == 0:
                kept1.append((i, beta, bd, fb, g01, a, g11, b))
        if kept2 is not None:
            a, b = a + g01, b + g11  # g M(2)
            verdict = _position_verdict(th, beta, bd, fb, g01, a, g11, b, tails2[par])
            if verdict > 0:
                kept2 = None
            elif verdict == 0:
                kept2.append((i, beta, bd, fb, g01, a, g11, b))
    # the new last position, of forward matrix the identity, and the
    # reversed product M(c) rev
    bn, bd = _min_tail_image(rev, n % 2, *back)
    r00, r01, r10, r11 = rev
    one = two = None
    if kept1 is not None:
        beta = bn - 2 * bd
        fb = (beta << FIXED_BITS) // bd
        verdict = _position_verdict(th, beta, bd, fb, 1, 0, 0, 1, tails1[0])
        if verdict <= 0:
            if verdict == 0:
                kept1.append((n, beta, bd, fb, 1, 0, 0, 1))
            one = s + "1", (r10, r11, r00 + r10, r01 + r11), ("1", r1, True), back, kept1
    if kept2 is not None:
        beta = bn - bd
        fb = (beta << FIXED_BITS) // bd
        verdict = _position_verdict(th, beta, bd, fb, 1, 0, 0, 1, tails2[0])
        if verdict <= 0:
            if verdict == 0:
                kept2.append((n, beta, bd, fb, 1, 0, 0, 1))
            two = (s + "2", (r10, r11, r00 + 2 * r10, r01 + 2 * r11), ("2", r2, True),
                   back, kept2)
    return one, two


# ------------------------------------------- forbidden-block refutation rule

@functools.lru_cache(maxsize=16)
def _alphabet_digit_pairs(cap):
    """Digit images (A, B) of ordered alphabets that fit an A A B B factor of
    cap digits, 2 |A B| <= cap, by increasing size, then alpha, then beta."""
    out = []
    stack = [ROOT]
    while stack:
        node = stack.pop()
        if 4 * len(node.concat()) <= cap:  # two digits per letter
            out.append(node)
            stack.extend(children(node))
    out.sort(key=lambda a: (len(a.concat()), str(a.alpha), str(a.beta)))
    return [(str(a.alpha.to_word()), str(a.beta.to_word())) for a in out]


@functools.lru_cache(maxsize=4096)
def _block_pattern(A, B):
    """At each offset, the first factor A A M B B (M over {A, B}) found by
    trying at each step the end B B, then A, then B.  {A, B} is a code, so an
    offset is reached by at most one parse and the backtracking is linear."""
    return re.compile("(?=(%s%s(?:%s|%s)*?%s%s))" % (A, A, A, B, B, B))


def _aabb_factor(s, qmax):
    """A factor of s or of its reversal matching the digit image of
    alpha^2 M beta^2 over an ordered alphabet (M over {alpha, beta}), whose
    cylinder denominator q = 1/|I| is at most qmax (None: any); None when
    absent.

    Any word containing such a factor has Markov value above 3 + e^-r,
    r = floor(ln q), so this is a certified refutation at thresholds
    t <= 3 + e^-r, and r <= rmax exactly when q <= floor(e^(rmax+1)).
    """
    # the cap is bucketed so that nearby lengths share one cached list
    for A, B in _alphabet_digit_pairs((len(s) + 15) // 16 * 16):
        if 2 * (len(A) + len(B)) > len(s):
            break
        pattern = _block_pattern(A, B)
        for target in (s, s[::-1]):
            for m in pattern.finditer(target):
                if qmax is None:
                    return m[1]
                _, _, g10, g11 = cf_matrix(m[1])
                if g11 * (g10 + g11) <= qmax:
                    return m[1]
    return None


_MAX_FRONTIER = 8192  # contexts a search level may hold


def _word_tables(th, n):
    """The tail tables for words of n digits, one rule for membership and the
    enumerator, so that an enumerator bound serves membership: runs longer
    than a context never gate it, so the word length bounds the useful ban
    cap (and the bucket keeps the table cache shared)."""
    return tail_tables_for(th, n + 8)


def membership(w, t, max_depth=28, *, bound=None):
    """Certified membership of a finite word over {1, 2} in the level-t
    language; other digits, or the empty word, raise DomainError.

    One decision path, in this order, at every word length:
    1. In by the periodic family: the word's entry in factor_witness_map
       (its shortest, then theta-least, family period) when that period's
       Markov value is <= t.
    2. Out at depth 0: the word's own position bound, then the block rule.
    3. In by a self-closing: per(w + pad) for the pads of length 0..2
       ("", 1, 2, 11, 12, 21, 22).
    4. The two-sided branch-and-bound refutation search.  While it is at
       depth d >= 3 with an unrefuted context left, and below max_depth,
       the self-closings with the pads of length d (a f^k b, see
       _pads_by_length) are tried first.  Out when every context is
       refuted; unresolved when the search reached max_depth, or a level
       held more than _MAX_FRONTIER contexts.

    The search extends the word alternately on the right and on the left.
    Every context is screened by its position bound, then by the block
    rule; the two right extensions are grown from their parent's bound in
    one pass (_bound_children), a left extension builds its bound whole
    (_bound_build).  Every test is integer arithmetic (_position_verdict at
    each live position, Threshold.root_le for each witness, and the block
    rule's cylinder denominator against Threshold.qmax).

    The order of the witnesses and the refutations never changes a verdict:
    a witness is a bi-infinite sequence with lambda <= t everywhere that
    contains the word, so no word it certifies can also have a refutation,
    and the depth of an "out" verdict is the same with or without the pads.
    The cheap depth-0 screen goes before the short pads because it decides
    most words that are out; tying the longer pads to the search depth keeps
    words refuted at depth <= 2 free of their work, and lets max_depth bound
    the pads as it bounds the search.

    t is anything Threshold.of accepts.  bound, when given, is the caller's
    position bound of the word over _word_tables(t, len(w)), as
    _enumerate_survivors yields it; it stands in for the depth-0 build.
    The module caches are functools.lru_cache objects with a finite
    maxsize, each with cache_clear(); the tail tables are cached by
    threshold and bucketed cap.
    """
    s = str(w)
    if not s:
        raise DomainError("membership of the empty word")
    if s.strip("12"):
        raise DomainError("membership of a word with digits other than 1 and 2: %r" % s)
    th = Threshold.of(t)
    tables = _word_tables(th, len(s))
    if bound is not None and bound[0] != s:
        raise DomainError("a position bound of %r given for %r" % (bound[0], s))

    cert = _family_witness(s, th)
    if cert is not None:
        return cert
    qmax = th.qmax
    t = th.value

    def screened(bound):
        """The context's position bound, or None when it is None or the
        forbidden-block rule refutes the context."""
        if bound is None or (qmax != 0 and _aabb_factor(bound[0], qmax) is not None):
            return None
        return bound

    root = screened(_bound_build(s, th, tables) if bound is None else bound)
    if root is None:
        return MembershipCertificate(Word(s), t, "out", refutation_depth=0)
    cert = _pad_witness(s, th, _PADS[0] + _PADS[1] + _PADS[2])
    if cert is not None:
        return cert
    frontier = [root]
    depth = 0
    max_refuted = 0
    while frontier:
        if 2 < depth < len(_PADS):
            cert = _pad_witness(s, th, _PADS[depth])
            if cert is not None:
                return cert
        if depth >= max_depth or len(frontier) > _MAX_FRONTIER:
            return MembershipCertificate(Word(s), t, "unresolved",
                                         refutation_depth=depth)
        nxt = []
        extend_left = depth % 2 == 1
        for bound in frontier:
            if extend_left:
                kids = (_bound_build(d + bound[0], th, tables) for d in "12")
            else:
                kids = _bound_children(bound, th, tables)
            for child in map(screened, kids):
                if child is None:
                    max_refuted = max(max_refuted, depth + 1)
                else:
                    nxt.append(child)
        frontier = nxt
        depth += 1
    return MembershipCertificate(Word(s), t, "out", refutation_depth=max_refuted)


# ------------------------------------------------------------- enumeration

def _enumerate_survivors(th, n, tables):
    """Prefix-tree branch and bound over {1,2}^n: yields the position bound
    (see _bound_build) of each length-n word whose bound survives, as the
    tree finds it.

    Both children of a prefix are grown from its bound in one pass over its
    live positions (_bound_children), so a prefix dies when it closes a
    banned interior odd run or some position's best-case lambda over
    admissible completions exceeds t, and only the positions not yet
    retired are re-evaluated.
    """
    stack = [b for b in (_bound_build(d, th, tables) for d in "12") if b is not None]
    while stack:
        bound = stack.pop()
        if len(bound[0]) == n:
            yield bound
            continue
        one, two = _bound_children(bound, th, tables)
        if one is not None:
            stack.append(one)
        if two is not None:
            stack.append(two)


def sigma_enumerate(t, n, max_depth=28):
    """The level-t language at length n, with per-word certificates;
    max_depth is membership's refutation depth.  The enumerator reads the
    tables membership reads (_word_tables), and each survivor's bound is
    handed to membership for its depth-0 screen as the enumerator finds it,
    so no bound outlives its one read."""
    if n < 1:
        raise DomainError("n must be >= 1")
    th = Threshold.of(t)
    words, unresolved = {}, {}
    for bound in _enumerate_survivors(th, n, _word_tables(th, n)):
        w = bound[0]
        cert = membership(Word(w), th, max_depth, bound=bound)
        if cert.verdict == "in":
            words[w] = cert
        elif cert.verdict == "unresolved":
            unresolved[w] = cert
    return LanguageSet(n, th.value, words, unresolved)


def sigma3_factors(n):
    """Length-n factors of the periodic family: the independent combinatorial
    generator for the t = 3 language.  It reads no Markov value: every family
    period has Markov value < 3, so each factor is "in" by its period."""
    if n < 1:
        raise DomainError("n must be >= 1")
    three = Threshold.of(Fraction(3))
    words = {w: _periodic_witness(period, off, w, three)
             for w, (period, off) in factor_witness_map(n).items()}
    return LanguageSet(n, three.value, words, {})


# ------------------------------------------------------ connecting sequences

CONNECT_KINDS = ("ab", "ba", "a-to-alphabet", "alphabet-to-b")


def connecting_sequence(kind, n, alphabet=None):
    """The Farey connecting sequences between periodic ends.

    'ab':  per(a)  kappa_1 ... kappa_|F_n|  per(b), the kappa being the Farey
    words of order n (endpoints included); 'ba' is its transpose.  The
    alphabet kinds truncate the chain at the alphabet's power word, and only
    they take an alphabet: given to 'ab' or 'ba', it raises DomainError.
    """
    if kind not in CONNECT_KINDS:
        raise DomainError("unknown connecting kind %r" % kind)
    if kind in ("a-to-alphabet", "alphabet-to-b"):
        if alphabet is None:
            raise DomainError("alphabet kinds need an alphabet")
    elif alphabet is not None:
        raise DomainError("kind %r takes no alphabet" % kind)
    if n < 1:
        raise DomainError("n must be >= 1")
    if kind == "ba":
        return connecting_sequence("ab", n).transpose()
    if kind == "ab":
        mid = "".join(str(w.to_word()) for w in farey_words(n))
        return BiSeq.make("2", "", mid, "1")
    cat = alphabet.concat()
    period = str(cat.to_word())
    to_alphabet = kind == "a-to-alphabet"
    target = alphabet.alpha + cat * n if to_alphabet else cat * n + alphabet.beta
    fw = farey_words(len(target))
    idx = next(i for i, w in enumerate(fw) if w.letters == target.letters)
    chain = fw[: idx + 1] if to_alphabet else fw[idx:]
    mid = "".join(str(w.to_word()) for w in chain)
    return BiSeq.make("2" if to_alphabet else period, "", mid,
                      period if to_alphabet else "1")
