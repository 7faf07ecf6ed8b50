"""Hausdorff-dimension brackets for cylinder systems and the near-3 asymptotics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath.libmp import (fone, from_rational, fzero, mpf_add, mpf_cmp, mpf_exp, mpf_mul,
                          round_ceiling, round_floor)

from . import lang
from .cf import IDENTITY, cf_matrix, lambda_range, log_bounds, mat_mul, periodic_fixpoint
from .errors import DomainError, EmptyLanguage
from .surd import refine

MORAN_TOL = Fraction(1, 10 ** 6)  # bisection width of each Moran root


@dataclass(frozen=True)
class DimBracket:
    """Certified two-sided bound for the dimension of a free-block limit set."""

    lower: float
    upper: float
    level: int
    word_count: int

    def width(self):
        return self.upper - self.lower

    def __contains__(self, x):
        return self.lower <= x <= self.upper


class _MoranSums:
    """The maps s -> 2**(adjust*s) * sum(len**s) of one set of exact cylinder
    lengths, adjust in {-1, +1}; every length is at most 1/2, so both maps
    are nonincreasing in s.

    Each length's logarithm is taken once: as a float for the guide, and as
    a floor and ceiling per precision for the certified signs, shared by
    both roots and by both ends of every enclosure.
    """

    def __init__(self, lengths):
        self.lengths = lengths
        self.logs = [math.log(num) - math.log(den) for num, den in lengths]
        self._logs_at = {}

    def guide(self, s, adjust):
        """Float guess of whether the map exceeds 1 at s (log-sum-exp);
        only ever used to choose which endpoints, and which enclosure end,
        to certify."""
        s = float(s)
        terms = [s * lg for lg in self.logs]
        top = max(terms)
        return adjust * s * math.log(2) + top + math.log(
            sum(math.exp(x - top) for x in terms)) > 0

    def sign(self, s, adjust):
        """Certified sign of the map minus 1 at rational s in (0, 1], by
        refinement of an outward enclosure.

        Only one end can decide: the lower end > 1 gives +1, the upper end
        < 1 gives -1.  So each precision first evaluates the end the guide
        expects to decide (the lower one where the guide says the map
        exceeds 1), and the other end only if that one does not.  An end
        rounds every operation in one direction at an explicit precision
        through mpmath.libmp, with no global precision: each log, of a
        length or of the factor 2**adjust, is cf.log_bounds, and exp,
        products and sums round alike.  Every length's log is negative, so
        s's upper end gives the lower end of each term and s's lower end
        its upper end; the factor's log, adjust * log(2), pairs the ends
        the same way when adjust < 0.
        """
        ends = [(round_floor, 1), (round_ceiling, -1)]
        if not self.guide(s, adjust):
            ends.reverse()

        def decide(bits):
            if bits not in self._logs_at:
                self._logs_at[bits] = [log_bounds(n, d, bits) for n, d in self.lengths]
            logs = self._logs_at[bits]
            s_ends = (from_rational(s.numerator, s.denominator, bits, round_floor),
                      from_rational(s.numerator, s.denominator, bits, round_ceiling))
            factor = log_bounds(2 ** max(adjust, 0), 2 ** max(-adjust, 0), bits)

            def end(rnd):
                up = rnd == round_ceiling
                s_term = s_ends[not up]
                total = fzero
                for pair in logs:
                    total = mpf_add(total, mpf_exp(mpf_mul(s_term, pair[up], bits, rnd), bits, rnd),
                                    bits, rnd)
                s_factor = s_ends[up] if adjust > 0 else s_term
                return mpf_mul(mpf_exp(mpf_mul(s_factor, factor[up], bits, rnd), bits, rnd),
                               total, bits, rnd)

            for rnd, sgn in ends:
                if mpf_cmp(end(rnd), fone) == sgn:
                    return sgn
            return None

        return refine(decide, 64)


def _bisect(above):
    """Dyadic bisection of [0, 1] down to width MORAN_TOL, moving lo to the
    midpoint where above(mid) holds and hi otherwise; returns (lo, hi)."""
    lo, hi = Fraction(0), Fraction(1)
    while hi - lo > MORAN_TOL:
        mid = (lo + hi) / 2
        if above(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _root(sums, adjust):
    """Root of 2**(adjust*s) * sum(len**s) = 1 on [0, 1], certified bisection.

    The map is nonincreasing in s with value = word count at s = 0, so the
    root is 0 for a single block (1 for the degenerate block of length 1/2,
    whose upper condition is identically one) and is capped at 1 otherwise.

    The float guide runs the bisection and only its final lo and hi are
    certified (lo = 0 needs no check: the guide never moved it); see
    moran_bracket for why that suffices.  The cap s = 1 is certified only
    when the guide ends at hi = 1, since the map is nonincreasing and a
    certified sign < 0 at any hi < 1 already puts it below 1 at s = 1.  If
    either endpoint fails, the bisection reruns on certified signs alone,
    after the check of s = 1.  Each certified sign evaluates the one
    enclosure end the guide expects to decide (the lower end at lo, the
    upper end at hi), and the other end only when that one fails.
    """
    if len(sums.lengths) == 1:
        num, den = sums.lengths[0]
        if adjust > 0 and 2 * num == den:
            return 1.0
        return 0.0
    lo, hi = _bisect(lambda s: sums.guide(s, adjust))
    if hi == 1 and sums.sign(hi, adjust) > 0:
        return 1.0
    if not ((lo == 0 or sums.sign(lo, adjust) > 0)
            and (hi == 1 or sums.sign(hi, adjust) < 0)):
        if sums.sign(Fraction(1), adjust) > 0:
            return 1.0
        lo, hi = _bisect(lambda s: sums.sign(s, adjust) > 0)
    return float((lo + hi) / 2)


def _block_set(blocks, caller):
    """The sorted distinct blocks and their common length.  No block raises
    EmptyLanguage; a block that is empty or not a word over {1, 2}, or
    blocks of unequal length, raise DomainError."""
    blocks = sorted({str(b) for b in blocks})
    if not blocks:
        raise EmptyLanguage("%s needs at least one word" % caller)
    for b in blocks:
        if not b or set(b) - {"1", "2"}:
            raise DomainError("blocks must be nonempty words over {1, 2}: %r" % b)
    m = len(blocks[0])
    if any(len(b) != m for b in blocks):
        raise DomainError("blocks must be of equal length")
    return blocks, m


def _cylinders(words, level):
    """Exact cylinder lengths (num, den) of the distinct equal-length blocks,
    sorted, refined first to all concatenations of length level if it is
    set; returns (lengths, block length).

    The concatenations are read as a prefix tree: G of each block is taken
    once, and each round multiplies every prefix's matrix by every block's,
    in itertools.product order; the last round keeps only the length
    1 / (g11 * (g10 + g11)) of each word, which is in lowest terms since
    det G = +-1.

    A repeated block adds nothing to the limit set; kept, it can put a root
    exactly on a bisection midpoint (["1", "1"]: the lower map is 1 at
    s = 1/2), where no interval enclosure decides the sign."""
    words, m = _block_set(words, "moran_bracket")
    k = 1
    if level is not None:
        if level < 1:
            raise DomainError("level must be >= 1")
        if level % m:
            raise DomainError("level must be a multiple of the block length")
        k = level // m
        if len(words) ** k > 1 << 22:
            raise DomainError("refinement too large")
        m = level
    blocks = [cf_matrix(w) for w in words]
    prefixes = [IDENTITY]
    for _ in range(k - 1):
        prefixes = [mat_mul(g, b) for g in prefixes for b in blocks]
    lengths = []
    for g in prefixes:
        for b in blocks:
            _, _, g10, g11 = mat_mul(g, b)
            lengths.append((1, g11 * (g10 + g11)))
    return lengths, m


def _upper(sums):
    """The upper root widened outward by MORAN_TOL, capped at 1."""
    return min(1.0, _root(sums, +1) + float(MORAN_TOL))


def moran_bracket(words, level=None):
    """Certified dimension bracket for the limit set of free concatenations
    of equal-length blocks.

    upper = root of 2**s  * sum |I(w)|**s = 1,
    lower = root of 2**-s * sum |I(w)|**s = 1,
    with the distortion constant 2 of cylinder quasi-multiplicativity.  With
    level set, the block set is refined to all concatenations of that length
    first.  Cylinder lengths are exact, and each root is widened outward by
    MORAN_TOL.

    Each root is a dyadic bisection of [0, 1] to width MORAN_TOL whose
    midpoints are decided by a float log-sum-exp guide; no float result is
    trusted.  Only the final lo and hi are certified by interval sums.  Both
    maps are nonincreasing in s, and every midpoint the guide sent to lo is
    <= lo and every one it sent to hi is >= hi.  So a certified sign > 0 at
    lo and < 0 at hi proves that the bisection on certified signs, which
    checks the cap s = 1 first, takes the same path and returns the same
    root: two certified sums per root instead of 21 (one, at s = 1, for a
    root capped at 1), and each sum evaluates only the enclosure end that
    decides it, the lower end at lo and the upper end at hi.  If the guide
    misled it at either endpoint, that root is bisected again on certified
    signs.  The refined cylinder lengths come from one matrix product per
    prefix of the block tree (see _cylinders).
    """
    lengths, m = _cylinders(words, level)
    sums = _MoranSums(lengths)
    upper = _upper(sums)
    lower = max(0.0, _root(sums, -1) - float(MORAN_TOL))
    if lower > upper:
        lower = upper
    return DimBracket(lower, upper, m, len(lengths))


def d_upper(t, m):
    """Certified upper bound for the spectrum dimension at threshold t:
    min(1, 2 * upper Moran root over the level-m language).  Unresolved words
    are included, which can only inflate the bound.  Only the upper root of
    the bracket is computed.  lang.sigma_enumerate is read at call time, so
    a caller that substitutes it (to keep or trace the language) is seen."""
    ls = lang.sigma_enumerate(t, m)
    words = sorted(ls.words) + sorted(ls.unresolved)
    if not words:
        return 0.0
    return min(1.0, 2.0 * _upper(_MoranSums(_cylinders(words, None)[0])))


def _tail_extremes(blocks):
    """Exact sup and inf of [0; X] over infinite free concatenations X of the
    blocks, for blocks of one parity.

    The block map x -> [0; b, x] preserves orientation iff |b| is even, so
    when every block has the same parity all maps share one orientation.
    Then sup = f_b(sup) for some b if they increase, and sup = f_b(inf),
    inf = f_c(sup) for some b, c if they decrease: the optimum is at most
    2-periodic in the blocks, the extreme fixed point over ordered block
    pairs.  With mixed parity this fails: the extremes are 2-periodic only
    after a preperiod of one block (for {2, 11} the least tail is
    [0; 2, (11)^inf], below every pair fixed point), so a caller must keep
    the parity equal; equal lengths guarantee it.
    """
    vals = [periodic_fixpoint(b1 + b2) for b1 in blocks for b2 in blocks]
    return max(vals), min(vals)


def certify_blocks(blocks, t):
    """True iff every position of every bi-infinite free concatenation of the
    blocks keeps lambda <= t; exact.

    Closed form: each position's sup of lambda is read off the exact tail
    extremes over block concatenations, so boundary thresholds (for example
    t equal to the system's Markov value) certify.  Those extremes are the
    pair fixed points of _tail_extremes only when all block maps share one
    orientation, that is, all blocks have the same parity; the equal-length
    check below guarantees it, and unequal lengths raise DomainError.  A
    text t is parsed once, on entry, by lang.parse_threshold.
    """
    if isinstance(t, str):
        t = lang.parse_threshold(t)
    blocks, m = _block_set(blocks, "certify_blocks")
    # a left tail, read leftward, is a concatenation of reversed blocks
    fwd, bwd = _tail_extremes(blocks), _tail_extremes([b[::-1] for b in blocks])
    return all(lambda_range(b, p, bwd, fwd)[1] <= t for b in blocks for p in range(m))


def lambert_inv(y):
    """Inverse of H(x) = x * e**x on the principal branch, for y >= -1/e:
    mpmath's principal Lambert W.  Its real part is taken, because a y
    within rounding of -1/e can fall just below it, where W has a tiny
    imaginary part."""
    y = float(y)
    if y < -math.exp(-1):
        raise DomainError("lambert_inv needs y >= -1/e")
    return float(mpmath.lambertw(y).real)


C0 = -math.log(math.log((3 + math.sqrt(5)) / 2))


def inverse_log(rho):
    """L = log(1/rho) of a float, int or Fraction rho > 0, from the logs of
    its numerator and denominator (a float is its own numerator), so that a
    rational rho below the float range, such as 6^-500, keeps its L."""
    num, den = (rho, 1) if isinstance(rho, float) else Fraction(rho).as_integer_ratio()
    if num <= 0:
        raise DomainError("rho must be positive: %s" % rho)
    return math.log(den) - math.log(num)


def d_asymptotic(rho):
    """d_asymptotic_at(log(1/rho)) for a float, int or Fraction rho."""
    return d_asymptotic_at(inverse_log(rho))


def d_asymptotic_at(L):
    """Main asymptotic term 2 * H^-1(e^c0 * L) / L of the spectrum dimension
    at 3 + rho, L = |log rho|, c0 = -log log((3+sqrt5)/2): a function of L
    alone, so a rho below the float range is given by its L."""
    if not L > 0:
        raise DomainError("d_asymptotic needs 0 < rho < 1")
    return 2.0 * lambert_inv(math.exp(C0) * L) / L


def thm2_bound(rho, C):
    """thm2_bound_at(log(1/rho), C) for a float, int or Fraction rho."""
    return thm2_bound_at(inverse_log(rho), C)


def thm2_bound_at(L, C):
    """(log L - log log L + C) / L at L = |log rho|, for rho < e^-e."""
    if not L > math.e:
        raise DomainError("thm2_bound needs rho < e^-e, that is |log rho| > e")
    return (math.log(L) - math.log(math.log(L)) + C) / L
