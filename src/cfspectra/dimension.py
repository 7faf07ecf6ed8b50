"""Hausdorff-dimension brackets for cylinder systems and the near-3 asymptotics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import mpmath

from .cf import cf_matrix, cylinder_length, apply_moebius, iv_prec, periodic_fixpoint
from .errors import DomainError, EmptyLanguage
from .surd import SurdSum, refine

MORAN_TOL = Fraction(1, 10 ** 6)  # bisection width of each Moran root
LAMBERT_TOL = 1e-12               # relative residual of lambert_inv


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


def _interval_pow(x_num, x_den, s):
    """Interval enclosure of (x_num/x_den)**s for exact integer inputs."""
    base = mpmath.iv.mpf(x_num) / mpmath.iv.mpf(x_den)
    return mpmath.iv.exp(mpmath.iv.mpf(s.numerator) / mpmath.iv.mpf(s.denominator)
                         * mpmath.iv.log(base))


def _sum_sign(lengths, s, adjust):
    """Sign of 2**(adjust*s) * sum(len**s) - 1 via interval refinement;
    s rational, adjust in {-1, +1}."""
    def decide(bits):
        with iv_prec(bits):
            total = _interval_pow(2 ** max(adjust, 0), 2 ** max(-adjust, 0), s)
            acc = mpmath.iv.mpf(0)
            for num, den in lengths:
                acc += _interval_pow(num, den, s)
            total = total * acc
            if total.a > 1:
                return 1
            if total.b < 1:
                return -1
        return None

    return refine(decide, 64)


def _root(lengths, adjust):
    """Root of 2**(adjust*s) * sum(len**s) = 1 on [0, 1], certified bisection.

    The map is nonincreasing in s with value = word count at s = 0, so the
    root is 0 for a single block (1 for the degenerate block of length 1/2,
    whose upper condition is identically one) and is capped at 1 otherwise.
    """
    if len(lengths) == 1:
        num, den = lengths[0]
        if adjust > 0 and 2 * num == den:
            return 1.0
        return 0.0
    lo, hi = Fraction(0), Fraction(1)
    if _sum_sign(lengths, hi, adjust) > 0:
        return 1.0
    while hi - lo > MORAN_TOL:
        mid = (lo + hi) / 2
        if _sum_sign(lengths, mid, adjust) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def moran_bracket(words, level=None):
    """Certified dimension bracket for the limit set of free concatenations
    of equal-length blocks.

    upper = root of 2**s  * sum |I(w)|**s = 1,
    lower = root of 2**-s * sum |I(w)|**s = 1,
    with the distortion constant 2 of cylinder quasi-multiplicativity.  With
    level set, the block set is refined to all concatenations of that length
    first.  Cylinder lengths are exact; the bisection is interval-certified
    to MORAN_TOL, and each root is widened outward by MORAN_TOL.
    """
    words = sorted(str(w) for w in words)
    if not words:
        raise EmptyLanguage("moran_bracket needs at least one word")
    m = len(words[0])
    if any(len(w) != m for w in words):
        raise DomainError("all blocks must have the same length")
    if level is not None:
        if level % m:
            raise DomainError("level must be a multiple of the block length")
        k = level // m
        if len(words) ** k > 1 << 22:
            raise DomainError("refinement too large")
        words = ["".join(t) for t in product(words, repeat=k)]
        m = level
    lengths = []
    for w in words:
        f = cylinder_length(w)
        lengths.append((f.numerator, f.denominator))
    upper = _root(lengths, +1)
    lower = _root(lengths, -1)
    slack = float(MORAN_TOL)
    lower = max(0.0, lower - slack)
    upper = min(1.0, upper + slack)
    if lower > upper:
        lower = upper
    return DimBracket(lower, upper, m, len(words))


def d_upper(t, m):
    """Certified upper bound for the spectrum dimension at threshold t:
    min(1, 2 * upper Moran root over the level-m language).  Unresolved words
    are included, which can only inflate the bound."""
    from .lang import sigma_enumerate
    ls = sigma_enumerate(t, m)
    words = sorted(ls.words) + sorted(ls.unresolved)
    if not words:
        return 0.0
    return min(1.0, 2.0 * moran_bracket(words).upper)


def _tail_extremes(blocks):
    """Exact sup and inf of [0; X] over infinite free concatenations X of the
    blocks: the optimum is at most 2-periodic in the blocks, so it is the
    extreme fixed point over ordered block pairs."""
    vals = [periodic_fixpoint(b1 + b2) for b1 in blocks for b2 in blocks]
    return max(vals), min(vals)


def certify_blocks(blocks, t):
    """True iff every position of every bi-infinite free concatenation of the
    blocks keeps lambda <= t; exact.

    Closed form: each position's sup of lambda is read off the exact tail
    extremes over block concatenations, so boundary thresholds (for example
    t equal to the system's Markov value) certify.
    """
    blocks = sorted(str(b) for b in blocks)
    if not blocks:
        raise EmptyLanguage("certify_blocks needs at least one block")
    m = len(blocks[0])
    if m == 0 or any(len(b) != m for b in blocks):
        raise DomainError("blocks must be nonempty and of equal length")
    t_sum = SurdSum.from_value(t)
    sup_f, inf_f = _tail_extremes(blocks)
    rev_blocks = [b[::-1] for b in blocks]
    sup_b, inf_b = _tail_extremes(rev_blocks)

    for b0 in blocks:
        for p in range(m):
            d = int(b0[p])
            # forward: rest of this block, then any block tail
            rest = b0[p + 1:]
            gf = cf_matrix(rest)
            x = sup_f if len(rest) % 2 == 0 else inf_f
            fwd = apply_moebius(gf, x) if rest else x
            # backward: reversed head of this block, then any reversed-block tail
            head = b0[:p][::-1]
            gb = cf_matrix(head)
            y = sup_b if len(head) % 2 == 0 else inf_b
            bwd = apply_moebius(gb, y) if head else y
            lam = SurdSum.from_value(fwd) + bwd + d
            if (lam - t_sum).sign() > 0:
                return False
    return True


def lambert_inv(y):
    """Inverse of H(x) = x * e**x on the principal branch, by guarded Newton.

    Requires y >= -1/e; the result satisfies
    |H(x) - y| <= LAMBERT_TOL * max(1, |y|).
    """
    y = float(y)
    if y < -math.exp(-1):
        raise DomainError("lambert_inv needs y >= -1/e")
    if y == 0.0:
        return 0.0
    # initial guess per range
    if y > math.e:
        x = math.log(y)
        x -= math.log(x)
    elif y > 0:
        x = y / math.e
    else:
        # -1/e <= y < 0: branch point series
        p = math.sqrt(2 * (1 + math.e * y))
        x = -1 + p - p * p / 3
    for _ in range(200):
        ex = math.exp(x)
        f = x * ex - y
        if abs(f) <= LAMBERT_TOL * max(1.0, abs(y)):
            return x
        d1 = ex * (x + 1)
        if d1 <= 0:
            x = x + 1e-9 if x >= -1 else -1 + 1e-9
            continue
        # Halley update; robust near the branch point x = -1
        step = f / (d1 - f * (x + 2) / (2 * (x + 1)))
        nxt = x - step
        if y >= 0 and nxt < 0:
            nxt = x / 2
        elif nxt < -1:
            nxt = (x - 1) / 2
        x = nxt
    raise ArithmeticError("lambert_inv failed to converge")  # pragma: no cover


C0 = -math.log(math.log((3 + math.sqrt(5)) / 2))


def d_asymptotic(rho):
    """Main asymptotic term 2 * H^-1(e^c0 * |log rho|) / |log rho| of the
    spectrum dimension at 3 + rho, c0 = -log log((3+sqrt5)/2)."""
    rho = float(rho)
    if not 0 < rho < 1:
        raise DomainError("d_asymptotic needs 0 < rho < 1")
    L = abs(math.log(rho))
    return 2.0 * lambert_inv(math.exp(C0) * L) / L


def thm2_bound(rho, C):
    """(log|log rho| - log log|log rho| + C) / |log rho|."""
    rho = float(rho)
    if not 0 < rho < 1:
        raise DomainError("thm2_bound needs 0 < rho < 1")
    L = abs(math.log(rho))
    if L <= math.e:
        raise DomainError("need |log rho| > e")
    return (math.log(L) - math.log(math.log(L)) + C) / L
