"""Exact continued-fraction arithmetic: cylinders, periodic values, extremal tails.

Everything runs through the 2x2 integer matrix of a digit word w = d1...dk,

    G(w) = G(d1) * ... * G(dk),   G(d) = ((0, 1), (1, d)),

for which [0; w, tail] = (g00*x + g01) / (g10*x + g11) where x = [0; tail].
In particular [0; w] = g01/g11 and |I(w)| = 1 / (g11 * (g10 + g11)).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction

import mpmath

from .errors import DomainError
from .surd import QuadSurd, refine
from .words import Word

IDENTITY = (1, 0, 0, 1)

# extremal {1,2}-tail values: max over tails of [0;tail] is [0;(12)^inf],
# min is [0;(21)^inf]
TAIL_MAX = QuadSurd(-1, 1, 1, 3)
TAIL_MIN = QuadSurd(-1, 1, 2, 3)


def mat_mul(a, b):
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def cf_matrix(w):
    """G(w) for a digit word (Word or str)."""
    g = IDENTITY
    for ch in str(w):
        g00, g01, g10, g11 = g
        d = 1 if ch == "1" else 2
        g = (g01, g00 + g01 * d, g11, g10 + g11 * d)
    return g


def apply_moebius(g, x):
    """(g00*x + g01)/(g10*x + g11) for x a Fraction or QuadSurd."""
    g00, g01, g10, g11 = g
    if isinstance(x, Fraction):
        return Fraction(g00 * x.numerator + g01 * x.denominator,
                        g10 * x.numerator + g11 * x.denominator)
    num = QuadSurd(g00 * x.p + g01 * x.r, g00 * x.q, 1, x.d)
    den = QuadSurd(g10 * x.p + g11 * x.r, g10 * x.q, 1, x.d)
    return num / den


def eval_cf(w):
    """Exact value of [0; d1, ..., dk] for a nonempty digit word."""
    if not str(w):
        raise DomainError("eval_cf needs a nonempty word")
    g = cf_matrix(w)
    return Fraction(g[1], g[3])


class Cylinder:
    """The interval I(w) of reals in [0,1] whose continued fraction starts with w."""

    __slots__ = ("word", "lo", "hi", "length")

    def __init__(self, word, lo, hi):
        if lo >= hi:
            raise ValueError("cylinder endpoints out of order")
        self.word = word
        self.lo = lo
        self.hi = hi
        self.length = hi - lo

    def __repr__(self):
        return "Cylinder(%s, [%s, %s])" % (self.word, self.lo, self.hi)


def cylinder(w):
    """Exact cylinder of a nonempty digit word.

    The endpoints are [0;w] and [0;w'] where w' increments the last digit;
    equivalently G-images of tail values 0 and 1.
    """
    if not str(w):
        raise DomainError("cylinder needs a nonempty word")
    g = cf_matrix(w)
    a = Fraction(g[1], g[3])
    b = Fraction(g[0] + g[1], g[2] + g[3])
    lo, hi = (a, b) if a < b else (b, a)
    return Cylinder(w if isinstance(w, Word) else Word(str(w)), lo, hi)


def cylinder_length(w):
    g = cf_matrix(w)
    return Fraction(1, g[3] * (g[2] + g[3]))


@contextmanager
def iv_prec(bits):
    """Working precision of mpmath's interval context, which keeps its own
    precision apart from mpmath.workprec."""
    old = mpmath.iv.prec
    mpmath.iv.prec = bits
    try:
        yield
    finally:
        mpmath.iv.prec = old


def floor_log(x):
    """floor(ln x) for a rational x >= 1, certified by interval arithmetic.

    ln x is irrational for rational x != 1, so the floor is always decidable.
    Endpoints are positive except near x = 1, so math.floor, which goes
    through a float rounded toward zero, reads them exactly.
    """
    x = Fraction(x)
    if x < 1:
        raise DomainError("floor_log needs x >= 1")
    if x == 1:
        return 0

    def decide(bits):
        with iv_prec(bits):
            iv = mpmath.iv.log(mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator))
            lo, hi = math.floor(iv.a), math.floor(iv.b)
        return lo if lo == hi else None

    return refine(decide, 64)


def floor_exp(k):
    """floor(e^k) for an integer k >= 0, certified by interval arithmetic.

    e^k is irrational for k >= 1, so the floor is always decidable.  It has
    about 1.44 k bits, so the endpoints are read with the exact int() of an
    interval endpoint, never through a float or mpmath.floor, which rounds
    at mpmath's working precision.
    """
    if k < 0:
        raise DomainError("floor_exp needs k >= 0")
    if k == 0:
        return 1

    def decide(bits):
        with iv_prec(bits):
            iv = mpmath.iv.exp(k)
            lo, hi = int(iv.a), int(iv.b)
        return lo if lo == hi else None

    return refine(decide, 64 + 2 * k)


def r_exponent(w):
    """floor(ln(1/|I(w)|)); 1/|I(w)| is a positive integer."""
    g = cf_matrix(w)
    q = g[3] * (g[2] + g[3])
    if q < 1:
        raise DomainError("degenerate cylinder")
    return floor_log(q)


def periodic_fixpoint(period):
    """[0; overline(period)] as an exact QuadSurd, for a nonempty digit word."""
    s = str(period)
    if not s:
        raise DomainError("empty period")
    g00, g01, g10, g11 = cf_matrix(s)
    # x = (g00 x + g01)/(g10 x + g11)  =>  g10 x^2 + (g11 - g00) x - g01 = 0
    a, b, c = g10, g11 - g00, -g01
    disc = b * b - 4 * a * c
    root = QuadSurd(-b, 1, 2 * a, disc)
    if root.sign() <= 0:  # pick the root in (0, 1)
        root = QuadSurd(-b, -1, 2 * a, disc)
    return root


def eventually_periodic_value(head, period):
    """[0; head, overline(period)] exactly."""
    x = periodic_fixpoint(period)
    h = str(head)
    return apply_moebius(cf_matrix(h), x) if h else x


def periodic_cf_value(preperiod, period, integer_part=None):
    """Exact value of [0; preperiod, overline(period)].

    With integer_part = a0 the variant [a0; preperiod, overline(period)]
    is returned instead.
    """
    v = eventually_periodic_value(preperiod, period)
    if integer_part is not None:
        v = v + Fraction(int(integer_part))
    return v


def extremal_tail(prefix, mode):
    """Extremal value of [0; prefix, t...] over all infinite {1,2}-tails t.

    Returns (tail_period, value): the optimum is attained by the alternating
    periodic tail whose phase matches the prefix parity, and the value is the
    exact Moebius image of [0;(12)^inf] or [0;(21)^inf].
    """
    if mode not in ("max", "min"):
        raise DomainError("mode must be 'max' or 'min'")
    s = str(prefix)
    even = len(s) % 2 == 0  # G(prefix) preserves orientation iff even length
    want_max = (mode == "max") == even
    x = TAIL_MAX if want_max else TAIL_MIN
    tail = Word("12") if want_max else Word("21")
    value = apply_moebius(cf_matrix(s), x) if s else x
    return tail, value


