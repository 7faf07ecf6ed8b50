"""Exact continued-fraction arithmetic: cylinders, periodic values, tail images.

Everything runs through the 2x2 integer matrix of a digit word w = d1...dk,

    G(w) = G(d1) * ... * G(dk),   G(d) = ((0, 1), (1, d)),

for which [0; w, tail] = (g00*x + g01) / (g10*x + g11) where x = [0; tail].
In particular [0; w] = g01/g11 and |I(w)| = 1 / (g11 * (g10 + g11)).
Every exact value of a word continued by a known tail is that Moebius image,
tail_image, which _mobius forms as one QuadSurd from integers (the library's
one field quotient), every extremum over a hull of tails is extremal_image,
and the range of lambda at one position of a digit string over two hulls of
tails is lambda_range (lambda along an eventually periodic sequence is
biseq.lambdas, a chain of one-digit images).
"""

from __future__ import annotations

from fractions import Fraction

from mpmath.libmp import (from_int, from_rational, mpf_exp, mpf_log, round_ceiling, round_floor,
                          to_int)

from .errors import DomainError
from .surd import QuadSurd, refine
from .words import Word

IDENTITY = (1, 0, 0, 1)

# extremal {1,2}-tail values: max over tails of [0;tail] is [0;(12)^inf],
# min is [0;(21)^inf]
TAIL_MAX = QuadSurd(-1, 1, 1, 3)
TAIL_MIN = QuadSurd(-1, 1, 2, 3)
FREE_TAILS = (TAIL_MAX, TAIL_MIN)  # the hull of every tail, as (hi, lo)


def mat_mul(a, b):
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11,
            a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def cf_matrix(w):
    """G(w) for a digit word (Word or str); DomainError for a letter other
    than 1 or 2."""
    s = str(w)
    if s.strip("12"):
        raise DomainError("digits must be 1 or 2: %r" % s)
    g = IDENTITY
    for ch in s:
        g00, g01, g10, g11 = g
        d = 1 if ch == "1" else 2
        g = (g01, g00 + g01 * d, g11, g10 + g11 * d)
    return g


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


def log_bounds(num, den, bits):
    """Outward enclosure (lo, hi) of ln(num/den) at bits, for integers
    num, den >= 1, as mpmath.libmp values: the library's one log enclosure,
    read by floor_log and by dimension's Moran sums."""
    return (mpf_log(from_rational(num, den, bits, round_floor), bits, round_floor),
            mpf_log(from_rational(num, den, bits, round_ceiling), bits, round_ceiling))


def _certified_floor(bounds, bits):
    """floor(v) for an irrational v >= 0 from bounds(b), an outward pair of
    mpmath.libmp values at b = bits, 2*bits, ...: both ends are floored
    exactly by to_int(., round_floor), never through a float, and equal
    floors are floor(v).  v is irrational, so the ends separate from every
    integer."""
    def decide(b):
        lo, hi = (to_int(x, round_floor) for x in bounds(b))
        return lo if lo == hi else None

    return refine(decide, bits)


def floor_log(x):
    """floor(ln x) for a rational x >= 1, certified by directed rounding.

    ln x is irrational for rational x != 1, so the floor is always decidable.
    """
    x = Fraction(x)
    if x < 1:
        raise DomainError("floor_log needs x >= 1")
    if x == 1:
        return 0
    return _certified_floor(lambda b: log_bounds(x.numerator, x.denominator, b), 64)


def floor_exp(k):
    """floor(e^k) for an integer k >= 0, certified by directed rounding.

    e^k is irrational for k >= 1, so the floor is always decidable.  It has
    about 1.44 k bits, so the search starts at 64 + 2k bits.
    """
    if k < 0:
        raise DomainError("floor_exp needs k >= 0")
    if k == 0:
        return 1
    return _certified_floor(lambda b: (mpf_exp(from_int(k), b, round_floor),
                                       mpf_exp(from_int(k), b, round_ceiling)), 64 + 2 * k)


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
    # x = (g00 x + g01)/(g10 x + g11)  =>  g10 x^2 + (g11 - g00) x - g01 = 0;
    # g10, g01 >= 1 make the product of the roots negative, so the + root is
    # the one in (0, 1)
    a, b, c = g10, g11 - g00, -g01
    return QuadSurd(-b, 1, 2 * a, b * b - 4 * a * c)


def _mobius(g, x):
    """(g00*x + g01) / (g10*x + g11) for an integer matrix g and a QuadSurd
    x = (p + q*sqrt(d))/r, as one QuadSurd: the library's one field
    quotient.  With the numerator a + b*sqrt(d) and the denominator
    c + e*sqrt(d) of the integers a = g00*p + g01*r, b = g00*q,
    c = g10*p + g11*r and e = g10*q (the r's cancel), the image is
    ((a*c - b*e*d) + (b*c - a*e)*sqrt(d)) / (c^2 - e^2*d)."""
    g00, g01, g10, g11 = g
    p, q, r, d = x.p, x.q, x.r, x.d
    a, b, c, e = g00 * p + g01 * r, g00 * q, g10 * p + g11 * r, g10 * q
    return QuadSurd(a * c - b * e * d, b * c - a * e, c * c - e * e * d, d)


def tail_image(prefix, x):
    """[0; prefix, X] exactly, for a QuadSurd x = [0; X]: the Moebius image
    of x under G(prefix)."""
    s = str(prefix)
    return _mobius(cf_matrix(s), x) if s else x


def extremal_image(prefix, hi, lo):
    """(min, max) of [0; prefix, X] over the tails X with lo <= [0; X] <= hi,
    for QuadSurd bounds attained by some tail: the images of lo and hi under
    one G(prefix), which preserves their order iff the prefix has even
    length."""
    g = cf_matrix(prefix)
    a, b = _mobius(g, lo), _mobius(g, hi)
    return (a, b) if len(str(prefix)) % 2 == 0 else (b, a)


def digit_at(w, i):
    """The digit w[i] of a digit string as an int; DomainError unless it is
    1 or 2."""
    ch = w[i]
    if ch != "1" and ch != "2":
        raise DomainError("digits must be 1 or 2: %r at %d of %r" % (ch, i, w))
    return int(ch)


def lambda_range(w, i, left, right):
    """(min, max) of w_i + [0; w_{i+1}, ..., X] + [0; w_{i-1}, ..., w_0, X']
    over the tails X in the hull right and X', read leftward, in the hull
    left, exactly.  A hull is (hi, lo), attained tail values in the order of
    extremal_image; (x, x) is the one tail of value x."""
    d = digit_at(w, i)
    fmin, fmax = extremal_image(w[i + 1:], *right)
    bmin, bmax = extremal_image(w[:i][::-1], *left)
    return d + fmin + bmin, d + fmax + bmax


def extremal_tail(prefix):
    """(min, max) of [0; prefix, t...] over all infinite {1,2}-tails t: the
    free-tail case of extremal_image, whose bounds [0;(21)^inf] and
    [0;(12)^inf] are attained by the alternating periodic tails."""
    return extremal_image(prefix, *FREE_TAILS)
