"""Exact arithmetic on quadratic surds and short sums of square roots.

Values are represented exactly: a QuadSurd is (p + q*sqrt(d))/r with integer
components, a SurdSum is a rational plus finitely many rational multiples of
square roots.  The library reaches a QuadSurd as an integer Moebius image of
another (cf._mobius forms the quotient from integers) and every certified
value from those by addition and comparison alone, so each type carries only
what that needs: both types add, subtract and order, with no product,
quotient or power.

Sign determination never rounds: radicands are merged whenever their product
is a perfect square (an integer-sqrt test, no factoring), after which the
remaining radicals are linearly independent over Q, so a nonzero sum
separates from zero under interval refinement.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

REFINE_CAP = 1 << 22  # bits


def refine(decide, bits):
    """decide(bits) at bits, 2*bits, 4*bits, ... until it returns non-None.

    decide answers from an outward enclosure at the given precision and
    returns None while the enclosure is too wide; the first answer is final,
    because a certified answer does not depend on the precision that found
    it.  Raises RuntimeError past REFINE_CAP bits.
    """
    while bits <= REFINE_CAP:
        got = decide(bits)
        if got is not None:
            return got
        bits *= 2
    raise RuntimeError("refinement undecided at %d bits" % REFINE_CAP)


def extract_square(d):
    """Return (s, core) with d = s*s*core, pulling out small square factors.

    core is not guaranteed squarefree (large square factors would require
    integer factoring); exactness elsewhere never relies on that.
    """
    if d < 0:
        raise ValueError("negative radicand")
    if d == 0:
        return 0, 1
    r = math.isqrt(d)
    if r * r == d:
        return r, 1
    s = 1
    for p in _SMALL_PRIMES:
        pp = p * p
        while d % pp == 0:
            d //= pp
            s *= p
    # a non-square d stays non-square once square factors are divided out
    return s, d


def _sqrt_bounds(d, bits):
    """Rational lo <= sqrt(d) <= hi at resolution 2**-bits."""
    scale = 1 << bits
    lo = math.isqrt(d * scale * scale)
    return Fraction(lo, scale), Fraction(lo + 1, scale)


def _merge_terms(pairs):
    """Canonicalize {radicand: coeff}: extract squares, merge commensurables;
    a term of radicand 0 is c*sqrt(0) = 0 and is dropped."""
    terms = {}
    anchors = []
    for d, c in pairs:
        if not c or not d:
            continue
        if d == 1:
            terms[1] = terms.get(1, Fraction(0)) + c
            continue
        s, core = extract_square(d)
        c = c * s
        if core == 1:
            terms[1] = terms.get(1, Fraction(0)) + c
            continue
        for a in anchors:
            prod = core * a
            r = math.isqrt(prod)
            if r * r == prod:
                # sqrt(core) = (r/a) * sqrt(a)
                terms[a] = terms.get(a, Fraction(0)) + c * Fraction(r, a)
                break
        else:
            anchors.append(core)
            terms[core] = terms.get(core, Fraction(0)) + c
    return {d: c for d, c in terms.items() if c}


class _Ordered:
    """==, <, <=, > and >= through one comparison, _cmp(other): the exact
    sign of self - other, read off the subclass's sign().  Every comparison
    takes exactly the exact operands, _EXACT, and declines the rest (a float
    or a str then raises TypeError when ordered).  A subclass that defines no
    __hash__ is unhashable."""

    __slots__ = ()

    def _cmp(self, other):
        return (self - other).sign()

    def __eq__(self, other):
        return self._cmp(other) == 0 if isinstance(other, _EXACT) else NotImplemented

    def __lt__(self, other):
        return self._cmp(other) < 0 if isinstance(other, _EXACT) else NotImplemented

    def __le__(self, other):
        return self._cmp(other) <= 0 if isinstance(other, _EXACT) else NotImplemented

    def __gt__(self, other):
        return self._cmp(other) > 0 if isinstance(other, _EXACT) else NotImplemented

    def __ge__(self, other):
        return self._cmp(other) >= 0 if isinstance(other, _EXACT) else NotImplemented


class SurdSum(_Ordered):
    """c0 + c1*sqrt(D1) + c2*sqrt(D2) + ... with rational coefficients.

    Markov/lambda values use at most two radicals; differences formed during
    comparisons may carry more, which this class supports uniformly.  Sums
    add, subtract, negate and order; *, / and ** raise TypeError.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        self._terms = _merge_terms((int(d), Fraction(c)) for d, c in terms)

    @classmethod
    def from_value(cls, x):
        if isinstance(x, SurdSum):
            return x
        if isinstance(x, QuadSurd):
            return x.to_sum()
        return cls({1: Fraction(x)})

    @property
    def terms(self):
        """Sorted (radicand, coefficient) pairs; radicand 1 is the rational part."""
        return tuple(sorted(self._terms.items()))

    def __add__(self, other):
        o = SurdSum.from_value(other)
        merged = dict(self._terms)
        for d, c in o._terms.items():
            merged[d] = merged.get(d, Fraction(0)) + c
        return SurdSum(merged)

    __radd__ = __add__

    def __neg__(self):
        return SurdSum({d: -c for d, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-SurdSum.from_value(other))

    def __rsub__(self, other):
        return SurdSum.from_value(other) - self

    def _bounds(self, bits):
        lo = hi = Fraction(0)
        for d, c in self._terms.items():
            if d == 1:
                lo += c
                hi += c
            else:
                slo, shi = _sqrt_bounds(d, bits)
                if c >= 0:
                    lo += c * slo
                    hi += c * shi
                else:
                    lo += c * shi
                    hi += c * slo
        return lo, hi

    def sign(self):
        """Exact sign in {-1, 0, 1}; terminates for every input."""
        if not self._terms:
            return 0
        if len(self._terms) == 1:
            ((_, c),) = self._terms.items()
            return (c > 0) - (c < 0)
        # >= 2 pairwise non-commensurable radicals: the value is nonzero
        return refine(self._sign_at, 32)

    def _sign_at(self, bits):
        lo, hi = self._bounds(bits)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        return None

    def __float__(self):
        """The float nearest the value: the enclosure is refined until both
        ends have one sign and round to the same float, which the value
        between them rounds to as well."""
        def decide(bits):
            lo, hi = self._bounds(bits)
            if (lo < 0) == (hi < 0) and float(lo) == float(hi):
                return float(lo)
            return None

        return refine(decide, 64)

    def decimal(self, digits=12):
        """Certified decimal string with the stated number of fractional
        digits (no point for 0 digits): the value truncated toward zero,
        signed as the value is, so a value in (-10^-digits, 0) prints as
        -0.00...0.  Raises ValueError for negative digits."""
        if digits < 0:
            raise ValueError("decimal needs digits >= 0, got %d" % digits)
        scale = 10 ** digits

        def decide(bits):
            lo, hi = self._bounds(bits)
            if lo < 0 < hi:
                return None  # the sign is not decided yet
            neg = lo < 0
            if neg:
                lo, hi = -hi, -lo
            a = math.floor(lo * scale)
            if a != math.floor(hi * scale):
                # a rational value has lo == hi; an irrational one is never
                # zero or on a decimal boundary, so refinement always separates
                return None
            sign = "-" if neg else ""
            if not digits:
                return "%s%d" % (sign, a)
            return "%s%d.%0*d" % (sign, a // scale, digits, a % scale)

        return refine(decide, 16)

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for d, c in self.terms:
            if d == 1:
                parts.append(str(c))
            elif c == 1:
                parts.append("√%d" % d)
            elif c == -1:
                parts.append("-√%d" % d)
            elif c.denominator == 1:
                parts.append("%d√%d" % (c.numerator, d))
            elif c.numerator == 1:
                parts.append("√%d/%d" % (d, c.denominator))
            else:
                parts.append("(%s)√%d" % (c, d))
        out = parts[0]
        for p in parts[1:]:
            out += (" - " + p[1:]) if p.startswith("-") else (" + " + p)
        return out

    def __repr__(self):
        return "SurdSum(%s)" % dict(self.terms)


class QuadSurd(_Ordered):
    """Exact (p + q*sqrt(d))/r with integer p, q, r and d >= 0, r > 0.

    Canonical form: gcd(p, q, r) = 1, r > 0, small square factors of d pulled
    into q, and q = 0 implies d = 0.  Total order is decidable exactly.  The
    components are read through operator.index, so a float or a Fraction
    raises TypeError; a rational value p/r is QuadSurd(p, 0, r).  A QuadSurd
    adds, subtracts and orders, with no product, quotient or power: + and -
    stay in the field Q(sqrt(d)), and across radicands give a SurdSum.  A
    quotient in the field is formed only as an integer Moebius image
    (cf._mobius).
    """

    __slots__ = ("p", "q", "r", "d")

    def __init__(self, p, q=0, r=1, d=0):
        p, q, r, d = map(operator.index, (p, q, r, d))
        if r == 0:
            raise ZeroDivisionError("zero denominator")
        if q:
            s, core = extract_square(d)
            q *= s
            d = core
            if d == 1:
                p += q
                q = 0
                d = 0
        if q == 0:
            d = 0
        if r < 0:
            p, q, r = -p, -q, -r
        g = math.gcd(math.gcd(abs(p), abs(q)), r)
        if g > 1:
            p, q, r = p // g, q // g, r // g
        self.p, self.q, self.r, self.d = p, q, r, d

    def to_sum(self):
        # a rational value has d = 0, whose term is dropped
        return SurdSum({1: Fraction(self.p, self.r), self.d: Fraction(self.q, self.r)})

    def _same_field(self, other):
        """Whether the QuadSurd other lies in this value's field."""
        return other.q == 0 or self.q == 0 or other.d == self.d

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            f = Fraction(other)
            return QuadSurd(self.p * f.denominator + f.numerator * self.r,
                            self.q * f.denominator, self.r * f.denominator, self.d)
        if isinstance(other, QuadSurd):
            if self._same_field(other):
                d = self.d or other.d
                return QuadSurd(self.p * other.r + other.p * self.r,
                                self.q * other.r + other.q * self.r,
                                self.r * other.r, d)
            return self.to_sum() + other.to_sum()
        if isinstance(other, SurdSum):
            return self.to_sum() + other
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QuadSurd(-self.p, -self.q, self.r, self.d)

    def __sub__(self, other):
        if isinstance(other, _EXACT):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def sign(self):
        if self.q == 0:
            return (self.p > 0) - (self.p < 0)
        if self.p == 0:
            return (self.q > 0) - (self.q < 0)
        if (self.p > 0) == (self.q > 0):
            return 1 if self.p > 0 else -1
        # p and q differ in sign, and p^2 != q^2 d as canonical d is not a
        # square: the term with the larger square dominates
        if self.p * self.p > self.q * self.q * self.d:
            return (self.p > 0) - (self.p < 0)
        return (self.q > 0) - (self.q < 0)

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.r))  # equal Fractions and ints agree
        # d may keep square factors above the small primes, so hash q*sqrt(d)/r
        # by its square and sign, which equal values share
        return hash((Fraction(self.p, self.r),
                     Fraction(self.q * self.q * self.d, self.r * self.r), self.q > 0))

    def __float__(self):
        return float(self.to_sum())

    def decimal(self, digits=12):
        return self.to_sum().decimal(digits)

    def __str__(self):
        return str(self.to_sum())

    def __repr__(self):
        return "QuadSurd(p=%d, q=%d, r=%d, d=%d)" % (self.p, self.q, self.r, self.d)


_EXACT = (SurdSum, QuadSurd, Fraction, int)  # the operands surds compare with
