import operator
import random
import signal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfspectra.surd import QuadSurd, SurdSum, extract_square, refine


def test_extract_square():
    assert extract_square(8) == (2, 2)
    assert extract_square(49) == (7, 1)
    assert extract_square(221) == (1, 221)
    assert extract_square(0) == (0, 1)


def test_canonical_forms():
    assert QuadSurd(2, 2, 4, 5).p == 1
    s = QuadSurd(0, 1, 1, 8)
    assert (s.q, s.d) == (2, 2)  # sqrt8 = 2 sqrt2
    assert QuadSurd(3, 0, 1, 7).d == 0
    # a QuadSurd prints as the SurdSum of its value
    assert str(QuadSurd(0, 1, 5, 221)) == "√221/5"
    assert str(QuadSurd(-1, 1, 2, 5)) == "-1/2 + √5/2"
    assert str(QuadSurd(1, 1, 1, 2)) == "1 + √2"


def test_equalities_across_representations():
    assert QuadSurd(0, 1, 1, 8) == QuadSurd(0, 2, 1, 2)
    assert SurdSum({8: 1}) == SurdSum({2: 2})
    assert SurdSum({12: 1}) == SurdSum({3: 2})
    assert QuadSurd(0, 1, 1, 5) != QuadSurd(0, 1, 1, 2)


def test_radicand_zero_is_zero():
    # c * sqrt(0) = 0, as QuadSurd(3, 5, 1, 0) reads 3
    assert SurdSum({0: 5}) == 0 and SurdSum({0: 5}).sign() == 0
    assert str(SurdSum({0: 5})) == "0"
    assert SurdSum({0: 5, 1: 2}) == QuadSurd(2) == QuadSurd(2, 5, 1, 0)


def test_arithmetic_and_division():
    g = QuadSurd(-1, 1, 2, 5)       # (sqrt5 - 1)/2
    assert g * g + g == 1           # golden identity x^2 + x = 1
    s = QuadSurd(-1, 1, 1, 2)       # sqrt2 - 1
    assert 1 / (2 + s) == s
    mixed = g + s
    assert isinstance(mixed, SurdSum)
    assert mixed == SurdSum({1: Fraction(-3, 2), 5: Fraction(1, 2), 2: 1})
    assert (mixed - g) == s.to_sum()


def test_rational_quad_surd_keeps_its_value_as_a_sum():
    assert QuadSurd(5, 0, 2).to_sum() == Fraction(5, 2)
    assert QuadSurd(3) + SurdSum({2: 1}) == SurdSum({1: 3, 2: 1})


def _raises_at_once(fn, seconds=5):
    """fn() raises TypeError, within the given seconds."""
    def stop(signum, frame):
        raise AssertionError("did not return within %d s" % seconds)

    old = signal.signal(signal.SIGALRM, stop)
    signal.alarm(seconds)
    try:
        with pytest.raises(TypeError):
            fn()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("op", [operator.mul, operator.truediv, operator.pow])
@pytest.mark.parametrize("a, b", [
    (SurdSum({2: 1, 3: 1}), SurdSum({5: 1})), (SurdSum({2: 1}), 2),
    (2, SurdSum({2: 1})), (QuadSurd(1, 1, 1, 2), SurdSum({3: 1})),
    (SurdSum({3: 1}), QuadSurd(1, 1, 1, 2))])
def test_surd_sums_have_no_product_quotient_or_power(op, a, b):
    _raises_at_once(lambda: op(a, b))


@pytest.mark.parametrize("op", [operator.mul, operator.truediv])
def test_quad_surds_multiply_and_divide_within_one_radicand(op):
    a, b = QuadSurd(1, 1, 1, 2), QuadSurd(1, 1, 1, 3)
    _raises_at_once(lambda: op(a, b))
    # a rational operand lies in every field
    assert op(a, QuadSurd(3)) == op(a, 3) == op(a, Fraction(3))
    assert op(a, QuadSurd(0, 1, 1, 8)) == op(a, QuadSurd(0, 2, 1, 2))


def test_reciprocal_of_a_four_term_sum_raises_at_once():
    # conjugating on sqrt6 keeps the radicands {1, 2, 3, 6}, so a quotient
    # by repeated conjugation never ends
    _raises_at_once(lambda: 1 / SurdSum({1: 1, 2: 1, 3: 1, 5: 1}))


def test_total_order_trichotomy():
    rng = random.Random(11)
    vals = []
    for _ in range(40):
        p = rng.randrange(-9, 10)
        q = rng.randrange(-5, 6)
        r = rng.randrange(1, 9)
        d = rng.choice((0, 2, 3, 5, 8, 221))
        vals.append(QuadSurd(p, q, r, d).to_sum())
    for a in vals[:20]:
        for b in vals[20:]:
            signs = [(a - b).sign() == 0, a < b, a > b]
            assert sum(signs) == 1


def test_sign_of_multi_radical_sums():
    # sqrt2 + sqrt3 vs sqrt5 + tiny: classic near-tie decided exactly
    a = SurdSum({2: 1, 3: 1})
    b = SurdSum({5: 1, 1: Fraction(9, 10)})
    assert a > SurdSum({5: 1})
    assert (a - b).sign() == (1 if float(a) > float(b) else -1)
    assert SurdSum({2: 1, 8: -Fraction(1, 2)}).sign() == 0


def test_decimal_shadow():
    v = QuadSurd(0, 1, 5, 221)
    assert v.decimal(7).startswith("2.9732137")
    assert abs(float(v) - 2.97321374946) < 1e-9


def test_decimal_prints_every_requested_digit():
    # every k prints exactly k fractional digits, all of them correct
    import mpmath
    for d in (2, 3, 5, 6, 7):
        v = SurdSum({d: 1})
        for k in range(150, 330):
            got = v.decimal(k)
            whole, _, frac = got.partition(".")
            assert len(frac) == k, (d, k, got)
            with mpmath.workdps(k + 30):
                want = int(mpmath.floor(mpmath.sqrt(d) * mpmath.mpf(10) ** k))
            assert int(whole + frac) == want, (d, k)


def test_decimal_truncates_negative_values_toward_zero():
    # the digits are those of |v|, truncated, with v's sign in front
    assert SurdSum({2: -1}).decimal(3) == "-1.414"
    assert SurdSum({1: Fraction(-1, 3)}).decimal(3) == "-0.333"
    assert SurdSum({1: Fraction(-1, 2)}).decimal(3) == "-0.500"
    assert QuadSurd(-1, -1, 2, 5).decimal(4) == "-1.6180"  # -(1 + √5)/2
    # values in (-10^-k, 0), one rational and one irrational
    assert SurdSum({1: Fraction(-1, 10 ** 5)}).decimal(3) == "-0.000"
    tiny = SurdSum({2: 1, 1: Fraction(-14143, 10000)})  # √2 - 1.4143 < 0
    assert tiny.sign() < 0 and tiny.decimal(3) == "-0.000"
    assert tiny.decimal(6) == "-0.000086"
    assert SurdSum({}).decimal(2) == "0.00" and (-tiny).decimal(6) == "0.000086"
    for d in (2, 3, 7):
        assert (-SurdSum({d: 1})).decimal(20) == "-" + SurdSum({d: 1}).decimal(20)

    # √2 - 665857/470832 ~ -1.6e-12: its enclosure straddles 0 at 16 and 32
    # bits, so decimal refines past an undecided sign
    near = SurdSum({2: 1, 1: Fraction(-665857, 470832)})
    assert near.decimal(20) == "-0.00000000000159486182"


def test_decimal_at_zero_and_negative_digits():
    assert SurdSum({10: 1}).decimal(0) == "3"
    assert SurdSum({2: -1}).decimal(0) == "-1"
    assert SurdSum({1: Fraction(-1, 3)}).decimal(0) == "-0"
    assert QuadSurd(1, 0, 3).decimal(0) == "0"
    for digits in (-1, -5):
        with pytest.raises(ValueError, match="digits >= 0"):
            SurdSum({10: 1}).decimal(digits)


def test_float_is_the_nearest_float_under_cancellation():
    # p/q the 60th convergent of √2: q√2 - p = 4.47e-24, far below the width
    # q * 2^-64 of a 64-bit enclosure, whose midpoint read -853.14
    p, q = 1, 1
    for _ in range(60):
        p, q = p + 2 * q, p + q
    with mpmath.workdps(80):
        want = float(q * mpmath.sqrt(2) - p)
    assert 4.47e-24 < want < 4.48e-24
    assert float(SurdSum({1: -p, 2: q})) == want
    assert float(QuadSurd(-p, q, 1, 2)) == want
    assert float(SurdSum({1: p, 2: -q})) == -want
    # mpmath's float() rounds to nearest, so the two agree exactly
    rng = random.Random(19)
    for _ in range(200):
        terms = {d: Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 3))
                 for d in rng.sample((1, 2, 3, 5, 6, 7), rng.randrange(1, 4))}
        with mpmath.workdps(120):
            want = float(mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
                                     for d, c in terms.items()))
        assert float(SurdSum(terms)) == want, terms


def test_hash_agrees_with_equality():
    assert QuadSurd(1, 0, 2) == Fraction(1, 2)
    assert len({QuadSurd(1, 0, 2), Fraction(1, 2)}) == 1
    assert hash(QuadSurd(3)) == 3
    # 20402 = 2 * 101**2 keeps its square factor (101 is not a small prime)
    a, b = QuadSurd(1, 1, 3, 20402), QuadSurd(1, 101, 3, 2)
    assert a == b and len({a, b}) == 1
    assert len({QuadSurd(0, 1, 1, 2), QuadSurd(0, -1, 1, 2)}) == 2


@pytest.mark.parametrize("value", [SurdSum({1: Fraction(3, 2)}), QuadSurd(3, 0, 2)],
                         ids=["SurdSum", "QuadSurd"])
def test_order_declines_what_equality_declines(value):
    """Ordering takes exactly the operands equality takes: a float or a str
    is neither equal nor ordered (TypeError), on either side."""
    orders = (operator.lt, operator.le, operator.gt, operator.ge)
    for other in (1.5, "2", "3/2"):
        assert value != other and not value == other
        for op in orders:
            with pytest.raises(TypeError):
                op(value, other)
            with pytest.raises(TypeError):
                op(other, value)
    for other in (Fraction(3, 2), QuadSurd(3, 0, 2), SurdSum({1: Fraction(3, 2)})):
        assert value == other and value <= other and value >= other
        assert not (value < other or value > other)
    assert value < 2 and 2 > value and value > 1 and 1 < value


def test_refine_doubles_until_decided_and_raises_past_the_cap():
    seen = []
    assert refine(lambda bits: seen.append(bits) or (bits if bits >= 256 else None),
                  32) == 256
    assert seen == [32, 64, 128, 256]
    with pytest.raises(RuntimeError):
        refine(lambda bits: None, 32)


_RADICANDS = (0, 2, 3, 5, 6, 8, 12, 221)

quad_surds = st.builds(QuadSurd, st.integers(-30, 30), st.integers(-6, 6),
                       st.integers(1, 12), st.sampled_from(_RADICANDS))
surd_sums = st.dictionaries(st.sampled_from((1,) + _RADICANDS[1:]),
                            st.fractions(min_value=-20, max_value=20,
                                         max_denominator=12),
                            max_size=3).map(SurdSum)
values = st.one_of(quad_surds, surd_sums)


def _mp(v):
    """The value at the working mpmath precision, read off its components."""
    if isinstance(v, QuadSurd):
        return (v.p + v.q * mpmath.sqrt(v.d)) / v.r
    return sum((mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
                for d, c in v.terms), mpmath.mpf(0))


@given(values, values)
def test_order_agrees_with_mpmath(a, b):
    with mpmath.workdps(300):
        diff = _mp(a) - _mp(b)
    if abs(diff) > mpmath.mpf(10) ** -280:
        assert (a < b) == (diff < 0) and (a > b) == (diff > 0)
        assert (a <= b) == (diff < 0) and (a >= b) == (diff > 0)
        assert a != b and b != a
    assert sum([a < b, a == b, a > b]) == 1


one_field = st.sampled_from(_RADICANDS).flatmap(lambda d: st.tuples(*[
    st.builds(QuadSurd, st.integers(-30, 30), st.integers(-6, 6),
              st.integers(1, 12), st.just(d))] * 3))


@given(one_field)
def test_field_identities(abc):
    a, b, c = abc
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if b != 0:
        assert (a * b) / b == a


@given(values, values, values)
def test_additive_identities(a, b, c):
    assert (a + b) - b == a
    assert (a + b) + c == a + (b + c)
    assert a - a == 0


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(quad_surds, quad_surds, rationals)
def test_quad_surd_orders_subtracts_and_prints_as_its_sum(x, y, f):
    # one comparison, one subtraction and one printed form for both types
    assert str(x) == str(x.to_sum())
    assert x == x.to_sum() and x.to_sum() == x
    assert (x < f) == (x.to_sum() < f) and (x > f) == (x.to_sum() > f)
    assert (x < y) == (x.to_sum() < y.to_sum())
    assert x - y == x.to_sum() - y.to_sum()
    assert x - f == x.to_sum() - f and f - x == f - x.to_sum()
