import math
import random
from fractions import Fraction

import mpmath
import pytest

from cfspectra.cf import (TAIL_MAX, TAIL_MIN, cylinder, cylinder_length, eval_cf,
                          extremal_image, extremal_tail, floor_exp, floor_log,
                          lambda_between, periodic_fixpoint, r_exponent, tail_image)
from cfspectra.dimension import _tail_extremes
from cfspectra.errors import DomainError
from cfspectra.surd import QuadSurd
from cfspectra.words import Word


def brute_cf(digits):
    """Independent oracle: plain back-substitution with Fractions."""
    acc = Fraction(0)
    for d in reversed(digits):
        acc = Fraction(1, int(d) + acc)
    return acc


def random_word(rng, n):
    return "".join(rng.choice("12") for _ in range(n))


def test_eval_cf_examples():
    assert eval_cf("2") == Fraction(1, 2)
    assert eval_cf("11") == Fraction(1, 2)
    # oracle value: 1/(2 + 1/2) = 2/5
    assert eval_cf("22") == brute_cf("22") == Fraction(2, 5)


def test_eval_cf_matches_brute_force():
    rng = random.Random(1)
    for _ in range(300):
        w = random_word(rng, rng.randrange(1, 25))
        assert eval_cf(w) == brute_cf(w)


def test_cylinder_examples():
    c = cylinder("1")
    assert (c.lo, c.hi, c.length) == (Fraction(1, 2), Fraction(1), Fraction(1, 2))
    c = cylinder("11")
    assert (c.lo, c.hi, c.length) == (Fraction(1, 2), Fraction(2, 3), Fraction(1, 6))
    # continuant oracle: q = 5, q' = 2, length 1/(5*7)
    c = cylinder("22")
    assert (c.lo, c.hi, c.length) == (Fraction(2, 5), Fraction(3, 7), Fraction(1, 35))


def test_cylinder_continuant_formula():
    rng = random.Random(2)
    for _ in range(200):
        w = random_word(rng, rng.randrange(1, 30))
        c = cylinder(w)
        # endpoints are [0;w] and the evaluation with the last digit bumped
        bumped = w[:-1] + ("2" if w[-1] == "1" else "3")
        ends = sorted([brute_cf(w), brute_cf(bumped)])
        assert [c.lo, c.hi] == ends
        assert c.length == cylinder_length(w)


def test_quasi_multiplicativity():
    rng = random.Random(3)
    for _ in range(200):
        w1 = random_word(rng, rng.randrange(1, 15))
        w2 = random_word(rng, rng.randrange(1, 15))
        a, b, ab = cylinder_length(w1), cylinder_length(w2), cylinder_length(w1 + w2)
        assert a * b / 2 < ab < 2 * a * b


def test_r_exponent_examples():
    assert r_exponent("11") == 1  # 1/|I| = 6 lies in [e, e^2)
    assert r_exponent("1") == 0
    assert r_exponent("2") == 1   # 1/|I| = 6 as well


def test_floor_log_at_integer_boundaries():
    # ln floor(e^k) falls short of k by less than e^-k, so deciding it takes
    # about 1.44 k bits
    with mpmath.workdps(120):
        tops = [int(mpmath.floor(mpmath.exp(k))) for k in range(1, 201)]
    for k, q in enumerate(tops, start=1):
        assert floor_log(q) == k - 1, k
        assert floor_log(q + 1) == k, k
    assert floor_log(1) == 0
    assert floor_log(Fraction(7, 2)) == 1
    with pytest.raises(DomainError):
        floor_log(Fraction(1, 2))
    # ln x is in (0, 2^-200): the lower end truncates to 0 from either side
    assert floor_log(1 + Fraction(1, 2 ** 200)) == 0


def test_floor_exp_matches_a_wide_floor():
    with mpmath.workdps(1000):
        tops = [int(mpmath.floor(mpmath.exp(k))) for k in range(1, 401)]
    assert [floor_exp(k) for k in range(1, 401)] == tops


@pytest.mark.parametrize("call", [
    lambda: eval_cf("13"),
    lambda: cylinder("x"),
    lambda: cylinder_length("3"),
    lambda: periodic_fixpoint("13"),
    lambda: r_exponent("x"),
    lambda: tail_image("3", TAIL_MAX),
    lambda: extremal_tail("3"),
    lambda: lambda_between("131", 1, TAIL_MIN, TAIL_MAX),
    lambda: lambda_between("3", 0, TAIL_MIN, TAIL_MAX),
], ids=["eval_cf", "cylinder", "cylinder_length", "periodic_fixpoint", "r_exponent",
        "tail_image", "extremal_tail", "lambda_between", "lambda_between_digit"])
def test_a_digit_other_than_1_or_2_is_refused(call):
    with pytest.raises(DomainError, match="digits must be 1 or 2"):
        call()


def test_r_exponent_growth_bounds():
    import math
    lo_rate = math.log((3 + math.sqrt(5)) / 2)
    hi_rate = math.log(3 + 2 * math.sqrt(2))
    rng = random.Random(4)
    for _ in range(100):
        w = random_word(rng, rng.randrange(1, 40))
        r = r_exponent(w)
        assert (len(w) - 3) * lo_rate - 1e-9 <= r <= (len(w) + 1) * hi_rate + 1e-9


def test_run_interval_closed_forms():
    # 1/|I(1^n)| follows the golden-ratio closed form exactly at index n;
    # the corresponding 2-run form is index-shifted: its value at n equals
    # 1/|I(2^(n-1))| (it gives 1 at n = 1 while 1/|I(2)| = 6).
    def power(x, k):
        return math.prod([x] * k, start=QuadSurd(1))

    phi, psi = QuadSurd(3, 1, 2, 5), QuadSurd(3, -1, 2, 5)  # (3 +- sqrt5)/2
    for n in range(1, 13):
        inv1 = Fraction(-1, 5) * (-1) ** (n + 1) \
            + QuadSurd(1, 1, 10, 5) * power(phi, n + 1) \
            - QuadSurd(-1, 1, 10, 5) * power(psi, n + 1)
        assert inv1 == 1 / cylinder_length("1" * n)
        inv2 = (power(QuadSurd(3, 2, 1, 2), n) - power(QuadSurd(3, -2, 1, 2), n)) \
            / QuadSurd(0, 4, 1, 2)
        if n == 1:
            assert inv2 == 1
        else:
            assert inv2 == 1 / cylinder_length("2" * (n - 1))


def test_periodic_values():
    assert periodic_fixpoint("1") == QuadSurd(-1, 1, 2, 5)
    assert periodic_fixpoint("2") == QuadSurd(-1, 1, 1, 2)
    assert 2 + tail_image("", periodic_fixpoint("2")) == QuadSurd(1, 1, 1, 2)
    # numeric oracle at high precision
    rng = random.Random(5)
    with mpmath.workdps(60):
        for _ in range(40):
            pre = random_word(rng, rng.randrange(0, 6))
            per = random_word(rng, rng.randrange(1, 8))
            val = tail_image(pre, periodic_fixpoint(per))
            seq = [int(c) for c in pre + per * 40]
            acc = mpmath.mpf(0)
            for d in reversed(seq):
                acc = 1 / (d + acc)
            assert abs(float(val) - float(acc)) < 1e-12


def test_extremal_tail_examples():
    # [0;(12)^inf] and [0;(21)^inf], the alternating periodic tails
    lo, hi = extremal_tail("")
    assert hi == QuadSurd(-1, 1, 1, 3) == periodic_fixpoint("12")
    assert lo == QuadSurd(-1, 1, 2, 3) == periodic_fixpoint("21")
    # one-step reciprocal monotonicity
    _, v2 = extremal_tail("2")
    assert v2 == 1 / (QuadSurd(-1, 1, 2, 3) + 2)


def test_extremal_tail_dominates_random_continuations():
    rng = random.Random(6)
    for _ in range(25):
        prefix = random_word(rng, rng.randrange(0, 10))
        lo, hi = extremal_tail(prefix)
        for _ in range(8):
            cont = random_word(rng, 200)
            v = brute_cf(prefix + cont)
            assert lo <= v <= hi
    # the parity rule over the tails of a block set, which certify_blocks
    # reads: extremal_image over [inf, sup] of the free block concatenations
    # bounds every eventually periodic concatenation after the prefix
    for _ in range(40):
        m = rng.randrange(1, 5)
        blocks = [random_word(rng, m) for _ in range(rng.randrange(1, 4))]
        sup, inf = _tail_extremes(blocks)
        prefix = random_word(rng, rng.randrange(0, 10))
        lo, hi = extremal_image(prefix, sup, inf)
        for _ in range(8):
            head = "".join(rng.choice(blocks) for _ in range(rng.randrange(0, 6)))
            period = "".join(rng.choice(blocks) for _ in range(rng.randrange(1, 4)))
            v = tail_image(prefix + head, periodic_fixpoint(period))
            assert lo <= v <= hi
