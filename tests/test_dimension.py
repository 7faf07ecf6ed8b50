import math
import random
from fractions import Fraction

import mpmath
import pytest

from cfspectra import lang
from cfspectra.cf import extremal_image, periodic_fixpoint, tail_image
from cfspectra.dimension import (C0, _tail_extremes, certify_blocks, d_asymptotic,
                                 d_upper, lambert_inv, moran_bracket, thm2_bound)
from cfspectra.errors import DomainError, EmptyLanguage
from cfspectra.lang import parse_threshold, sigma_enumerate
from cfspectra.surd import QuadSurd, SurdSum


def test_single_block_degenerate():
    b = moran_bracket(["2"])
    assert b.lower == 0.0 and b.upper <= 1e-5
    # the block "1" has |I| = 1/2, the upper condition degenerates to the cap
    b = moran_bracket(["1"])
    assert b.lower == 0.0 and b.upper == 1.0


def test_repeated_blocks_are_dropped():
    # with both copies kept, ["1", "1"] has a lower map of exactly 1 at the
    # first bisection midpoint s = 1/2, which no interval enclosure decides
    assert moran_bracket(["1", "1"], level=4) == moran_bracket(["1"], level=4)
    assert moran_bracket(["1", "1"]) == moran_bracket(["1"])
    assert moran_bracket(["2", "1", "2"], level=4) == moran_bracket(["1", "2"], level=4)


def test_full_language_brackets_nested():
    b4 = moran_bracket(["1", "2"], level=4)
    b8 = moran_bracket(["1", "2"], level=8)
    assert b4.lower <= b8.lower <= 0.5313 <= b8.upper <= b4.upper
    assert b8.word_count == 256 and b8.level == 8


def test_moran_guards():
    with pytest.raises(EmptyLanguage):
        moran_bracket([])
    with pytest.raises(DomainError):
        moran_bracket(["1", "22"])
    with pytest.raises(DomainError):
        moran_bracket(["12", "21"], level=5)
    for level in (0, -2):  # level 0 would be the one cylinder of the empty word
        with pytest.raises(DomainError, match="level must be >= 1"):
            moran_bracket(["1"], level=level)


def test_tail_extremes_need_blocks_of_one_parity():
    """The pair-fixed-point rule misses the extremes of mixed-parity block
    sets, whose extreme tails have a preperiod of one block; certify_blocks
    therefore keeps equal lengths."""
    sup, inf = _tail_extremes(["2", "11"])
    assert inf == QuadSurd(-2, 1, 3, 10)  # [0; (211)^inf] = 0.387425...
    least = tail_image("2", periodic_fixpoint("11"))  # [0; 2, (11)^inf]
    assert least == QuadSurd(3, -1, 2, 5) and least < inf  # 0.381966...
    sup, inf = _tail_extremes(["1", "22"])
    assert sup == QuadSurd(-5, 1, 6, 85)  # [0; (122)^inf] = 0.703257...
    greatest = tail_image("1", periodic_fixpoint("22"))  # [0; 1, (22)^inf]
    assert greatest == QuadSurd(0, 1, 2, 2) and greatest > sup  # √2/2
    for blocks in (["2", "11"], ["1", "22"]):
        with pytest.raises(DomainError, match="equal length"):
            certify_blocks(blocks, parse_threshold("sqrt(12)"))


@pytest.mark.parametrize("blocks", [["1", "3"], ["1", "x"], [""], ["12", ""]])
def test_blocks_must_be_nonempty_digit_words(blocks):
    with pytest.raises(DomainError, match="nonempty words over"):
        moran_bracket(blocks, level=4)
    with pytest.raises(DomainError, match="nonempty words over"):
        certify_blocks(blocks, Fraction(3))


def test_certify_blocks_examples():
    assert certify_blocks(["2211"], Fraction(3))
    assert not certify_blocks(["1122", "2211"], Fraction(3))
    s8 = QuadSurd(0, 1, 1, 8)
    assert certify_blocks(["2"], s8)
    assert not certify_blocks(["2"], s8 - Fraction(1, 10 ** 9))


def _certify_blocks_loop(blocks, t):
    """certify_blocks as a loop over the positions, each one's sup from
    extremal_image over the forward and backward block-tail extremes."""
    blocks = sorted(set(blocks))
    sup_f, inf_f = _tail_extremes(blocks)
    sup_b, inf_b = _tail_extremes([b[::-1] for b in blocks])
    for b0 in blocks:
        for p in range(len(b0)):
            _, fwd = extremal_image(b0[p + 1:], sup_f, inf_f)
            _, bwd = extremal_image(b0[:p][::-1], sup_b, inf_b)
            if fwd + bwd + int(b0[p]) > t:
                return False
    return True


def _blocks_sup(blocks):
    """The greatest position sup over the blocks, by the loop's route."""
    sup_f, inf_f = _tail_extremes(blocks)
    sup_b, inf_b = _tail_extremes([b[::-1] for b in blocks])
    return max((extremal_image(b[p + 1:], sup_f, inf_f)[1]
                + extremal_image(b[:p][::-1], sup_b, inf_b)[1] + int(b[p])
                for b in blocks for p in range(len(b))), key=SurdSum.from_value)


def test_certify_blocks_matches_the_position_loop():
    """Random block sets, at their exact sup (a tie, which certifies) and
    2^-k above and below it."""
    rng = random.Random(30)
    for _ in range(30):
        m = rng.randrange(1, 6)
        blocks = sorted({"".join(rng.choice("12") for _ in range(m))
                         for _ in range(rng.randrange(1, 4))})
        sup = SurdSum.from_value(_blocks_sup(blocks))
        assert certify_blocks(blocks, sup) and _certify_blocks_loop(blocks, sup)
        for k in (1, 10, 60):
            for t in (sup - Fraction(1, 2 ** k), sup + Fraction(1, 2 ** k)):
                assert certify_blocks(blocks, t) == _certify_blocks_loop(blocks, t) == (t > sup)


def test_certify_blocks_parses_a_text_threshold():
    blocks = ["2222", "2211"]
    assert certify_blocks(blocks, "3+6^-3") == certify_blocks(blocks, parse_threshold("3+6^-3"))
    assert certify_blocks(["2211"], "3") and not certify_blocks(["1122", "2211"], "3")


def test_d_upper_reads_the_language_at_call_time(monkeypatch):
    seen = []
    real = lang.sigma_enumerate

    def spy(t, m):
        seen.append((t, m))
        return real(t, m)

    monkeypatch.setattr(lang, "sigma_enumerate", spy)
    d_upper(Fraction(3), 6)
    assert seen == [(Fraction(3), 6)]


def test_refinement_too_large():
    # 2^23 concatenations of level 23 pass the 2^22 cap
    with pytest.raises(DomainError, match="refinement too large"):
        moran_bracket(["1", "2"], level=23)


def test_certified_blocks_give_lower_bounds():
    # a certified sub-system's doubled lower root stays below the language cap
    assert certify_blocks(["2211", "2121"[::-1]], parse_threshold("sqrt(12)"))
    b = moran_bracket(["2211", "1212"])
    assert 0.0 <= 2 * b.lower <= 1.0


def test_lambert_inv():
    assert lambert_inv(0.0) == 0.0
    assert abs(lambert_inv(math.e) - 1.0) < 1e-12
    rng = random.Random(51)
    for _ in range(100):
        y = rng.uniform(0, 1e6)
        x = lambert_inv(y)
        assert abs(x * math.exp(x) - y) <= 1e-12 * max(1.0, y)
    # negative branch down to -1/e
    y = -math.exp(-1) + 1e-9
    x = lambert_inv(y)
    assert abs(x * math.exp(x) - y) <= 1e-10
    with pytest.raises(DomainError):
        lambert_inv(-1.0)


def test_lambert_against_scipy():
    scipy = pytest.importorskip("scipy.special")
    for y in (0.5, 3.0, 100.0, 1e5):
        assert abs(lambert_inv(y) - float(scipy.lambertw(y).real)) < 1e-9


def test_lambert_inv_small_arguments():
    # W(y) = y - y^2 + ... is tiny here, so only a relative error tests it:
    # an absolute residual of 1e-12 is met by y/e at y = 1e-13
    for y in (1e-13, 1e-20, 1e-4, 0.25):
        with mpmath.workdps(50):
            want = float(mpmath.lambertw(y).real)
        assert abs(lambert_inv(y) - want) <= 4e-16 * want, y
    # d_asymptotic tends to 2 e^c0 = 2 / log((3 + √5)/2) as rho -> 1
    assert abs(d_asymptotic(1 - 1e-13) - 2 * math.exp(C0)) < 1e-9


def test_d_asymptotic_identity_and_monotonicity():
    rng = random.Random(52)
    for _ in range(30):
        rho = math.exp(-rng.uniform(8, 150))
        L = abs(math.log(rho))
        assert abs(d_asymptotic(rho) * L / 2 - lambert_inv(math.exp(C0) * L)) < 1e-9
    vals = [d_asymptotic(6.0 ** (-3 * n)) for n in range(2, 30)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        d_asymptotic(1.5)


def test_thm2_bound():
    v = thm2_bound(math.exp(-100), 0.0)
    assert abs(v - (math.log(100) - math.log(math.log(100))) / 100) < 1e-15
    assert abs(v - 0.0307793) <= 1e-6
    # C enters linearly with weight 1/|log rho|
    assert abs((thm2_bound(math.exp(-100), 2.0) - v) - 2.0 / 100) < 1e-12
    with pytest.raises(DomainError):
        thm2_bound(0.9, 0.0)  # |log rho| < e


def test_asymptotics_take_rho_below_the_float_range():
    # 6^-500 underflows a float; both values are functions of L = 500 ln 6
    rho = Fraction(1, 6 ** 500)
    L = 500 * math.log(6)
    assert abs(d_asymptotic(rho) - 2 * lambert_inv(math.exp(C0) * L) / L) < 1e-15
    assert abs(thm2_bound(rho, 1.0) - (math.log(L) - math.log(math.log(L)) + 1) / L) < 1e-15
    assert d_asymptotic(rho) < d_asymptotic(Fraction(1, 6 ** 18))
    for bad in (0, -1, Fraction(-1, 2), 1, Fraction(3, 2)):
        with pytest.raises(DomainError):
            d_asymptotic(bad)
        with pytest.raises(DomainError):
            thm2_bound(bad, 0.0)


def test_d_upper_cap_and_small_grid():
    assert d_upper(parse_threshold("sqrt(12)"), 8) == 1.0
    a = d_upper(parse_threshold("3+6^-6"), 8)
    b = d_upper(parse_threshold("3+6^-9"), 8)
    assert 0 < b <= a <= 1.0
    # d_upper computes only the upper root: the same value as the full bracket's
    ls = sigma_enumerate(parse_threshold("3+6^-6"), 8)
    assert a == min(1.0, 2.0 * moran_bracket(sorted(ls.words) + sorted(ls.unresolved)).upper)
