"""The fast kernels against the exact routes they replace: integer tables and
periodic Markov values, and the float-guided Moran roots."""

import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from cfspectra import dimension, lang
from cfspectra.biseq import BiSeq, _markov_periodic, lambda_at, markov_value
from cfspectra.cf import iv_prec
from cfspectra.surd import QuadSurd, SurdSum, refine


def _iterate_tables_reference(j1, j2, rounds, bits, warm=None):
    """The Fraction recurrence: each round maps every bound through
    x -> 1/(c + x) exactly, then rounds it outward to a multiple of 2**-bits."""
    scale = 1 << bits
    lo0 = Fraction(36602, 100000)
    hi0 = Fraction(73206, 100000)
    states = [("1", 0), ("2", 0)]
    states += [("1", L) for L in range(1, j1 + 1)]
    states += [("2", L) for L in range(1, j2 + 1)]
    m = {s: (warm._m.get(s, lo0) if warm else lo0) for s in states}
    big = {s: (warm._big.get(s, hi0) if warm else hi0) for s in states}
    trans = {}
    for s in states:
        d, L = s
        j = j1 if d == "1" else j2
        nxt_len = 0 if (L == 0 or L + 1 > j) else L + 1
        out = [(int(d), (d, nxt_len))]
        if L == 0 or L % 2 == 0:
            nd = "2" if d == "1" else "1"
            jn = j1 if nd == "1" else j2
            out.append((int(nd), (nd, 1 if jn >= 1 else 0)))
        trans[s] = out
    for _ in range(rounds):
        m2, big2 = {}, {}
        for s in states:
            lo = min(1 / (c + big[ns]) for c, ns in trans[s])
            hi = max(1 / (c + m[ns]) for c, ns in trans[s])
            m2[s] = Fraction(math.floor(lo * scale), scale)
            big2[s] = Fraction(math.ceil(hi * scale), scale)
        m, big = m2, big2
    return lang.TailTables(j1, j2, m, big)


def _same_tables(a, b):
    assert (a.j1, a.j2) == (b.j1, b.j2)
    assert a._m == b._m
    assert a._big == b._big


def test_free_tables_match_fraction_recurrence():
    _same_tables(lang._iterate_tables(0, 0, 120, 128),
                 _iterate_tables_reference(0, 0, 120, 128))


def test_warm_started_tables_match_fraction_recurrence():
    # the warm start hands over reduced Fractions of another scale
    cold = lang._iterate_tables(1, 1, 80, 160)
    _same_tables(cold, _iterate_tables_reference(1, 1, 80, 160))
    _same_tables(lang._iterate_tables(3, 1, 27, 172, warm=cold),
                 _iterate_tables_reference(3, 1, 27, 172, warm=cold))


def test_certified_tables_match_fraction_recurrence(monkeypatch):
    t = lang.parse_threshold("3+6^-6")
    lang._certified_tables.cache_clear()
    got = lang.tail_tables_for(t, 20)
    lang._certified_tables.cache_clear()
    monkeypatch.setattr(lang, "_iterate_tables", _iterate_tables_reference)
    want = lang.tail_tables_for(t, 20)
    lang._certified_tables.cache_clear()  # drop the reference-built tables
    assert got.j1 > 1 or got.j2 > 1  # the bootstrap admitted a longer ban
    _same_tables(got, want)


SQRT12 = QuadSurd(0, 2, 1, 3)
_thresholds = st.one_of(
    st.builds(lambda k, sign: 3 + sign * Fraction(1, 6 ** k),
              st.integers(0, 204), st.sampled_from([1, -1])),
    st.just(Fraction(306, 100)), st.just(SQRT12))


def _floor_below(t, den, h):
    """floor((t - 1/h) * den), or floor(t * den) for h = 0."""
    k = max(h, 1)
    if t == SQRT12:
        top = math.isqrt(12 * (den * k) ** 2)
    else:
        top = t.numerator * den * k // t.denominator
    return (top - (den if h else 0)) // k


def _sign(x, t):
    return (SurdSum.from_value(x) - SurdSum.from_value(t)).sign()


@settings(max_examples=300, deadline=None)
@given(_thresholds, st.integers(1, 1 << 700), st.integers(1, 1 << 700),
       st.integers(-2, 2), st.booleans())
def test_threshold_kernel_comparisons_are_exact(t, den, h, off, tie):
    """gt and plus_le against exact SurdSum comparison, next to t and at
    exact ties (a rational t then gives num/den = t and num/den + 1/h = t
    when off = 0)."""
    th = lang.Threshold.of(t)
    if tie and isinstance(t, Fraction):
        den *= t.denominator * h
    num = _floor_below(t, den, 0) + off
    assert th.gt(num, den) == (_sign(Fraction(num, den), t) > 0)
    num = _floor_below(t, den, h) + off
    assert th.plus_le(num, den, h) == (_sign(Fraction(num, den) + Fraction(1, h), t) <= 0)
    if tie and isinstance(t, Fraction) and off == 0:
        assert not th.gt(t.numerator * den // t.denominator, den)
        assert th.plus_le(num, den, h) and Fraction(num, den) + Fraction(1, h) == t


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="12", min_size=1, max_size=48))
def test_periodic_markov_matches_general_path(p):
    value, attained, idx = _markov_periodic(p)
    assert attained
    # a transient copy of the period sends the same sequence down the general path
    general, _, _ = markov_value(BiSeq.make(p, "", p, p))
    assert value == general
    seq = BiSeq.periodic(p)
    assert lambda_at(seq, idx) == value
    assert all(lambda_at(seq, j) < value for j in range(idx))  # first phase wins ties


def _interval_pow_reference(x_num, x_den, s):
    base = mpmath.iv.mpf(x_num) / mpmath.iv.mpf(x_den)
    return mpmath.iv.exp(mpmath.iv.mpf(s.numerator) / mpmath.iv.mpf(s.denominator)
                         * mpmath.iv.log(base))


def _sum_sign_reference(lengths, s, adjust):
    def decide(bits):
        with iv_prec(bits):
            total = _interval_pow_reference(2 ** max(adjust, 0), 2 ** max(-adjust, 0), s)
            acc = mpmath.iv.mpf(0)
            for num, den in lengths:
                acc += _interval_pow_reference(num, den, s)
            total = total * acc
            if total.a > 1:
                return 1
            if total.b < 1:
                return -1
        return None

    return refine(decide, 64)


def _root_reference(lengths, adjust):
    """The certified bisection: every midpoint decided by an interval sum."""
    if len(lengths) == 1:
        num, den = lengths[0]
        if adjust > 0 and 2 * num == den:
            return 1.0
        return 0.0
    lo, hi = Fraction(0), Fraction(1)
    if _sum_sign_reference(lengths, hi, adjust) > 0:
        return 1.0
    while hi - lo > dimension.MORAN_TOL:
        mid = (lo + hi) / 2
        if _sum_sign_reference(lengths, mid, adjust) > 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


_block_sets = st.integers(1, 5).flatmap(
    lambda m: st.lists(st.text(alphabet="12", min_size=m, max_size=m),
                       min_size=1, max_size=8, unique=True))


@settings(max_examples=40, deadline=None)
@given(_block_sets, st.sampled_from([-1, 1]))
def test_guided_root_matches_certified_bisection(blocks, adjust):
    lengths, _ = dimension._cylinders(blocks, None)
    assert (dimension._root(dimension._MoranSums(lengths), adjust)
            == _root_reference(lengths, adjust))


# (repr(lower), repr(upper)) of the certified bisection at every midpoint
PINNED_BRACKETS = [
    (["1", "2"], 4, "0.47450299398803714", "0.629606770111084"),
    (["1", "2"], 8, "0.5013575090637207", "0.5760798917541504"),
    (["1", "2"], 10, "0.5070719255676269", "0.5664859281311035"),
    (["2211", "1212"], None, "0.11631341116333008", "0.15159087045288086"),
    (["1"], None, "0.0", "1.0"),
    (["2"], None, "0.0", "1e-06"),
]


def test_brackets_pinned_to_certified_bisection():
    for blocks, level, lower, upper in PINNED_BRACKETS:
        b = dimension.moran_bracket(blocks, level=level)
        assert (repr(b.lower), repr(b.upper)) == (lower, upper), (blocks, level)


def test_lying_guide_falls_back_to_certified_bisection(monkeypatch):
    guide = dimension._MoranSums.guide
    lies = []

    def lie_once(self, s, adjust):
        honest = guide(self, s, adjust)
        if lies:
            return honest
        lies.append(s)
        return not honest

    sums = []
    sign = dimension._MoranSums.sign

    def counted(self, s, adjust):
        sums.append(s)
        return sign(self, s, adjust)

    monkeypatch.setattr(dimension._MoranSums, "guide", lie_once)
    monkeypatch.setattr(dimension._MoranSums, "sign", counted)
    b = dimension.moran_bracket(["1", "2"], level=8)
    assert lies == [Fraction(1, 2)]
    assert len(sums) > 6  # the misled root was bisected again on certified signs
    assert (repr(b.lower), repr(b.upper)) == ("0.5013575090637207", "0.5760798917541504")


def test_moran_bracket_makes_at_most_six_certified_sums(monkeypatch):
    evaluations = []

    def counted(decide, bits):
        def each(b):
            evaluations.append(b)
            return decide(b)
        return refine(each, bits)

    monkeypatch.setattr(dimension, "refine", counted)
    dimension.moran_bracket(["1", "2"], level=10)
    assert 0 < len(evaluations) <= 6
