import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfspectra.biseq import BiSeq, _markov_periodic, lambda_at, lambdas, markov_value
from cfspectra import biseq
from cfspectra.cf import lambda_range, periodic_fixpoint, tail_image
from cfspectra.surd import QuadSurd, SurdSum
from cfspectra.words import Word


def test_lambda_examples():
    assert (lambda_at(BiSeq.periodic("2"), 0) - QuadSurd(0, 1, 1, 8)).sign() == 0
    assert (lambda_at(BiSeq.periodic("1"), 5) - QuadSurd(0, 1, 1, 5)).sign() == 0
    s = BiSeq.make("1", "", "", "2")
    expect = QuadSurd(-1, 1, 2, 5) + 1 + QuadSurd(0, 1, 1, 2)
    assert (lambda_at(s, 0) - expect).sign() == 0


def test_markov_examples_exact():
    for period, target in (("11", QuadSurd(0, 1, 1, 5)),
                           ("22", QuadSurd(0, 1, 1, 8)),
                           ("2211", QuadSurd(0, 1, 5, 221))):
        v, attained, idx = markov_value(BiSeq.periodic(period))
        assert attained and (v - target.to_sum()).sign() == 0


def test_markov_mixed_attained_at_first_two():
    s = BiSeq.make("1", "", "", "2")
    v, attained, idx = markov_value(s)
    expect = QuadSurd(-1, 1, 2, 5) + 1 + QuadSurd(0, 1, 1, 2)
    assert attained and idx == 0 and (v - SurdSum.from_value(expect)).sign() == 0


def test_boundary_markov_exactly_three():
    # a^inf b a^inf and b^inf a b^inf both sit exactly at 3
    for seq in (BiSeq.make("2", "", "11", "2"), BiSeq.make("1", "", "22", "1")):
        v, attained, _ = markov_value(seq)
        assert attained and (v - Fraction(3)).sign() == 0


def test_markov_shift_and_transpose_invariance():
    rng = random.Random(12)
    for _ in range(20):
        s = BiSeq.make("".join(rng.choice("12") for _ in range(rng.randrange(1, 5))),
                       "".join(rng.choice("12") for _ in range(rng.randrange(0, 4))),
                       "".join(rng.choice("12") for _ in range(rng.randrange(0, 4))),
                       "".join(rng.choice("12") for _ in range(rng.randrange(1, 5))))
        v, att, idx = markov_value(s)
        for k in (-3, 2, 7):
            v2, att2, idx2 = markov_value(s.shift(k))
            assert (v2 - v).sign() == 0 and att2 == att
            if att:
                assert (lambda_at(s.shift(k), idx2) - v).sign() == 0
        vt, _, _ = markov_value(s.transpose())
        assert (vt - v).sign() == 0


def test_lambda_shift_identity():
    s = BiSeq.make("21", "112", "2", "122")
    for k in range(-15, 16):
        shifted = s.shift(k)
        for i in range(-12, 12):
            assert shifted.digit(i) == s.digit(i + k)
        for i in (-3, 0, 4):
            assert (lambda_at(shifted, i) - lambda_at(s, i + k)).sign() == 0


def test_digit_indexing_and_segments():
    s = BiSeq.make("12", "221", "1", "211")
    assert s.segment(0, 7) == "1211211"
    assert s.segment(-5, 0) == "12221"
    t = s.transpose()
    for i in range(-8, 8):
        assert t.digit(i) == s.digit(-1 - i)


def test_three_identity():
    # [2,2,z...] + [0;1,1,z...] = 3 for every tail z
    rng = random.Random(14)
    for _ in range(30):
        z = "".join(rng.choice("12") for _ in range(rng.randrange(1, 8)))
        fwd = 2 + tail_image("2", periodic_fixpoint(z))  # [2; 2, z...]

        bwd = tail_image("11", periodic_fixpoint(z))
        assert (SurdSum.from_value(fwd) + bwd - Fraction(3)).sign() == 0


def test_junction_value_slightly_above_three():
    # ...2222 | 2211 2211... exceeds 3 at the second position
    s = BiSeq.make("2", "", "", "2211")
    v, att, idx = markov_value(s)
    assert v > Fraction(3)
    assert (lambda_at(s, 1) - v).sign() == 0


# Oracle for markov_value: one candidate per phase of each periodic end, the
# phase's sup taken from its first two orbit terms past the window and its
# limit on the periodic sequence.  markov_value keeps only the limits, as the
# window already holds earlier terms of every such orbit.
def _phase_sup_reference(s, i0, step):
    v0 = lambda_at(s, i0)
    v1 = lambda_at(s, i0 + step)
    lim = lambda_at(BiSeq.periodic(s.right_period), (i0 - len(s.right_transient)) % step)
    if (v0 - v1).sign() >= 0:
        return v0, i0
    if step % 2 == 0:
        return lim, None  # increasing toward the periodic limit, never attained
    return v1, i0 + step


def _markov_value_reference(s):
    if (not s.left_transient and not s.right_transient
            and s.left_period.letters == s.right_period.letters):
        disc, c, i = _markov_periodic(s.right_period)
        return SurdSum({disc: Fraction(1, c)}), True, i
    nl, nr = len(s.left_period), len(s.right_period)
    lo = -(len(s.left_transient) + 2 * nl + 2)
    hi = len(s.right_transient) + 2 * nr + 2
    candidates = [(lambda_at(s, i), True, i) for i in range(lo, hi)]
    base = len(s.right_transient)
    for phi in range(nr):
        val, idx = _phase_sup_reference(s, hi + (base + phi - hi) % nr, nr)
        candidates.append((val, idx is not None, idx))
    t = s.transpose()
    tbase = len(t.right_transient)
    thi = tbase + 2 * nl + 2
    for phi in range(nl):
        val, idx = _phase_sup_reference(t, thi + (tbase + phi - thi) % nl, nl)
        candidates.append((val, idx is not None, None if idx is None else -1 - idx))
    best = None
    for val, att, idx in candidates:
        if best is None:
            best = (val, att, idx)
            continue
        c = (val - best[0]).sign()
        if c > 0 or (c == 0 and att and not best[1]):
            best = (val, att, idx)
    value, attained, index = best
    return value, attained, (index if attained else None)


_periods = st.one_of(
    st.text(alphabet="12", min_size=1, max_size=6),
    # non-primitive periods such as 1212
    st.builds(lambda p, k: p * k, st.text(alphabet="12", min_size=1, max_size=3),
              st.integers(2, 6)).filter(lambda p: len(p) <= 6))
_transients = st.text(alphabet="12", min_size=0, max_size=6)
_biseqs = st.one_of(
    st.builds(BiSeq.make, _periods, _transients, _transients, _periods),
    # equal ends
    st.builds(lambda p, l, r: BiSeq.make(p, l, r, p), _periods, _transients, _transients),
    # mirror-symmetric: equal to its transpose
    st.builds(lambda p, t: BiSeq.make(p[::-1], t[::-1], t, p), _periods, _transients))


@settings(max_examples=300, deadline=None)
@given(_biseqs)
@example(BiSeq.make("1212", "", "", "1212"))
@example(BiSeq.make("1212", "2", "", "21"))
@example(BiSeq.make("2", "", "11", "2"))
@example(BiSeq.make("2", "", "", "2211"))
@example(BiSeq.make("11", "", "", "1122"))
# the sup is an orbit's second term past the transient (odd period), on
# either side: a window one period shorter would miss it
@example(BiSeq.make("2", "222121", "11", "12122"))
@example(BiSeq.make("22121", "11", "121222", "2"))
def test_markov_value_matches_phase_sup_reference(s):
    value, attained, index = markov_value(s)
    ref_value, ref_attained, ref_index = _markov_value_reference(s)
    assert (str(value), attained, index) == (str(ref_value), ref_attained, ref_index)


def _mp(x):
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * mpmath.sqrt(d)
                       for d, c in SurdSum.from_value(x).terms)


def _lambda_truncated(s, i, depth=160):
    """lambda at position i from continued fractions cut after depth digits."""
    def tail(digits):  # [0; digits...]
        acc = mpmath.mpf(0)
        for d in reversed(digits):
            acc = 1 / (int(d) + acc)
        return acc
    fwd, bwd = s.segment(i + 1, i + 1 + depth), s.segment(i - depth, i)[::-1]
    return int(s.digit(i)) + tail(fwd) + tail(bwd)


def test_markov_value_against_truncated_cf():
    cases = [BiSeq.make("1", "", "", "2"), BiSeq.make("2", "", "", "2211"),
             BiSeq.make("21", "112", "2", "122"), BiSeq.make("1212", "2", "", "21"),
             BiSeq.make("11", "", "", "1122"), BiSeq.make("2211", "1", "22", "12")]
    with mpmath.workdps(60):
        for s in cases:
            value, attained, index = markov_value(s)
            numeric = max(_lambda_truncated(s, i) for i in range(-90, 90))
            assert abs(_mp(value) - numeric) < mpmath.mpf(10) ** -30
            if attained:
                assert abs(_mp(lambda_at(s, index)) - _mp(value)) < mpmath.mpf(10) ** -50
                assert abs(_lambda_truncated(s, index) - _mp(value)) < mpmath.mpf(10) ** -50


def _tail0_reference(s, i):
    """[0; s_i, s_{i+1}, ...]: the former BiSeq._tail0."""
    n, p = len(s.right_transient), s.right_period.letters
    k = (max(i, n) - n) % len(p)
    return tail_image(s.segment(i, n), periodic_fixpoint(p[k:] + p[:k]))


def _lambda_reference(s, i):
    """The former lambda_at: the forward tail as above, the backward one read
    the same way on the transposed sequence."""
    return SurdSum.from_value(_tail0_reference(s, i + 1) + int(s.digit(i))) \
        + _tail0_reference(s.transpose(), -i)


def test_lambda_and_markov_match_the_transpose_route(monkeypatch):
    """lambda_at and markov_value read every lambda off the lambdas sweep;
    the former route read the backward value through a transposed BiSeq.
    The same markov_value (repr, attained, index) on 400 seeded sequences,
    with the sweep replaced by that route in the reference run, and the same
    lambda_at repr at three positions of each, drawn from the window and
    past it on both sides.  The reference run must read the route it
    replaces: markov_value reads the sweep once per non-periodic sequence."""
    rng = random.Random(17)
    swept = []

    def reference(s, lo, hi):
        swept.append(s)
        return [_lambda_reference(s, i) for i in range(lo, hi)]

    def digits(lo, hi):
        return "".join(rng.choice("12") for _ in range(rng.randrange(lo, hi)))

    for _ in range(400):
        s = BiSeq.make(digits(1, 6), digits(0, 6), digits(0, 6), digits(1, 6))
        got = markov_value(s)
        with monkeypatch.context() as m:
            m.setattr(biseq, "lambdas", reference)
            ref = markov_value(s)
        assert swept == ([] if s.is_periodic() else [s])
        swept.clear()
        assert (repr(got[0]),) + got[1:] == (repr(ref[0]),) + ref[1:], s
        reach = 3 * (len(s.left_period) + len(s.right_period)) + 6
        for i in rng.sample(range(-len(s.left_transient) - reach,
                                  len(s.right_transient) + reach), 3):
            assert repr(lambda_at(s, i)) == repr(_lambda_reference(s, i)), (s, i)


def _lambda_between_reference(s, i):
    """The former lambda_at, before the sweep: lambda over the digits from
    the left transient (or i) to the right transient (or i), between the
    periodic tail values rotated to the phases where the digits stop, read
    by cf.lambda_range with the point hull of each tail."""
    nl, nr = len(s.left_transient), len(s.right_transient)
    lo, hi = min(i, -nl), max(i + 1, nr)
    p, q = s.right_period.letters, s.left_period.letters[::-1]
    k, j = (hi - nr) % len(p), (-lo - nl) % len(q)
    right = periodic_fixpoint(p[k:] + p[:k])
    left = periodic_fixpoint(q[j:] + q[:j])
    return lambda_range(s.segment(lo, hi), i - lo, (left, left), (right, right))[0]


@settings(max_examples=300, deadline=None)
@given(_biseqs, st.integers(-40, 40), st.integers(0, 12))
# windows inside the transients, past them on both sides, and single positions
@example(BiSeq.make("12", "2121", "1122", "221"), -3, 6)
@example(BiSeq.make("12", "2121", "1122", "221"), 37, 5)
@example(BiSeq.make("12", "2121", "1122", "221"), -45, 4)
@example(BiSeq.make("12", "2121", "1122", "221"), -6, 12)
@example(BiSeq.make("211", "", "", "2"), 0, 1)
@example(BiSeq.make("211", "", "", "2"), -1, 1)
@example(BiSeq.periodic("2211"), 0, 4)
@example(BiSeq.periodic("2211"), -9, 0)
def test_lambdas_match_lambda_between_position_by_position(s, lo, width):
    """lambdas(s, lo, hi) is, at each position, by repr, the former route's
    value: one QuadSurd when both ends lie in one field, else the SurdSum of
    the two."""
    got = lambdas(s, lo, lo + width)
    assert len(got) == width
    for k, value in enumerate(got):
        assert repr(value) == repr(_lambda_between_reference(s, lo + k)), (s, lo + k)


@settings(max_examples=100, deadline=None)
@given(_biseqs)
def test_markov_value_builds_two_periodic_fixpoints(s):
    """markov_value of a non-periodic sequence reads both periodic ends once,
    for the seeds of one sweep; a scan that rebuilt them per position made
    two calls for every window position."""
    calls = []
    real = biseq.periodic_fixpoint

    def spy(period):
        calls.append(period)
        return real(period)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(biseq, "periodic_fixpoint", spy)
        markov_value(s)
    assert len(calls) == (0 if s.is_periodic() else 2)


@settings(max_examples=100, deadline=None)
@given(st.text("12", min_size=1, max_size=16))
def test_lambdas_builds_three_quad_surds_per_position(period):
    """lambdas over one period of per(P) builds, per position, one backward
    image, one forward image and their sum, plus the two periodic seeds: at
    most 3p + 2 QuadSurds, where steps by reciprocals, 1/(d + y), build
    about 7 per position."""
    built = []
    real = QuadSurd.__init__

    def spy(self, *args):
        built.append(args)
        real(self, *args)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(QuadSurd, "__init__", spy)
        got = lambdas(BiSeq.periodic(period), 0, len(period))
    assert len(got) == len(period)
    assert len(built) <= 3 * len(period) + 2
