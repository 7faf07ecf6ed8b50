"""The fast kernels against the exact routes they replace: integer tables and
periodic Markov values, the refutation screens, membership with its
depth-tied self-closings, and the float-guided Moran roots."""

import functools
import itertools
import math
import random
from contextlib import contextmanager
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cfspectra import dimension, lang
from cfspectra.biseq import BiSeq, _markov_periodic, lambda_at, markov_value
from cfspectra.cf import (IDENTITY, cf_matrix, cylinder_length, floor_exp, floor_log, mat_mul,
                         r_exponent)
from cfspectra.errors import DomainError
from cfspectra.surd import QuadSurd, SurdSum, refine
from cfspectra.words import Word


def _transitions(j1, j2):
    states = [("1", 0), ("2", 0)]
    states += [("1", L) for L in range(1, j1 + 1)]
    states += [("2", L) for L in range(1, j2 + 1)]
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
    return trans


_SEED = (Fraction(36602, 100000), Fraction(73206, 100000))


def _iterate_tables_reference(j1, j2, bits):
    """The Fraction recurrence from the seed box until it stops changing:
    each round maps every bound through x -> 1/(c + x) exactly, then rounds
    it outward to a multiple of 2**-bits."""
    scale = 1 << bits
    trans = _transitions(j1, j2)
    m = dict.fromkeys(trans, _SEED[0])
    big = dict.fromkeys(trans, _SEED[1])
    while True:
        m2, big2 = {}, {}
        for s in trans:
            lo = min(1 / (c + big[ns]) for c, ns in trans[s])
            hi = max(1 / (c + m[ns]) for c, ns in trans[s])
            m2[s] = Fraction(math.floor(lo * scale), scale)
            big2[s] = Fraction(math.ceil(hi * scale), scale)
        if (m2, big2) == (m, big):
            break
        m, big = m2, big2
    return lang.TailTables(j1, j2, {s: (v.numerator, v.denominator) for s, v in m.items()},
                           {s: (v.numerator, v.denominator) for s, v in big.items()})


def _same_tables(a, b):
    """Same ban lengths and the same bound values at every junction."""
    assert (a.j1, a.j2) == (b.j1, b.j2)
    for d, j in (("1", a.j1), ("2", a.j2)):
        for runlen in range(1, j + 2):
            for bounded in (True, False):
                got, want = a.bounds(d, runlen, bounded), b.bounds(d, runlen, bounded)
                assert [Fraction(*x) for x in got] == [Fraction(*x) for x in want]


def test_free_tables_match_fraction_recurrence():
    _same_tables(lang._free_tables(), _iterate_tables_reference(0, 0, 128))


@pytest.mark.parametrize("j1, j2, bits", [(1, 1, 160), (3, 1, 172), (9, 5, 236),
                                          (49, 49, 396)])
def test_tables_are_the_fixed_point_of_the_fraction_recurrence(j1, j2, bits):
    _same_tables(lang._iterate_tables(j1, j2, bits),
                 _iterate_tables_reference(j1, j2, bits))


def test_one_round_from_the_seed_never_widens_a_bound():
    # the seed box is a post-fixpoint of the rounded map, which is what makes
    # the in-place sweeps narrow monotonically and stop
    lo0, hi0 = _SEED
    for j1, j2, bits in itertools.product((0, 1, 3, 9, 49), (0, 1, 3, 9, 49),
                                          (128, 160, 396)):
        scale = 1 << bits
        for out in _transitions(j1, j2).values():
            assert Fraction(math.floor(min(scale / (c + hi0) for c, _ in out)), scale) >= lo0
            assert Fraction(math.ceil(max(scale / (c + lo0) for c, _ in out)), scale) <= hi0


def _jacobi_tables(j1, j2, rounds, bits, warm=None):
    """The fixed-round integer iteration the sweeps replaced, with its warm
    start from the tables of a weaker ban set."""
    scale = 1 << bits
    lo0, hi0 = (36602, 100000), (73206, 100000)
    trans = _transitions(j1, j2)
    m = {s: warm._lo.get(s, lo0) if warm else lo0 for s in trans}
    big = {s: warm._hi.get(s, hi0) if warm else hi0 for s in trans}
    for _ in range(rounds):
        m2, big2 = {}, {}
        for s in trans:
            lo = hi = None
            for c, ns in trans[s]:
                p, q = big[ns]
                a = scale * q // (c * q + p)
                p, q = m[ns]
                b = -(-scale * q // (c * q + p))
                lo = a if lo is None or a < lo else lo
                hi = b if hi is None or b > hi else hi
            m2[s] = (lo, scale)
            big2[s] = (hi, scale)
        m, big = m2, big2
    return lang.TailTables(j1, j2, m, big)


def _bootstrap_reference(th, run_cap):
    """The ban bootstrap with its Jacobi rounds and warm starts, as it was
    before the tables were solved to their fixed point, each ban refuted by
    the reference position and bar scans."""
    if th.root or 50 * th.num > 153 * th.den:
        return _jacobi_tables(0, 0, 120, 128)
    j1 = j2 = 1
    tables = _jacobi_tables(1, 1, 80, 160)
    stall1 = stall2 = False
    while not (stall1 and stall2):
        before = (j1, j2)
        if not stall1:
            stall1 = (j1 + 2 > run_cap or
                      not _position_violation_reference("2" + "1" * (j1 + 2) + "2", th, tables))
            j1 += 0 if stall1 else 2
        if not stall2:
            stall2 = (j2 + 2 > run_cap or
                      not _position_violation_reference("1" + "2" * (j2 + 2) + "1", th, tables))
            j2 += 0 if stall2 else 2
        if (j1, j2) != before:
            jmax = max(j1, j2)
            tables = _jacobi_tables(j1, j2, 24 + jmax, 160 + 4 * jmax, warm=tables)
    jmax = max(j1, j2)
    return _jacobi_tables(j1, j2, 200 + 2 * jmax, 200 + 4 * jmax, warm=tables)


@pytest.mark.parametrize("t", ["3+6^-%d" % k for k in range(1, 13)]
                         + ["3", "3.05", "3.06", "sqrt(12)", "2.9"])
@pytest.mark.parametrize("cap", [20, 48])
def test_certified_tables_match_the_jacobi_bootstrap(t, cap):
    th = lang.Threshold.of(t)
    got = lang.tail_tables_for(th, cap)
    want = _bootstrap_reference(th, (cap + 15) // 16 * 16 + 1)
    assert (got.j1, got.j2, got._lo, got._hi) == (want.j1, want.j2, want._lo, want._hi)


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


# The refutation screens as they were before the block rule became one regular
# expression per alphabet pair and the bar scan was dropped as the position
# bound at the bar: the hand-rolled pair list, the depth-first block walk, and
# the separate bar scan over the word and its reversal.

@functools.lru_cache(maxsize=16)
def _alphabet_digit_pairs_reference(cap):
    out = []
    stack = [("a", "b")]
    while stack:
        a, b = stack.pop()
        if 2 * (len(a) + len(b)) > cap:
            continue
        out.append((a, b))
        stack.append((a + b, b))
        stack.append((a, a + b))
    out.sort(key=lambda p: (len(p[0]) + len(p[1]), p))
    pairs = []
    for a, b in out:
        A = "".join("22" if c == "a" else "11" for c in a)
        B = "".join("22" if c == "a" else "11" for c in b)
        pairs.append((A, B))
    return pairs


def _block_walk_reference(t, j, A, B):
    la, lb = len(A), len(B)
    seen = set()
    stack = [j]
    while stack:
        k = stack.pop()
        if k in seen or k >= len(t):
            continue
        seen.add(k)
        if t.startswith(B, k):
            if t.startswith(B, k + lb):
                return k + 2 * lb
            stack.append(k + lb)
        if t.startswith(A, k):
            stack.append(k + la)
    return None


def _aabb_factor_reference(s, rmax):
    for A, B in _alphabet_digit_pairs_reference((len(s) + 15) // 16 * 16):
        if 2 * (len(A) + len(B)) > len(s):
            continue
        AA = A + A
        for target in (s, s[::-1]):
            start = target.find(AA)
            while start >= 0:
                end = _block_walk_reference(target, start + 2 * len(A), A, B)
                if end is not None:
                    factor = target[start:end]
                    if rmax is None or r_exponent(factor) <= rmax:
                        return factor
                start = target.find(AA, start + 1)
    return None


def _image_range(g, lo, hi):
    """The least and the greatest of (g00 x + g01)/(g10 x + g11) at the tail
    bounds x = lo, hi (integer pairs), as integer pairs ordered by cross
    products: the image is monotone in x, so these are its extremes over
    [lo, hi]."""
    g00, g01, g10, g11 = g
    a, b = [(g00 * n + g01 * d, g10 * n + g11 * d) for n, d in (lo, hi)]
    return (a, b) if a[0] * b[1] <= b[0] * a[1] else (b, a)


def _exceeds(num, den, th):
    """num/den > t in Fraction arithmetic (sqrt(12), the one irrational
    threshold, by squares)."""
    v = Fraction(num, den)
    return v > 0 and v * v > 12 if th.root else v > th.value


def _bar_violations_reference(s, th, tables):
    if th.root:
        return False
    g11 = mat_mul((0, 1, 1, 1), (0, 1, 1, 1))
    for target in (s, s[::-1]):
        n = len(target)
        back = tables.bounds(*lang.TailTables.start_run(target))
        fwd = tables.bounds(*lang.TailTables.end_run(target))
        i = target.find("1122")
        while i >= 0:
            gx = g11
            for k in range(i - 1, -1, -1):
                gx = mat_mul(gx, (0, 1, 1, int(target[k])))
            gy = g11
            for k in range(i + 4, n):
                gy = mat_mul(gy, (0, 1, 1, int(target[k])))
            # 3 + [0;1,1,X...] - [0;1,1,Y...] at its least
            (ln, ld), (rn, rd) = _image_range(gx, *back)[0], _image_range(gy, *fwd)[1]
            if _exceeds(3 * ld * rd + ln * rd - rn * ld, ld * rd, th):
                return True
            i = target.find("1122", i + 1)
    return False


def _position_violation_reference(s, th, tables):
    """Every position's least value over the tail bounds, s[i] plus the
    least backward and forward images, against t in Fraction arithmetic;
    then the 11|22 bar scan."""
    if tables.has_banned_run(s):
        return True
    n = len(s)
    suffix = [None] * (n + 1)
    suffix[n] = IDENTITY
    for i in range(n - 1, -1, -1):
        suffix[i] = mat_mul((0, 1, 1, int(s[i])), suffix[i + 1])
    fwd = tables.bounds(*lang.TailTables.end_run(s))
    back = tables.bounds(*lang.TailTables.start_run(s))
    rev = IDENTITY
    for i in range(n):
        fn, fd = _image_range(suffix[i + 1], *fwd)[0]
        bn, bd = _image_range(rev, *back)[0]
        if _exceeds(int(s[i]) * bd * fd + bn * fd + fn * bd, bd * fd, th):
            return True
        rev = mat_mul((0, 1, 1, int(s[i])), rev)
    return _bar_violations_reference(s, th, tables)


def test_alphabet_digit_pairs_match_hand_rolled_tree():
    # the hand-rolled list bounds |A B| in letters; only pairs whose A A B B
    # fits in cap digits are kept now
    for cap in range(161):
        assert lang._alphabet_digit_pairs(cap) == [
            (A, B) for A, B in _alphabet_digit_pairs_reference(cap)
            if 2 * (len(A) + len(B)) <= cap]


def _digit_words(max_size):
    """{1,2}-words, and {11,22}-block words cut at any length."""
    blocks = st.lists(st.sampled_from(["11", "22"]), min_size=1,
                      max_size=(max_size + 1) // 2)
    return st.one_of(st.text(alphabet="12", min_size=1, max_size=max_size),
                     st.tuples(blocks, st.integers(1, max_size)).map(
                         lambda p: "".join(p[0])[:p[1]]))


def _block_words():
    """Words around some alpha^2 M beta^2 digit image, so that many
    examples hold a block factor (random words rarely do)."""
    core = st.sampled_from(_alphabet_digit_pairs_reference(24)).flatmap(
        lambda p: st.lists(st.sampled_from(p), max_size=10).map(
            lambda m: p[0] * 2 + "".join(m) + p[1] * 2))
    side = st.text(alphabet="12", max_size=8)
    return st.tuples(side, core, side).map(lambda parts: "".join(parts)[:140])


@settings(max_examples=400, deadline=None)
@given(st.one_of(_digit_words(140), _block_words()),
       st.sampled_from([None, -1] + list(range(21))))
@example("2222111122221111", None)
@example("1111222211112222", 3)
def test_block_factor_matches_block_walk(s, rmax):
    assert lang._aabb_factor(s, _qmax(rmax)) == _aabb_factor_reference(s, rmax)


def _qmax(rmax):
    """The cylinder-denominator cap of an exponent cap: r(w) <= rmax iff
    q(w) <= floor(e^(rmax+1)) for rmax >= 0 (e^(rmax+1) is irrational);
    None (no cap) and -1 (no block applies) map to None and 0."""
    return None if rmax is None else 0 if rmax == -1 else floor_exp(rmax + 1)


@pytest.mark.parametrize("rmax", list(range(13)) + [365])
def test_qmax_is_the_integer_form_of_the_exponent_cap(rmax):
    q = floor_exp(rmax + 1)
    assert floor_log(q) == rmax and floor_log(q + 1) == rmax + 1


def test_threshold_qmax():
    th = lang.Threshold.of("3+6^-204")
    rmax = floor_log(6 ** 204)
    assert rmax == 365 and th.qmax == floor_exp(366) and th.qmax.bit_length() == 529
    assert floor_log(th.qmax) == 365 and floor_log(th.qmax + 1) == 366
    assert lang.Threshold.of("sqrt(12)").qmax == 2  # r = 0: q < e
    assert lang.Threshold.of("3").qmax is None and lang.Threshold.of("4").qmax == 0
    assert floor_exp(0) == 1
    with pytest.raises(DomainError):
        floor_exp(-1)


def _block_factor_by_exponent(s, rmax):
    """_aabb_factor's scan with each factor's cap read through the interval
    r_exponent (the scan itself is checked against the block walk above)."""
    for A, B in lang._alphabet_digit_pairs((len(s) + 15) // 16 * 16):
        if 2 * (len(A) + len(B)) > len(s):
            break
        for target in (s, s[::-1]):
            for m in lang._block_pattern(A, B).finditer(target):
                if r_exponent(m[1]) <= rmax:
                    return m[1]
    return None


def test_block_factor_cap_matches_r_exponent_on_random_words():
    """The integer cap finds the factor that the interval r_exponent finds,
    on 3,000 words built around block images (and plain random words),
    at five thresholds.  Whether a word has a factor within the cap is
    monotone in the cap."""
    rng = random.Random(13)
    pairs = _alphabet_digit_pairs_reference(24)
    words = []
    for _ in range(3000):
        if rng.random() < 0.2:
            words.append("".join(rng.choice("12") for _ in range(rng.randrange(4, 40))))
            continue
        A, B = rng.choice(pairs)
        mid = "".join(rng.choice((A, B)) for _ in range(rng.randrange(4)))
        side = ["".join(rng.choice("12") for _ in range(rng.randrange(6))) for _ in "lr"]
        words.append((side[0] + A + A + mid + B + B + side[1])[:40])
    counts = []
    for t in ("3+6^-3", "3+6^-6", "3+6^-9", "3+6^-12", "3+6^-20"):
        th = lang.Threshold.of(t)
        rmax = floor_log(1 / (th.value - 3))
        assert th.qmax == floor_exp(rmax + 1)
        found = 0
        for w in words:
            got = lang._aabb_factor(w, th.qmax)
            assert got == _block_factor_by_exponent(w, rmax), (w, t)
            found += got is not None
        counts.append(found)
    assert counts == sorted(counts) and counts[0] < counts[1] < counts[-1]


def _aabb_factor_uncapped(s, qmax):
    """_aabb_factor's scan without the length cap: every alphabet pair whose
    factors fit s is scanned, and each factor found is held against qmax."""
    for A, B in lang._alphabet_digit_pairs((len(s) + 15) // 16 * 16):
        if 2 * (len(A) + len(B)) > len(s):
            break
        for target in (s, s[::-1]):
            for m in lang._block_pattern(A, B).finditer(target):
                if qmax is None:
                    return m[1]
                _, _, g10, g11 = cf_matrix(m[1])
                if g11 * (g10 + g11) <= qmax:
                    return m[1]
    return None


_CAPS = [None, 0] + [lang.Threshold.of("3+6^-%d" % k).qmax for k in range(1, 41)]


@settings(max_examples=600, deadline=None)
@given(st.one_of(_digit_words(60), _block_words().map(lambda w: w[:60])),
       st.sampled_from(_CAPS))
@example("2222111122221111", _CAPS[3])
@example("22221111", 0)
def test_block_rule_length_cap_keeps_every_factor(s, qmax):
    assert lang._aabb_factor(s, qmax) == _aabb_factor_uncapped(s, qmax)


def test_capped_length_is_the_least_length_past_the_cap():
    """Over every {1,2}-word of up to 12 digits: each word of L + 1 digits
    has q > qmax, and some word of L digits has q <= qmax (for L > 0)."""
    def q(w):
        _, _, g10, g11 = cf_matrix("".join(w))
        return g11 * (g10 + g11)

    least = [min(q(w) for w in itertools.product("12", repeat=n)) for n in range(13)]
    caps = list(range(least[12])) + [c for c in _CAPS if c is not None and c < least[12]]
    for qmax in caps:
        L = lang._capped_length(qmax)
        assert least[L + 1] > qmax and (L == 0 or least[L] <= qmax), qmax
    assert lang._capped_length(lang.Threshold.of("3+6^-3").qmax) == 6


def test_membership_requests_no_block_pattern_past_the_cap(monkeypatch):
    """At 3+6^-3 the cap is q <= 403, which no word of 7 digits meets, and
    the shortest block factor has 8: the block rule scans nothing."""
    requested = []
    real = lang._block_pattern

    def spy(A, B):
        requested.append((A, B))
        return real(A, B)

    monkeypatch.setattr(lang, "_block_pattern", spy)
    cert = lang.membership("111112211222", "3+6^-3", max_depth=4)
    assert requested == []
    assert (cert.verdict, cert.refutation_depth) == ("unresolved", 4)


_SCREEN_THRESHOLDS = ["3", "3+6^-6", "3+6^-204", "3.05", "sqrt(12)"]


@settings(max_examples=400, deadline=None)
@given(st.one_of(_digit_words(70),
                 st.lists(st.sampled_from(["11", "22", "1122", "2211"]),
                          min_size=1, max_size=20).map("".join)),
       st.sampled_from(_SCREEN_THRESHOLDS), st.sampled_from([8, 40, 70]))
@example("22221111", "3", 8)
@example("11112222", "3+6^-6", 40)
@example("1111112", "3", 8)
def test_position_pass_matches_position_and_bar_scans(s, t, cap):
    """The bar bound at a 1122 is the position bound at its first 2
    ([0;2,Y] = 1 - [0;1,1,Y]), so one pass gives the old verdict.

    A bound grown digit by digit from the first digit, each step taking the
    child of the next digit from _bound_children, is None exactly from the
    first prefix the reference scans reject.  Up to then it carries the
    whole build's string, matrices, runs and tail bounds, and every position
    live in both has the same base and forward matrix."""
    th = lang.Threshold.of(t)
    tables = lang.tail_tables_for(th, cap)
    assert ((lang._bound_build(s, th, tables) is None)
            == _position_violation_reference(s, th, tables))
    bound = lang._bound_build(s[0], th, tables)
    for k in range(1, len(s) + 1):
        if k > 1:
            bound = lang._bound_children(bound, th, tables)[int(s[k - 1]) - 1]
        assert (bound is None) == _position_violation_reference(s[:k], th, tables), k
        if bound is None:
            break
        whole = lang._bound_build(s[:k], th, tables)
        assert bound[:4] == whole[:4]
        live = {pos[0]: pos for pos in whole[4]}
        assert all(live.get(pos[0], pos) == pos for pos in bound[4]), k


# the position-bound kernel as it was when each child was grown by its own
# push, re-walking the parent's live positions: a bound built whole, checked
# after every position is formed, and grown by one digit


def _bound_build_reference(s, th, tables):
    if tables.has_banned_run(s):
        return None
    back = tables.bounds(*lang.TailTables.start_run(s))
    forward = [IDENTITY]
    for c in reversed(s[1:]):
        forward.append(mat_mul((0, 1, 1, int(c)), forward[-1]))
    forward.reverse()
    rev = IDENTITY
    live = []
    for i, c in enumerate(s):
        bn, bd = lang._min_tail_image(rev, i % 2, *back)
        beta = bn + (int(c) - 3) * bd
        live.append((i, beta, bd, (beta << lang.FIXED_BITS) // bd) + forward[i])
        rev = mat_mul((0, 1, 1, int(c)), rev)
    return _bound_check_reference(s, rev, lang.TailTables.end_run(s), back, live, th,
                                  tables)


def _bound_push_reference(bound, d, th, tables):
    s, rev, (e_d, e_r, e_b), back, live = bound
    if not e_b:
        return _bound_build_reference(s + d, th, tables)
    if d != e_d and tables.run_banned(e_d, e_r):
        return None
    c = int(d)
    bn, bd = lang._min_tail_image(rev, len(s) % 2, *back)
    grown = [(i, beta, b_d, fb, g01, g00 + c * g01, g11, g10 + c * g11)
             for i, beta, b_d, fb, g00, g01, g10, g11 in live]
    beta = bn + (c - 3) * bd
    grown.append((len(s), beta, bd, (beta << lang.FIXED_BITS) // bd) + IDENTITY)
    end = (d, e_r + 1 if d == e_d else 1, True)
    return _bound_check_reference(s + d, mat_mul((0, 1, 1, c), rev), end, back, grown,
                                  th, tables)


def _bound_check_reference(s, rev, end, back, live, th, tables):
    tails = tables.bounds(*end)
    last = len(s) - 1
    kept = []
    for pos in live:
        i, beta, bd, _, g00, g01, g10, g11 = pos
        xn, xd = tails[(last - i) % 2]
        fn, fd = g00 * xn + g01 * xd, g10 * xn + g11 * xd
        verdict = th.decide(beta * fd + fn * bd, bd * fd, g11 * (g10 + g11))
        if verdict > 0:
            return None
        if verdict == 0:
            kept.append(pos)
    return s, rev, end, back, kept


@settings(max_examples=400, deadline=None)
@given(st.one_of(_digit_words(60),
                 st.lists(st.sampled_from(["11", "22", "1122", "2211"]),
                          min_size=1, max_size=15).map("".join),
                 st.tuples(st.sampled_from("12"), st.integers(1, 20)).map(
                     lambda p: p[0] * p[1])),
       st.sampled_from(_SCREEN_THRESHOLDS + ["2.9", "3.2"]), st.sampled_from([8, 40, 70]))
@example("1111111", "3", 8)
@example("2222", "3+6^-6", 40)
@example("221", "2.9", 8)
def test_children_match_one_push_per_digit(s, t, cap):
    """Along s, every bound grown by the reference push has as children the
    reference pushes of 1 and 2: each is None exactly when that push is, and
    otherwise equals it tuple for tuple (string, reversed product, end run,
    backward tail bounds, live positions in order).  The walk starts at the
    first digit, so while s opens with one run the children are built
    whole, and the one that closes the run may be refuted by its new
    backward tails.  Each prefix's whole build is the reference build."""
    th = lang.Threshold.of(t)
    tables = lang.tail_tables_for(th, cap)
    bound = _bound_build_reference(s[0], th, tables)
    for k in range(1, len(s) + 1):
        if bound is None:
            break
        assert lang._bound_children(bound, th, tables) == tuple(
            _bound_push_reference(bound, d, th, tables) for d in "12"), k
        assert lang._bound_build(s[:k], th, tables) == _bound_build_reference(s[:k], th, tables)
        if k < len(s):
            bound = _bound_push_reference(bound, s[k], th, tables)


@pytest.mark.parametrize("t", ["3", "3+6^-6", "3+6^-204", "3.05", "3.2", "2.9",
                               "sqrt(12)"])
def test_enumerator_keeps_exactly_the_unrefuted_words(t):
    """The prefix tree grows each bound on the right and retires positions,
    and it keeps exactly the words the reference scans let through; each
    survivor's string is read from its returned bound."""
    th = lang.Threshold.of(t)
    for n in range(1, 13):
        tables = lang.tail_tables_for(th, n)
        want = {w for w in map("".join, itertools.product("12", repeat=n))
                if not _position_violation_reference(w, th, tables)}
        assert {b[0] for b in lang._enumerate_survivors(th, n, tables)} == want, n


@pytest.mark.parametrize("t, lengths", [("3+6^-6", range(9, 17)),
                                        ("3+6^-3", range(9, 17)),
                                        ("3+6^-204", [41])])
def test_survivor_bounds_change_no_certificate(t, lengths, monkeypatch):
    """sigma_enumerate hands each survivor's bound to membership, read over
    the tables membership reads (_word_tables): the bound agrees with the
    whole build there, except that it may have retired more positions.
    Every certificate membership gives back, "out" ones included, is the
    one it gives the survivor alone, building the bound itself; so are the
    rows of the returned language.  At these lengths n and n + 8 fell into
    different table buckets before the enumerator read membership's
    tables."""
    th = lang.Threshold.of(t)
    alone = lang.membership
    for n in lengths:
        handed = {}
        tables = lang._word_tables(th, n)

        def recorded(w, *args, bound=None, **kwargs):
            whole = lang._bound_build(str(w), th, tables)
            assert bound[:4] == whole[:4] and len(bound[4]) <= len(whole[4])
            cert = alone(w, *args, bound=bound, **kwargs)
            handed[str(w)] = cert.row()
            return cert

        monkeypatch.setattr(lang, "membership", recorded)
        got = lang.sigma_enumerate(th, n, max_depth=10)
        monkeypatch.setattr(lang, "membership", alone)
        assert handed == {w: alone(w, th, 10).row() for w in handed}, n
        assert all(handed[w] == got.words[w].row() for w in got.words)
        assert all(handed[w] == got.unresolved[w].row() for w in got.unresolved)
        assert {w for w, row in handed.items() if row[1] != "out"} == (
            set(got.words) | set(got.unresolved))
    w = min(handed)  # a bound is of one word
    with pytest.raises(DomainError):
        lang.membership("1" + w, th, bound=lang._bound_build(w, th, tables))


# membership as it was before the self-closings grew with the refutation
# depth: the seven short pads before the refutation, then the search alone;
# each pad is checked through markov_value and SurdSum, not the kernel form,
# and each context is screened by the reference position and bar scans

def _membership_reference(w, t, max_depth=28):
    s = str(w)
    if not s:
        raise DomainError("membership of the empty word")
    th = lang.Threshold.of(t)
    tables = lang.tail_tables_for(th, len(s) + 8)

    cert = lang._family_witness(s, th)
    if cert is not None:
        return cert
    for pad in ("", "1", "2", "12", "21", "11", "22"):
        period = s + pad
        val, _, _ = markov_value(BiSeq.periodic(period))
        if (val - SurdSum.from_value(th.value)).sign() <= 0:
            return lang.MembershipCertificate(Word(s), th.value, "in",
                                              BiSeq.periodic(period))

    t = th.value

    def refuted(ctx):
        if _position_violation_reference(ctx, th, tables):
            return True
        return th.qmax != 0 and lang._aabb_factor(ctx, th.qmax) is not None

    if refuted(s):
        return lang.MembershipCertificate(Word(s), t, "out", refutation_depth=0)
    frontier = [("", "")]
    depth = 0
    max_refuted = 0
    while frontier:
        if depth >= max_depth or len(frontier) > 8192:
            return lang.MembershipCertificate(Word(s), t, "unresolved",
                                              refutation_depth=depth)
        nxt = []
        extend_left = depth % 2 == 1
        for l, r in frontier:
            for d in "12":
                l2, r2 = (d + l, r) if extend_left else (l, r + d)
                if refuted(l2 + s + r2):
                    max_refuted = max(max_refuted, depth + 1)
                else:
                    nxt.append((l2, r2))
        frontier = nxt
        depth += 1
    return lang.MembershipCertificate(Word(s), t, "out", refutation_depth=max_refuted)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="12", min_size=4, max_size=20),
       st.sampled_from(["3", "3+6^-6", "3+6^-204"]))
@example("112222222112", "3+6^-6")
@example("2211", "3")
def test_pad_witnesses_only_resolve_unresolved_words(s, t):
    """"in" and "out" rows are the reference's; an unresolved reference row
    either stays unresolved or turns "in" with a witness that verifies."""
    want = _membership_reference(s, t)
    got = lang.membership(s, t)
    if want.verdict == "unresolved" and got.verdict == "in":
        assert got.verify()
    else:
        assert got.row() == want.row()


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


def _decision_reference(th, x, den, h):
    """Threshold.decide by Fraction arithmetic, compared exactly with t (a
    Fraction, or the QuadSurd sqrt(12)): 1 when v = 3 + x/den exceeds t, -1
    when v + 1/h <= t, else 0."""
    v = 3 + Fraction(x, den)
    w = v + Fraction(1, h)
    return 1 if v > th.value else -1 if w <= th.value else 0


@settings(max_examples=300, deadline=None)
@given(_thresholds, st.integers(1, 1 << 700), st.integers(1, 1 << 700),
       st.integers(-2, 2), st.booleans())
def test_threshold_kernel_comparisons_are_exact(t, den, h, off, tie):
    """decide and root_le against exact SurdSum comparison, with v or
    v + 1/h next to t, and at exact ties (a rational t then gives v = t,
    which is live, and v + 1/h = t, which retires, when off = 0;
    sqrt(D)/c = t takes D = (t c)^2, and sqrt(12) is sqrt(12 c^2)/c)."""
    th = lang.Threshold.of(t)
    if tie and isinstance(t, Fraction):
        den *= t.denominator * h
    for near in (0, h):  # v next to t, then v + 1/h next to t
        x = _floor_below(t, den, near) - 3 * den + off
        v = 3 + Fraction(x, den)
        want = 1 if _sign(v, t) > 0 else -1 if _sign(v + Fraction(1, h), t) <= 0 else 0
        assert th.decide(x, den, h) == want
        if tie and isinstance(t, Fraction) and off == 0:
            assert v == t - (Fraction(1, h) if near else 0)
            assert want == (-1 if near else 0)
    t2 = Fraction(12) if t == SQRT12 else t * t
    c = h * t2.denominator if tie else h
    D = max(math.floor(t2 * c * c) + off, 0)  # next to (t c)^2
    assert th.root_le(D, c) == (_sign(SurdSum({D: Fraction(1, c)}), t) <= 0)
    if D == t2 * c * c:
        assert th.root_le(D, c) and SurdSum({D: Fraction(1, c)}) == SurdSum.from_value(t)
        assert not th.root_le(D + 1, c)


_DECISION_THRESHOLDS = ["2.9", "3", "3+6^-6", "3+6^-204", "3.05", "4", "sqrt(12)"]


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(_DECISION_THRESHOLDS),
       st.sampled_from([Fraction(0), Fraction(3), None]), st.booleans(),
       st.integers(1, 1 << 720), st.integers(1, 1 << 64),
       st.one_of(st.integers(-3, 3), st.integers(-(1 << 720), 1 << 720)))
@example("3+6^-6", None, False, 6 ** 6, 1, 0)
@example("3+6^-6", None, True, 6 ** 6, 1, 0)
@example("3", Fraction(3), False, 7, 2, 0)
@example("4", Fraction(3), False, 1, 1, 1)
def test_threshold_decisions_match_fraction_and_quadsurd(text, anchor, plus, den, h, off):
    """decide and root_le against Fraction arithmetic, compared exactly with
    t (a Fraction, or the QuadSurd sqrt(12)).  v (or v + 1/h, when plus) is drawn
    next to 0, 3 or t (anchor None), or far from all three: x on both
    sides of 0, v on both sides of t and v + 1/h on both sides of t."""
    th = lang.Threshold.of(text)
    t = th.value
    a = t if anchor is None else anchor
    x = _floor_below(a, den, h if plus else 0) - 3 * den + off
    assert th.decide(x, den, h) == _decision_reference(th, x, den, h)
    a2 = Fraction(12) if a == SQRT12 else a * a
    D = max(math.floor(a2 * h * h) + off, 0)  # next to (a h)^2
    assert th.root_le(D, h) == (QuadSurd(0, 1, h, D) <= t)


_F = lang.FIXED_BITS


def _excess(th):
    """t - 3 as a Fraction: exact for a rational t, and for sqrt(12) within
    2^-(F + 64) below it."""
    if th.root:
        return Fraction(math.isqrt(12 << 2 * (_F + 64)), 1 << (_F + 64)) - 3
    return Fraction(th.excess, th.den)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.sampled_from(_DECISION_THRESHOLDS),
                 st.builds("3{}2^-{}".format, st.sampled_from("+-"), st.integers(0, 160))),
       st.tuples(st.sampled_from(_DECISION_THRESHOLDS), st.sampled_from([8, 40, 81]),
                 st.sampled_from("12"), st.integers(0, 96), st.integers(0, 1)),
       st.text(alphabet="12", max_size=70), st.sampled_from([None, 0, 1]),
       st.one_of(st.integers(-4, 4).map(Fraction),
                 st.fractions(-4, 4, max_denominator=1 << 80)),
       st.integers(-(1 << 420), 1 << 420), st.integers(1, 1 << 420))
# at 3.05, (t - 3) 2^F - E = 0.8, and at this tail g(x) 2^F - G = -0.254:
# v = t with b + G = E + 1, refuted by a screen whose lower margin is narrowed
@example("3.05", ("2.9", 8, "1", 15, 0), "1", 0, Fraction(0), 0, 1)
# the same with v + 1/h = t: retired, and live to a narrowed lower margin
@example("3.05", ("2.9", 8, "1", 15, 0), "1", 1, Fraction(0), 0, 1)
# at 3, (t - 3) 2^F = E, and at this tail g(x) 2^F - G = 1.003: v just above
# t with b + G = E - 2, below t to a screen whose upper margin is narrowed
@example("3", ("2.9", 8, "2", 0, 1), "11", 0, Fraction(1, 512), 0, 1)
def test_position_screen_matches_the_exact_decision(t, tail, word, near, offset, beta, bd):
    """_position_verdict, whose fixed-point screen decides first, against
    Threshold.decide on the exact products, at thresholds near and away
    from 3, the tail bounds of real tables, forward matrices of 0..70
    digits, and bases beta/bd drawn at random or placed within 4 units of
    2^-F of t - 3 - g(x) (near 0) or of t - 3 - g(x) - 1/h (near 1), exact
    ties included.  The examples sit inside the screen's margins, so
    narrowing either margin by one unit fails this test."""
    th = lang.Threshold.of(t)
    table_t, cap, digit, run, side = tail
    ends = lang.tail_tables_for(table_t, cap).ends[digit]
    xn, xd, X = ends[min(run, len(ends) - 1)][side]
    g = functools.reduce(lambda m, c: mat_mul(m, (0, 1, 1, int(c))), word, IDENTITY)
    g00, g01, g10, g11 = g
    h = g11 * (g10 + g11)
    fn, fd = g00 * xn + g01 * xd, g10 * xn + g11 * xd
    if near is not None:
        base = _excess(th) - Fraction(fn, fd) - Fraction(near, h) + offset / (1 << _F)
        beta, bd = base.numerator, base.denominator
    got = lang._position_verdict(th, beta, bd, (beta << _F) // bd, *g, (xn, xd, X))
    assert got == th.decide(beta * fd + fn * bd, bd * fd, h)


@pytest.mark.parametrize("t", _DECISION_THRESHOLDS)
def test_fixed_threshold_is_the_floor_of_its_excess(t):
    """fixed 2^-F <= t - 3 < (fixed + 1) 2^-F, Fractions compared exactly with
    t; below 3 that is the floor of a negative number."""
    th = lang.Threshold.of(t)
    lo, hi = (3 + Fraction(k, 1 << _F) for k in (th.fixed, th.fixed + 1))
    assert lo <= th.value < hi


@pytest.mark.parametrize("t", _DECISION_THRESHOLDS)
@pytest.mark.parametrize("cap", [8, 40, 81])
def test_fixed_tail_bounds_are_the_floors_of_their_values(t, cap):
    ends = lang.tail_tables_for(t, cap).ends
    for num, den, X in itertools.chain.from_iterable(itertools.chain(*ends.values())):
        assert Fraction(X, 1 << _F) <= Fraction(num, den) < Fraction(X + 1, 1 << _F)


def _extremes(bits):
    """The least and the greatest integer of a bit length."""
    return 1 << (bits - 1), (1 << bits) - 1


@pytest.mark.parametrize("t", _DECISION_THRESHOLDS[:-1] + [
    3 + Fraction(255, 1 << 20), 3 - Fraction(255, 1 << 20)], ids=str)
def test_decide_at_the_edges_of_the_bit_band(t):
    """Both comparisons of a rational decision, x den_t against excess den
    (v > t) and y den_t against excess den h with y = x h + den
    (v + 1/h <= t), at bit-length differences -3..3: den and h the least or
    the greatest of their bit lengths, and x, or y, of either sign and next
    to the least or the greatest of its bit length.  The last two thresholds
    have an excess of 8 bits, the others of 1 bit."""
    th = lang.Threshold.of(t)
    shift = abs(th.excess).bit_length() - th.den.bit_length()
    checked = 0
    for ld, lh, k in itertools.product((24, 600), (1, 2, 17), range(-3, 4)):
        for den, h in itertools.product(_extremes(ld), _extremes(lh)):
            xs = set()
            for m in _extremes(max(ld + shift + k, 1)):  # x next to m
                xs.update((m - 1, m, m + 1, -m - 1, -m, -m + 1))
            for m in _extremes(max(ld + lh + shift + k, 1)):  # y next to m
                for y in (m, -m):
                    xs.update(((y - den) // h, (y - den) // h + 1))
            for x in xs:
                assert th.decide(x, den, h) == _decision_reference(th, x, den, h), (x, den, h)
            checked += len(xs)
    assert checked > 2000


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="12", min_size=1, max_size=48))
def test_periodic_markov_matches_general_path(p):
    D, c, idx = _markov_periodic(p)
    value, attained, at = markov_value(BiSeq.periodic(p))
    assert (value, attained, at) == (SurdSum({D: Fraction(1, c)}), True, idx)
    # a transient copy of the period sends the same sequence down the general path
    general, _, _ = markov_value(BiSeq.make(p, "", p, p))
    assert general == SurdSum({D: Fraction(1, c)})  # sqrt(D)/c, exactly
    assert lang.period_markov(p) == (D, c)
    seq = BiSeq.periodic(p)
    assert lambda_at(seq, idx) == value
    assert all(lambda_at(seq, j) < value for j in range(idx))  # first phase wins ties


@contextmanager
def iv_prec(bits):
    """Working precision of mpmath's interval context, which keeps its own
    precision apart from mpmath.workprec.  Only the oracles below read it,
    so the library's directed-rounding bounds are checked by code that did
    not produce them."""
    old = mpmath.iv.prec
    mpmath.iv.prec = bits
    try:
        yield
    finally:
        mpmath.iv.prec = old


def _floor_reference(enclose, bits):
    """floor of a value v >= 0 that enclose() encloses in mpmath's interval
    context, by the same doubling of the precision; the ends are truncated
    by int(), exactly (mpmath.floor would round at mpmath's working
    precision first), and equal truncations are floor(v)."""
    def decide(bits):
        with iv_prec(bits):
            iv = enclose()
            lo, hi = int(iv.a), int(iv.b)
        return lo if lo == hi else None

    return refine(decide, bits)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40), st.integers(1, 300))
def test_floor_log_and_floor_exp_match_interval_context(a, b, k):
    x = Fraction(max(a, b), min(a, b))
    assume(x != 1)
    assert floor_log(x) == _floor_reference(
        lambda: mpmath.iv.log(mpmath.iv.mpf(x.numerator) / x.denominator), 64)
    assert floor_exp(k) == _floor_reference(lambda: mpmath.iv.exp(k), 64 + 2 * k)


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
    (["1", "2"], 12, "0.5109533800354004", "0.5602775083312989"),
    (["2211", "1212"], None, "0.11631341116333008", "0.15159087045288086"),
    (["1"], None, "0.0", "1.0"),
    (["2"], None, "0.0", "1e-06"),
    (["1", "2"], None, "0.36862321035766604", "1.0"),  # 2**s * (2**-s + 6**-s) > 1
]


def test_brackets_pinned_to_certified_bisection():
    for blocks, level, lower, upper in PINNED_BRACKETS:
        b = dimension.moran_bracket(blocks, level=level)
        assert (repr(b.lower), repr(b.upper)) == (lower, upper), (blocks, level)


def _counted_evaluations(monkeypatch):
    """Record the precision of every interval evaluation in dimension."""
    evaluations = []

    def counted(decide, bits):
        def each(b):
            evaluations.append(b)
            return decide(b)
        return refine(each, bits)

    monkeypatch.setattr(dimension, "refine", counted)
    return evaluations


def _counted_signs(monkeypatch):
    """Record (s, adjust) of every certified sum."""
    sums = []
    sign = dimension._MoranSums.sign

    def counted(self, s, adjust):
        sums.append((s, adjust))
        return sign(self, s, adjust)

    monkeypatch.setattr(dimension._MoranSums, "sign", counted)
    return sums


def test_lying_guide_falls_back_to_certified_bisection(monkeypatch):
    guide = dimension._MoranSums.guide
    lies = []

    def lie_once(self, s, adjust):
        honest = guide(self, s, adjust)
        if lies:
            return honest
        lies.append(s)
        return not honest

    monkeypatch.setattr(dimension._MoranSums, "guide", lie_once)
    sums = _counted_signs(monkeypatch)
    b = dimension.moran_bracket(["1", "2"], level=8)
    assert lies == [Fraction(1, 2)]
    assert len(sums) > 6  # the misled root was bisected again on certified signs
    assert (repr(b.lower), repr(b.upper)) == ("0.5013575090637207", "0.5760798917541504")


def test_moran_roots_make_at_most_two_certified_sums_each(monkeypatch):
    evaluations = _counted_evaluations(monkeypatch)
    dimension.moran_bracket(["1", "2"], level=10)
    assert 0 < len(evaluations) <= 4
    evaluations.clear()
    dimension.d_upper(lang.parse_threshold("3+6^-6"), 8)
    assert 0 < len(evaluations) <= 2


def _counted_exps(monkeypatch):
    """Record every mpf_exp call in dimension: one per term and one for the
    factor 2**(adjust*s), per evaluated enclosure end."""
    calls = []
    real = dimension.mpf_exp

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(dimension, "mpf_exp", spy)
    return calls


def test_bracket_sums_evaluate_one_enclosure_end(monkeypatch):
    # the guide picks the end that decides, so the other is never evaluated:
    # four sums of 1024 terms; both ends of each would take 8,200 calls
    calls = _counted_exps(monkeypatch)
    dimension.moran_bracket(["1", "2"], level=10)
    assert 0 < len(calls) <= 4 * (1024 + 1)


def test_d_upper_sums_evaluate_one_enclosure_end(monkeypatch):
    t = lang.parse_threshold("3+6^-6")
    ls = lang.sigma_enumerate(t, 8)
    assert len(ls.words) + len(ls.unresolved) == 36
    calls = _counted_exps(monkeypatch)
    dimension.d_upper(t, 8)
    assert 0 < len(calls) <= 2 * (36 + 1)  # both ends would take 148


@pytest.mark.parametrize("constant", [True, False])
def test_brackets_survive_a_constant_guide(monkeypatch, constant):
    # a guide that never changes its answer misleads the bisection and the
    # choice of enclosure end; the certified fallback restores every bracket
    monkeypatch.setattr(dimension._MoranSums, "guide", lambda self, s, adjust: constant)
    for blocks, level, lower, upper in PINNED_BRACKETS:
        b = dimension.moran_bracket(blocks, level=level)
        assert (repr(b.lower), repr(b.upper)) == (lower, upper), (blocks, level)


def test_capped_root_takes_one_certified_sum_at_one(monkeypatch):
    sums = _counted_signs(monkeypatch)
    lengths, _ = dimension._cylinders(["1", "2"], None)
    assert dimension._upper(dimension._MoranSums(lengths)) == 1.0
    assert sums == [(Fraction(1), 1)]


def test_capped_root_survives_a_guide_that_ends_below_one(monkeypatch):
    monkeypatch.setattr(dimension._MoranSums, "guide", lambda self, s, adjust: False)
    sums = _counted_signs(monkeypatch)
    lengths, _ = dimension._cylinders(["1", "2"], None)
    assert dimension._upper(dimension._MoranSums(lengths)) == 1.0
    # hi = 2**-20 fails its certificate, and the fallback certifies s = 1 first
    assert sums == [(Fraction(1, 2 ** 20), 1), (Fraction(1), 1)]


@settings(max_examples=60, deadline=None)
@given(_block_sets, st.integers(1, 24), st.booleans(), st.sampled_from([-1, 1]),
       st.booleans())
def test_moran_sign_matches_interval_context(blocks, depth, take_hi, adjust, invert):
    lengths, _ = dimension._cylinders(blocks, None)
    assume(not (adjust > 0 and lengths == [(1, 2)]))  # the map is 1 at every s
    sums = dimension._MoranSums(lengths)
    # a dyadic s in (0, 1] from the guided bisection at the given depth, so
    # that the sign is asked near the root, where an error would flip it
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(depth):
        mid = (lo + hi) / 2
        if sums.guide(mid, adjust):
            lo = mid
        else:
            hi = mid
    s = hi if take_hi or lo == 0 else lo
    if invert:  # sign then evaluates the wrong enclosure end first
        honest = sums.guide
        sums.guide = lambda s, adjust: not honest(s, adjust)
    assert sums.sign(s, adjust) == _sum_sign_reference(lengths, s, adjust)


def _cylinders_by_word(blocks, level):
    """The refined lengths one word at a time: every concatenation from
    itertools.product, each length from cf.cylinder_length."""
    blocks = sorted(set(blocks))
    words = ["".join(t) for t in itertools.product(blocks, repeat=level // len(blocks[0]))]
    return [(f.numerator, f.denominator) for f in map(cylinder_length, words)]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda m: st.tuples(st.lists(st.text(alphabet="12", min_size=m, max_size=m),
                                 min_size=1, max_size=4, unique=True),
                        st.integers(1, 12 // m).map(lambda k: k * m))))
def test_cylinders_match_one_length_per_word(case):
    blocks, level = case
    lengths, m = dimension._cylinders(blocks, level)
    assert m == level
    assert lengths == _cylinders_by_word(blocks, level)


def test_moran_sign_refines_past_64_bits_near_a_root(monkeypatch):
    # the lower root of {1, 2}: 4**-s + 12**-s = 1; s lies within 2**-72 below it
    with mpmath.workdps(60):
        root = mpmath.findroot(lambda x: 4 ** -x + 12 ** -x - 1, 0.37)
        s = Fraction(int(mpmath.floor(root * 2 ** 72)), 2 ** 72)
        assert 0 < root - mpmath.mpf(s.numerator) / s.denominator < mpmath.mpf(2) ** -70
    lengths, _ = dimension._cylinders(["1", "2"], None)
    evaluations = _counted_evaluations(monkeypatch)
    assert dimension._MoranSums(lengths).sign(s, -1) == 1
    assert evaluations[0] == 64 and evaluations[-1] > 64
    assert _sum_sign_reference(lengths, s, -1) == 1
