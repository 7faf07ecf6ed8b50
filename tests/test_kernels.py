"""The integer kernels against the exact Fraction/QuadSurd routes they replace."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cfspectra import lang
from cfspectra.biseq import BiSeq, _markov_periodic, lambda_at, markov_value


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
    monkeypatch.setattr(lang, "_tables_cache", {})
    got = lang.tail_tables_for(t, 20)
    monkeypatch.setattr(lang, "_tables_cache", {})
    monkeypatch.setattr(lang, "_iterate_tables", _iterate_tables_reference)
    want = lang.tail_tables_for(t, 20)
    assert got.j1 > 1 or got.j2 > 1  # the bootstrap admitted a longer ban
    _same_tables(got, want)


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
