import json
import math
import random
import re
from fractions import Fraction

import pytest

from cfspectra import biseq, lang
from cfspectra.alphabets import alphabet_from_pair, theta_inverse
from cfspectra.biseq import BiSeq, markov_value
from cfspectra.dimension import d_upper
from cfspectra.errors import DomainError
from cfspectra.lang import (Threshold, connecting_sequence, membership,
                            parse_threshold, sigma3_factors, sigma_enumerate)
from cfspectra.surd import QuadSurd, SurdSum
from cfspectra.words import Word


def test_parse_threshold():
    assert parse_threshold("3") == Fraction(3)
    assert parse_threshold("3.06") == Fraction(306, 100)
    assert parse_threshold("3+6^-18") == Fraction(3) + Fraction(1, 6 ** 18)
    s = parse_threshold("sqrt(12)")
    assert isinstance(s, QuadSurd) and s * s == 12
    assert parse_threshold("3-6^-2") == Fraction(107, 36)
    assert parse_threshold("-3+6^-0") == Fraction(-2)


@pytest.mark.parametrize("text", ["3+0^-1", "3+6^--2", "2^-3", "3+1^-4", "3+6^2",
                                  "x", "1/0"])
def test_parse_threshold_rejects_malformed_text(text):
    with pytest.raises(DomainError, match=re.escape(repr(text))):
        parse_threshold(text)


def test_entry_points_agree_on_threshold_forms():
    text = "3+6^-6"
    forms = (text, parse_threshold(text), Threshold.of(text))
    assert Threshold.of(forms[1]) == forms[2] and Threshold.of(forms[2]) is forms[2]
    assert hash(Threshold.of(forms[1])) == hash(forms[2])
    words = ("2211", "121", "22112222", "11222211", "1122112211")
    rows = [[membership(Word(w), t).row() for w in words] for t in forms]
    assert rows[0] == rows[1] == rows[2]
    langs = [sigma_enumerate(t, 10) for t in forms]
    assert langs[0].to_json_obj() == langs[1].to_json_obj() == langs[2].to_json_obj()
    assert len({d_upper(t, 8) for t in forms}) == 1
    with pytest.raises(DomainError):
        membership(Word("2211"), QuadSurd(0, 1, 1, 11))
    for word in ("3", "1221312"):  # rejected before any lookup or table
        with pytest.raises(DomainError, match="digits other than 1 and 2"):
            membership(word, text)
    for value in (2.5, SurdSum.from_value(3)):  # inexact, or not a threshold type
        with pytest.raises(DomainError):
            sigma_enumerate(value, 3)


def test_membership_examples():
    assert membership(Word("121"), Fraction(306, 100)).verdict == "out"
    cert = membership(Word("2211"), Fraction(3))
    assert cert.verdict == "in"
    assert str(cert.witness.right_period) == "2211"  # minimal period witness
    value, _, _ = markov_value(cert.witness)
    assert value == QuadSurd(0, 1, 5, 221)
    assert cert.verify()
    # verify takes any exact threshold, here the witness's own Markov value
    assert lang.MembershipCertificate(cert.word, value, "in", cert.witness).verify()
    # the aa bb block is refuted even slightly above 3
    from cfspectra.cf import r_exponent
    w = Word("22221111")
    t = Fraction(3) + Fraction(1, 2 ** r_exponent(w))  # above 3 + e^-r
    assert membership(w, t).verdict == "out"


def test_membership_sqrt12_everything_in():
    t = parse_threshold("sqrt(12)")
    for w in ("12121", "21212", "11221"):
        assert membership(Word(w), t).verdict == "in"


def test_sigma_small():
    assert sigma_enumerate(Fraction(3), 1).word_set() == {"1", "2"}
    ls = sigma_enumerate(Fraction(3), 3)
    assert ls.word_set() == {"111", "112", "211", "122", "221", "222"}
    assert not ls.unresolved
    ls12 = sigma_enumerate(parse_threshold("sqrt(12)"), 5)
    assert len(ls12.words) == 32 and not ls12.unresolved


def test_sigma_oracle_agreement_small():
    for n in range(1, 13):
        a = sigma_enumerate(Fraction(3), n)
        b = sigma3_factors(n)
        assert a.word_set() == b.word_set()
        assert not a.unresolved


def test_sigma3_factor_examples():
    f4 = sigma3_factors(4)
    assert "2211" in f4.words and "1122" in f4.words
    assert "2121" not in f4.words


def test_language_closure_properties():
    a = sigma_enumerate(Fraction(3), 8)
    assert a.transposition_closed()
    bigger = sigma_enumerate(Fraction(3) + Fraction(1, 6 ** 6), 8)
    assert a.word_set() <= bigger.word_set()
    longer = sigma_enumerate(Fraction(3), 10)
    for w in longer.words:
        assert w[:8] in a.words and w[2:] in a.words


def test_certificates_and_serialization():
    ls = sigma_enumerate(Fraction(3), 5)
    for w, cert in ls.words.items():
        assert cert.verify()
        assert cert.witness.segment(0, 5) == w
    rows = ls.rows()
    assert rows[0] == ("word", "verdict", "witness-period", "refutation-depth")
    assert len(rows) == len(ls.words) + 1
    obj = json.loads(json.dumps(ls.to_json_obj()))
    assert obj["count"] == len(ls.words) == len(obj["words"])


def test_certificate_verify_rejects_a_witness_without_the_word():
    """per(22) has Markov value sqrt(8) < 3 but does not contain 2211."""
    cert = membership(Word("2211"), Fraction(3))
    assert cert.verdict == "in" and cert.verify()
    forged = lang.MembershipCertificate(cert.word, cert.threshold, "in",
                                        BiSeq.periodic("22"))
    assert markov_value(forged.witness)[0] < 3 and not forged.verify()


def test_verify_does_not_reuse_the_deciding_kernel(monkeypatch):
    """A periodic witness is rechecked by lambda_at, not by the integer kernel
    behind period_markov: with that kernel under-reporting D, membership
    takes a wrong "in" for 2211 at 2.9 < sqrt(221)/5, and verify() refuses it."""
    real = biseq._markov_periodic

    def under_reported(period):
        _, c, i = real(period)
        return 1, c, i

    monkeypatch.setattr(lang, "_markov_periodic", under_reported)
    monkeypatch.setattr(biseq, "_markov_periodic", under_reported)
    lang.period_markov.cache_clear()
    try:
        cert = membership(Word("2211"), Fraction(29, 10))
        assert cert.verdict == "in" and not cert.verify()
    finally:
        lang.period_markov.cache_clear()


def test_verify_reads_one_sweep_per_periodic_witness(monkeypatch):
    """verify() rechecks a periodic witness by lambda at each phase of one
    period, read off one biseq.lambdas sweep over it; another witness goes
    through markov_value instead."""
    calls = []
    real = lang.lambdas

    def spy(seq, lo, hi):
        calls.append((seq, lo, hi))
        return real(seq, lo, hi)

    monkeypatch.setattr(lang, "lambdas", spy)
    certs = list(sigma_enumerate(Fraction(3), 6).words.values())
    certs.append(membership(Word("2211"), Fraction(3)))
    for cert in certs:
        assert cert.witness.is_periodic()
        calls.clear()
        assert cert.verify()
        assert calls == [(cert.witness, 0, len(cert.witness.right_period))]
    two_sided = lang.MembershipCertificate(Word("22"), Fraction(3), "in",
                                           BiSeq.make("1", "", "22", "1"))
    calls.clear()
    assert two_sided.verify() and calls == []


def test_family_check_refuses_above_the_threshold():
    # m(per(2211)) = sqrt(221)/5 > 2.9: 2211's family entry gives no witness
    th = Threshold.of(Fraction(29, 10))
    assert lang.factor_witness_map(4)["2211"] == ("2211", 0)
    assert lang._family_witness("2211", th) is None
    cert = membership(Word("2211"), th)
    assert (cert.verdict, cert.refutation_depth) == ("out", 0)


def test_rational_quadsurd_threshold_is_its_rational():
    assert Threshold.of(QuadSurd(3)) == Threshold.of(3)
    assert Threshold.of(QuadSurd(6, 0, 2)).qmax == Threshold.of(Fraction(3)).qmax
    assert membership(Word("2211"), QuadSurd(3)).row() == membership(Word("2211"), 3).row()


def test_sigma3_factors_read_no_markov_value(monkeypatch):
    want = sigma3_factors(12).word_set()

    def refuse(period):
        raise AssertionError("period_markov read for %s" % period)

    monkeypatch.setattr(lang, "period_markov", refuse)
    got = sigma3_factors(12)
    assert got.word_set() == want
    assert all(cert.verify() for cert in got.words.values())


def _factor_witness_map_reference(n):
    """The family grown by letter count q, each count's Christoffel words
    in theta order p/q (the construction before farey_words was read)."""
    wmap = {}
    for q in range(1, n // 2 + 4):
        if q == 1:
            periods = ["22", "11"]
        else:
            periods = [str(theta_inverse(Fraction(p, q)).to_word())
                       for p in range(1, q) if math.gcd(p, q) == 1]
        for period in periods:
            for w, off in lang._windows(period, n):
                wmap.setdefault(w, (period, off))
    return wmap


def test_factor_witness_map_matches_the_letter_count_loop():
    for n in range(1, 69):
        # same words, same winning periods, same first-wins order
        assert list(lang.factor_witness_map(n).items()) == \
            list(_factor_witness_map_reference(n).items()), n


def test_sigma_streams_each_survivor_into_membership(monkeypatch):
    """sigma_enumerate certifies each survivor as the prefix tree finds it:
    membership is first called before the tree's last push (one
    _bound_children call grows both children of a prefix), so the
    survivors' bounds are never held as a list."""
    events, inside = [], []
    push, member = lang._bound_children, lang.membership

    def push_spy(*args):
        if not inside:  # the tree's own pushes, not membership's search
            events.append("push")
        return push(*args)

    def member_spy(*args, **kwargs):
        events.append("membership")
        inside.append(True)
        try:
            return member(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(lang, "_bound_children", push_spy)
    monkeypatch.setattr(lang, "membership", member_spy)
    sigma_enumerate("3+6^-6", 12)
    last_push = len(events) - 1 - events[::-1].index("push")
    assert events.index("membership") < last_push


def test_position_screen_leaves_few_exact_decisions(monkeypatch):
    """Of the 65,817 position verdicts of Sigma(3+6^-204, 34), the
    fixed-point screen in _position_verdict leaves only a few to
    Threshold.decide, the exact path: those where its enclosure straddles
    t - 3 or t - 3 - 1/h."""
    calls = []
    decide = lang.Threshold.decide

    def decide_spy(self, *args):
        calls.append(args)
        return decide(self, *args)

    monkeypatch.setattr(lang.Threshold, "decide", decide_spy)
    sigma_enumerate("3+6^-204", 34)
    assert len(calls) <= 16


def test_membership_odd_run_and_slide_refutations():
    assert membership(Word("2" + "1" * 17 + "22"), Fraction(3)).verdict == "out"
    slide = "1" * 12 + "22" + "1" * 10 + "22" + "1" * 8 + "22"
    cert = membership(Word(slide), Fraction(3))
    assert cert.verdict == "out"


def test_unresolved_is_a_value():
    # a tiny budget cannot refute a long slide pattern: unresolved, not an error
    slide = "1" * 30 + "22" + "1" * 10 + "22" + "1" * 8 + "2"
    cert = membership(Word(slide), Fraction(3) + Fraction(1, 6 ** 204), max_depth=0)
    assert cert.verdict in ("out", "unresolved")


def test_sigma_rows_are_membership_rows():
    # sigma_enumerate decides every survivor through membership
    for t in (Fraction(3), Fraction(3) + Fraction(1, 6 ** 6)):
        ls = sigma_enumerate(t, 12)
        certs = list(ls.words.values()) + list(ls.unresolved.values())
        assert certs
        for cert in certs:
            assert cert.row() == membership(cert.word, t).row()


def test_membership_long_words():
    # rows pinned from the period scan that once served words over 120 digits
    t = Fraction(3) + Fraction(1, 6 ** 204)
    w = ("2222112211" * 14)[3:133]
    mutant = w[:61] + "2" + w[62:]
    assert len(w) == 130 and w[61] == "1"
    assert membership(Word(w), t).row() == (w, "in", "per(2112211222)", "")
    assert membership(Word(mutant), t).row() == (mutant, "out", "", "0")


def test_pad_witnesses_resolve_the_dupper_words():
    # the six words d_upper(3+6^-6, 12) once counted as unresolved
    t = parse_threshold("3+6^-6")
    for w in ("112222222112", "122222221122", "221122222221", "211222222211",
              "112222222221", "122222222211"):
        cert = membership(Word(w), t)
        assert cert.verdict == "in" and cert.verify(), w
    assert not sigma_enumerate(t, 12).unresolved
    assert d_upper(t, 12) == 0.6146727534790039


def test_budget_bounds_the_pads():
    pads = [p for group in lang._PADS for p in group]
    assert len(pads) == len(set(pads)) == 351 and len(lang._PADS) == 15
    assert pads[:7] == ["", "1", "2", "11", "12", "21", "22"]
    assert all(len(p) == n for n, group in enumerate(lang._PADS) for p in group)
    # 112222222112 closes only with a length-5 pad, tried at search depth 5
    t = parse_threshold("3+6^-6")
    w = Word("112222222112")
    assert membership(w, t).row() == (str(w), "in", "per(11222222211222222)", "")
    cert = membership(w, t, max_depth=2)
    assert cert.row() == (str(w), "unresolved", "", "2")


def test_decisions_make_no_interval_call(monkeypatch):
    """Once a Threshold is built, enumeration and membership decide by
    integer comparisons alone: neither floor_log nor r_exponent, nor the
    log enclosure log_bounds, nor cf's directed-rounding log or exp, is
    called."""
    from cfspectra import cf

    def clear_caches():
        for cache in (v for v in vars(lang).values() if hasattr(v, "cache_info")):
            cache.cache_clear()

    clear_caches()
    th = Threshold.of("3+6^-6")
    want = sigma_enumerate(th, 12).to_json_obj()
    clear_caches()

    def forbidden(*args, **kwargs):
        raise AssertionError("interval call on the decision path")

    for mod in (cf, lang):
        for name in ("floor_log", "floor_exp", "r_exponent", "log_bounds"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    monkeypatch.setattr(cf, "mpf_log", forbidden)
    monkeypatch.setattr(cf, "mpf_exp", forbidden)
    assert sigma_enumerate(th, 12).to_json_obj() == want
    for w in ("22221111", "2222111122", "121", "112222222112"):
        assert membership(w, th).verdict == ("in" if w == "112222222112" else "out")


def test_lang_caches_bounded_and_clearable():
    t = Fraction(3) + Fraction(1, 6 ** 6)
    warm = sigma_enumerate(t, 12).to_json_obj()
    module_vars = {k: v for k, v in vars(lang).items() if not k.startswith("__")}
    caches = [v for v in module_vars.values() if hasattr(v, "cache_info")]
    assert len(caches) >= 6
    for cache in caches:
        assert cache.cache_info().maxsize is not None
        cache.cache_clear()
        assert cache.cache_info().currsize == 0
    assert not [k for k, v in module_vars.items() if isinstance(v, dict)]
    assert sigma_enumerate(t, 12).to_json_obj() == warm


def test_tables_do_not_depend_on_earlier_calls():
    # a larger cap built first must not leak into a smaller cap's tables
    t = Fraction(3) + Fraction(1, 6 ** 204)
    lang._certified_tables.cache_clear()
    fresh = lang.tail_tables_for(t, 20)
    lang._certified_tables.cache_clear()
    lang.tail_tables_for(t, 40)
    again = lang.tail_tables_for(t, 20)
    assert (again.j1, again.j2, again._lo, again._hi) == (fresh.j1, fresh.j2,
                                                          fresh._lo, fresh._hi)


def test_table_states_and_the_ban_gate():
    # the 121/212 exclusion is certified up to t = 3.06 inclusive, and above
    # it the tables are the free ones
    assert (lang.tail_tables_for(Fraction(306, 100), 20).j1,
            lang.tail_tables_for(Fraction(306, 100) + Fraction(1, 10 ** 9), 20).j1) == (1, 0)
    # a junction reads its run's state only when the run is closed on the far
    # side and within the ban; otherwise the unconstrained state (digit, 0)
    tables = lang.tail_tables_for(Fraction(3), 20)
    for d, j in (("1", tables.j1), ("2", tables.j2)):
        free = tables.bounds(d, j + 1, True)
        assert tables.bounds(d, 1, False) == tables.bounds(d, j, False) == free
        assert tables.bounds(d, 1, True) != free


def test_connecting_sequences():
    seq = connecting_sequence("ab", 3)
    assert str(seq.left_period) == "2" and str(seq.right_period) == "1"
    # middle is the concatenated Farey words a, aab, ab, abb, b
    mid = "22" + "222211" + "2211" + "221111" + "11"
    assert seq.segment(0, len(mid)) == mid
    ba = connecting_sequence("ba", 3)
    for i in range(-10, 10):
        assert ba.digit(i) == seq.digit(-1 - i)
    v, attained, _ = markov_value(seq)
    assert v > Fraction(3)

    node = alphabet_from_pair("ab", "b")
    s1 = connecting_sequence("a-to-alphabet", 2, node)
    assert str(s1.left_period) == "2"
    assert str(s1.right_period) == str(node.concat().to_word())
    s2 = connecting_sequence("alphabet-to-b", 2, node)
    assert str(s2.right_period) == "1"
    v1, _, _ = markov_value(s1)
    v2, _, _ = markov_value(s2)
    assert v1 > Fraction(3) and v2 > Fraction(3)
    # only the alphabet kinds read an alphabet, and they need one
    for kind, arg in (("ab", node), ("ba", node), ("a-to-alphabet", None),
                      ("alphabet-to-b", None)):
        with pytest.raises(DomainError):
            connecting_sequence(kind, 3, arg)
