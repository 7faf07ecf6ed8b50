import random
from fractions import Fraction

import pytest

from cfspectra.alphabets import ROOT, alphabet_from_pair
from cfspectra.biseq import BiSeq, markov_value
from cfspectra.cuts import (Cut, classify_cut, compare_bad_cuts,
                            forbidden_pattern_check, position_bounds, push_cut)
from cfspectra.errors import DomainError, PreconditionUnverified, TemplateMismatch
from cfspectra.lang import membership
from cfspectra.words import UVWord, Word


def test_classification_anchors():
    assert classify_cut(Cut.parse("2211|2211")).kind == "good"
    assert classify_cut(Cut.parse("2222|1111")).kind == "bad"
    assert classify_cut(Cut.parse("222|222")).kind == "good"


def test_sup_values_are_exact():
    got = classify_cut(Cut.parse("2211|2211"))
    assert got.sup_right < Fraction(3)
    assert got.sup_right > Fraction(297, 100)


def test_position_bounds_bracket_lambda():
    rng = random.Random(41)
    for _ in range(25):
        w = "".join(rng.choice("12") for _ in range(rng.randrange(3, 10)))
        i = rng.randrange(len(w))
        lo, hi = position_bounds(w, i)
        # any concrete periodic completion stays inside the bounds
        from cfspectra.biseq import lambda_at
        seq = BiSeq.make("12", "", w, "21")
        lam = lambda_at(seq, i)
        assert lo <= lam <= hi


def test_push_cut_identity_and_kinds():
    c = Cut.parse("2211|2211")
    assert push_cut(UVWord(""), c, "good-symmetric") is c
    out = push_cut(UVWord("U"), c, "good-symmetric")
    assert str(out) == "221111|221111"
    assert classify_cut(out).kind == "good"

    bad = Cut.parse("2222|1111")
    out = push_cut(UVWord("V"), bad, "bad-symmetric")
    assert classify_cut(out).kind == "bad"


def test_push_cut_asymmetric():
    base = Cut(Word("22111111"), Word("22222211"))  # X b b | a a Y
    assert classify_cut(base).kind == "bad"
    out = push_cut(UVWord("UV"), base, "bad-asymmetric")
    assert classify_cut(out).kind == "bad"
    good = Cut(Word("22111122"), Word("11222211"))  # X b a | b a Y
    assert classify_cut(good).kind == "good"
    out = push_cut(UVWord("VU"), good, "good-asymmetric")
    assert classify_cut(out).kind == "good"


def test_push_cut_template_mismatch():
    with pytest.raises(TemplateMismatch):
        push_cut(UVWord("U"), Cut.parse("2211|2211"), "bad-symmetric")
    with pytest.raises(DomainError):
        push_cut(UVWord("U"), Cut.parse("2211|2211"), "sideways")


def test_compare_bad_cuts():
    wit = BiSeq.make("1", "", "122112222", "2")
    t, _, _ = markov_value(wit)
    v = compare_bad_cuts(Word("22"), Word("2211"), t, x="1", witness=wit)
    assert v.ok
    # reducing to the hypothesis itself
    v2 = compare_bad_cuts(Word("22"), Word("22"), t, x="1", witness=wit)
    assert v2.extended_bound == v2.base_bound
    # random extensions only improve the exact bound chain
    rng = random.Random(42)
    for _ in range(50):
        ext = "22" + "".join(rng.choice(("11", "22")) for _ in range(rng.randrange(1, 5)))
        got = compare_bad_cuts(Word("22"), Word(ext), t, x="1", witness=wit)
        assert got.ok and got.extended_bound <= got.base_bound


def test_compare_bad_cuts_without_witness():
    """Without a witness the base cut's pattern x omega* 11 omega y is
    certified by membership: 12211222 for omega = 22, x = 1 at 3 + 6^-6,
    where every per(12)/per(21) closing has Markov value sqrt(12)."""
    t = Fraction(3) + Fraction(1, 6 ** 6)
    cert = membership(Word("12211222"), t)
    assert cert.verdict == "in" and cert.verify()
    got = compare_bad_cuts(Word("22"), Word("221122"), t, x="1")
    assert got.ok and got.extended_bound <= got.base_bound
    assert not compare_bad_cuts(Word("22"), Word("22"), t, x="1").ok
    # omega = 2: the pattern 121122 is out
    with pytest.raises(PreconditionUnverified):
        compare_bad_cuts(Word("2"), Word("2"), t)
    # a threshold membership cannot take needs a witness
    mv, _, _ = markov_value(cert.witness)
    with pytest.raises(PreconditionUnverified):
        compare_bad_cuts(Word("22"), Word("22"), mv, x="1")
    got = compare_bad_cuts(Word("22"), Word("22"), mv, x="1", witness=cert.witness)
    assert got.extended_bound == got.base_bound


def test_forbidden_patterns():
    hits = forbidden_pattern_check(Word("22221111"), ROOT, 8)
    assert any(h.name == "alpha2beta2" for h in hits)
    clean = forbidden_pattern_check(Word("22112211"), ROOT, 8)
    assert not [h for h in clean if h.name == "alpha2beta2"]
    # exponent force rule: alpha^3 beta alpha^1 beta has r2 < r1 - 1
    w = Word("222222" + "11" + "22" + "11")
    hits = forbidden_pattern_check(w, ROOT, 12)
    assert any(h.name.startswith("force") for h in hits)
    # membership companion: the flagged word is refuted at 3
    from cfspectra.lang import membership
    assert membership(w, Fraction(3)).verdict == "out"
