import random
from collections import Counter
from itertools import product
from fractions import Fraction

import pytest

from cfspectra import cf, cuts
from cfspectra.alphabets import ROOT, alphabet_from_pair
from cfspectra.biseq import BiSeq, lambda_at, markov_value
from cfspectra.cf import extremal_tail
from cfspectra.cuts import (CUT_DEPTH, PUSH_TEMPLATES, Cut, classify_cut,
                            compare_bad_cuts, forbidden_pattern_check,
                            position_bounds, push_cut)
from cfspectra.errors import DomainError, PreconditionUnverified, TemplateMismatch
from cfspectra.lang import membership
from cfspectra.surd import SurdSum
from cfspectra.words import ABWord, UVWord, Word, apply_subst


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
        seq = BiSeq.make("12", "", w, "21")
        lam = lambda_at(seq, i)
        assert lo <= lam <= hi


def _classify_reference(cut):
    """classify_cut with its closings built as BiSeqs and read by lambda_at:
    (kind, depth, sup strings)."""
    s, m = str(cut.word), len(cut.left)
    sups = [position_bounds(s, i)[1] for i in (m - 1, m)]
    strs = [str(SurdSum.from_value(v)) for v in sups]
    if all(v < 3 for v in sups):
        return "good", None, strs
    stack, capped = [("", "")], False
    while stack:
        lext, rext = stack.pop()
        w = lext + s + rext
        ps = (len(lext) + m - 1, len(lext) + m)
        if any(position_bounds(w, p)[0] > 3 for p in ps):
            continue
        for lp in ("12", "21"):
            for rp in ("12", "21"):
                seq = BiSeq.make(lp, "", w, rp)
                if all(lambda_at(seq, p) <= 3 for p in ps):
                    return "mixed", len(lext) + len(rext), strs
        if len(lext) + len(rext) >= CUT_DEPTH:
            capped = True
        elif len(lext) <= len(rext):
            stack.extend([("1" + lext, rext), ("2" + lext, rext)])
        else:
            stack.extend([(lext, rext + "1"), (lext, rext + "2")])
    return ("unresolved", CUT_DEPTH, strs) if capped else ("bad", None, strs)


def test_position_bounds_refuses_a_digit_other_than_1_or_2():
    for word, i in (("131", 1), ("131", 0), ("3", 0)):
        with pytest.raises(DomainError, match="digits must be 1 or 2"):
            position_bounds(word, i)


def test_position_bounds_forms_each_prefix_matrix_once(monkeypatch):
    """One G(prefix) per side gives both extremes of that side's tail."""
    calls = []

    def counted(w):
        calls.append(str(w))
        return matrix(w)

    matrix = cf.cf_matrix
    monkeypatch.setattr(cf, "cf_matrix", counted)
    lo, hi = position_bounds("2211222211", 4)
    assert sorted(calls) == ["1122", "22211"]
    monkeypatch.undo()
    assert (lo, hi) == position_bounds("2211222211", 4)


def test_mixed_cut_anchors():
    for text, depth in (("2|2111111", 9), ("2|2111122", 5), ("12|211111", 3),
                        ("1112|2", 2), ("2|2112112", 1)):
        got = classify_cut(Cut.parse(text))
        assert (got.kind, got.depth) == ("mixed", depth), text


def test_classify_cut_is_unresolved_past_its_depth(monkeypatch):
    """A cut that no extension of at most CUT_DEPTH digits decides is
    unresolved at that depth: 2|2112112 needs one digit, 2222|1111 none."""
    monkeypatch.setattr(cuts, "CUT_DEPTH", 0)
    got = classify_cut(Cut.parse("2|2112112"))
    assert (got.kind, got.depth, str(got)) == ("unresolved", 0, "unresolved(depth=0)")
    assert classify_cut(Cut.parse("2222|1111")).kind == "bad"


def test_classify_cut_matches_biseq_closings():
    rng = random.Random(43)
    kinds = Counter()
    for _ in range(600):
        n = rng.randint(2, 14)
        w = "".join(rng.choice("12") for _ in range(n))
        k = rng.randint(1, n - 1)
        cut = Cut(Word(w[:k]), Word(w[k:]))
        got = classify_cut(cut)
        want = _classify_reference(cut)
        assert (got.kind, got.depth, [str(got.sup_left), str(got.sup_right)]) == want, str(cut)
        kinds[got.kind] += 1
    assert kinds["mixed"] >= 50 and kinds["good"] and kinds["bad"], kinds


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


# push_cut as it was with a separate branch for the symmetric kinds
def _push_cut_reference(w_uv, cut, kind):
    if kind not in PUSH_TEMPLATES:
        raise DomainError("unknown kind %r" % kind)
    W = UVWord(str(w_uv))
    if len(W) == 0:
        return cut
    try:
        left, right = ABWord.from_word(cut.left), ABWord.from_word(cut.right)
    except ValueError as e:
        raise TemplateMismatch(str(e))
    u, v = apply_subst(W, ABWord("a")), apply_subst(W, ABWord("b"))
    up, vm = u.head(), v.body()

    def image(x):
        return apply_subst(W, x)

    if kind.endswith("symmetric") and not kind.endswith("asymmetric"):
        la, lb = ("a", "a") if kind == "bad-symmetric" else ("a", "b")
        ra, rb = ("b", "b") if kind == "bad-symmetric" else ("a", "b")
        ls, rs = left.letters, right.letters
        if len(ls) != len(rs) or len(ls) < 2:
            raise TemplateMismatch("symmetric template needs equal sides")
        if not (ls[0] == la and ls[-1] == lb and rs[0] == ra and rs[-1] == rb):
            raise TemplateMismatch("sides do not match the %s template" % kind)
        w = ABWord(rs[1:-1])
        if ls[1:-1] != w.transpose().letters:
            raise TemplateMismatch("left interior is not the transposed right interior")
        mid_t = (up + image(w.transpose()) + vm).letters
        mid = (up + image(w) + vm).letters
        return Cut(ABWord(la + mid_t + lb).to_word(), ABWord(ra + mid + rb).to_word())

    bad = kind == "bad-asymmetric"
    ls, rs = left.letters, right.letters
    best = None
    for k in range(min(len(ls), len(rs)) - 1, -1, -1):
        w = rs[1:1 + k]
        lworld = ls[: len(ls) - (k + 2)]
        l_tmpl = ("b" + w[::-1] + ("b" if bad else "a"))
        if not ls.endswith(l_tmpl):
            continue
        if rs[0] != ("a" if bad else "b") or len(rs) < k + 2 or rs[k + 1] != "a":
            continue
        X, Y = ABWord(lworld), ABWord(rs[k + 2:])
        if 2 * len(image(X)) < 2 * len(u) or 2 * len(image(Y)) < 2 * len(v):
            continue
        best = ABWord(w)
        break
    if best is None:
        raise TemplateMismatch("cut does not contain the %s template" % kind)
    w = best
    mid_t = (up + image(w.transpose()) + vm).letters
    mid = (up + image(w) + vm).letters
    if bad:
        return Cut(ABWord("b" + mid_t + "b").to_word(), ABWord("a" + mid + "a").to_word())
    return Cut(ABWord("b" + mid_t + "a").to_word(), ABWord("b" + mid + "a").to_word())


def test_push_cut_matches_two_branch_reference():
    """One template scan for all four kinds gives the old two-branch result:
    every {a,b}-side of 1-4 letters on each side, every kind, and every
    {U,V}-word of length <= 2, the empty word included."""
    sides = [ABWord("".join(p)).to_word() for k in range(1, 5)
             for p in product("ab", repeat=k)]
    uv_words = [UVWord("".join(p)) for k in range(3) for p in product("UV", repeat=k)]
    outcomes = Counter()
    for kind in PUSH_TEMPLATES:
        for left in sides:
            for right in sides:
                cut = Cut(left, right)
                for W in uv_words:
                    try:
                        want = _push_cut_reference(W, cut, kind)
                    except TemplateMismatch:
                        with pytest.raises(TemplateMismatch):
                            push_cut(W, cut, kind)
                        outcomes["mismatch"] += 1
                        continue
                    assert push_cut(W, cut, kind) == want, (kind, str(cut), str(W))
                    if len(W):
                        outcomes[kind] += 1
    # every kind pushes some cut through a nonempty word
    assert len(outcomes) == 5 and min(outcomes.values()) >= 20, outcomes


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


def _cut_sup_reference(omega, x):
    """The former cuts._cut_sup: 3 + max [0; 11 omega x ...] - min [0; 11 omega y ...],
    through the identity [0; 2, Y] = 1 - [0; 1, 1, Y]."""
    y = "1" if x == "2" else "2"
    _, hi = extremal_tail("11" + omega + x)
    lo, _ = extremal_tail("11" + omega + y)
    return SurdSum.from_value(hi + 3 - lo)


def test_compare_bad_cuts_bounds_match_the_identity_route():
    """compare_bad_cuts reads both bounds through position_bounds; for every
    omega of at most 10 digits and both x they equal the closed form of the
    identity route in value, str and repr."""
    t = Fraction(4)  # above every Markov value of a {1,2}-sequence
    for n in range(11):
        for digits in product("12", repeat=n):
            o = "".join(digits)
            for x in "12":
                y = "1" if x == "2" else "2"
                wit = BiSeq.periodic(x + o[::-1] + "1122" + o + y)
                v = compare_bad_cuts(o, o, t, x=x, witness=wit)
                ref = _cut_sup_reference(o, x)
                assert v.ok and v.base_bound == v.extended_bound == ref
                assert (str(v.base_bound), repr(v.base_bound)) == (str(ref), repr(ref))


def test_compare_bad_cuts_without_witness():
    """Without a witness the base cut's word u = x omega* 1122 omega y is
    certified by membership: 2221122221 for omega = 22, x = 2 at 3 + 6^-6,
    where every per(12)/per(21) closing has Markov value sqrt(12)."""
    t = Fraction(3) + Fraction(1, 6 ** 6)
    cert = membership(Word("2221122221"), t)
    assert cert.verdict == "in" and cert.verify()
    got = compare_bad_cuts(Word("22"), Word("221122"), t, x="2")
    assert got.ok and got.base_bound < got.extended_bound < t
    same = compare_bad_cuts(Word("22"), Word("22"), t, x="2")
    assert same.extended_bound == same.base_bound == got.base_bound < 3
    # x = 1: u = 1221122222 is out, though its short pattern 12211222 is in
    assert membership(Word("12211222"), t).verdict == "in"
    with pytest.raises(PreconditionUnverified):
        compare_bad_cuts(Word("22"), Word("221122"), t, x="1")
    # omega = 2: u = 12111222 is out
    with pytest.raises(PreconditionUnverified):
        compare_bad_cuts(Word("2"), Word("2"), t)
    # a threshold membership cannot take needs a witness
    mv, _, _ = markov_value(cert.witness)
    with pytest.raises(PreconditionUnverified):
        compare_bad_cuts(Word("22"), Word("22"), mv, x="2")
    got = compare_bad_cuts(Word("22"), Word("22"), mv, x="2", witness=cert.witness)
    assert got.extended_bound == got.base_bound


def test_compare_bad_cuts_parses_text_threshold():
    by_text = compare_bad_cuts(Word("22"), Word("221122"), "3+6^-6", x="2")
    by_value = compare_bad_cuts(Word("22"), Word("221122"),
                                Fraction(3) + Fraction(1, 6 ** 6), x="2")
    assert by_text == by_value
    assert by_text.ok and by_text.threshold == Fraction(3) + Fraction(1, 6 ** 6)
    assert str(by_text.base_bound) == "1029993/342694 + (-1249/342694)√3"


def test_compare_bad_cuts_certifies_the_word_it_bounds():
    """At 3 + 6^-6, 16 pairs (omega of at most 6 digits, x) have the short
    pattern x omega* 11 omega y in the language but the bounded word
    u = x omega* 1122 omega y out: compare_bad_cuts refuses each, without a
    witness and with the short pattern's own witness."""
    t = Fraction(3) + Fraction(1, 6 ** 6)
    refused = []
    for n in range(7):
        for o in map("".join, product("12", repeat=n)):
            for x in "12":
                y = "1" if x == "2" else "2"
                short = membership(x + o[::-1] + "11" + o + y, t)
                if (short.verdict != "in"
                        or membership(x + o[::-1] + "1122" + o + y, t).verdict != "out"):
                    continue
                with pytest.raises(PreconditionUnverified):
                    compare_bad_cuts(o, o, t, x=x)
                with pytest.raises(PreconditionUnverified):
                    compare_bad_cuts(o, o, t, x=x, witness=short.witness)
                refused.append((o, x))
    assert len(refused) == 16 and ("1", "1") in refused


def test_compare_bad_cuts_finds_the_word_past_a_long_transient():
    """The witness is searched over its transients, one period and |u| on
    each side, so u beyond any fixed multiple of |u| from 0 is found, in a
    long transient or only in a long period."""
    u = "2221122221"
    for wit in (BiSeq.make("12", "", "12" * 50 + u, "12"),
                BiSeq.make("12", u + "12" * 50, "", "12"),
                BiSeq.make("1", "", "", "12" * 50 + u),
                BiSeq.make(u + "12" * 50, "", "", "2")):
        assert u not in wit.segment(-8 * len(u) - 8, 8 * len(u) + 8)
        got = compare_bad_cuts("22", "2211", Fraction(4), x="2", witness=wit)
        assert got == compare_bad_cuts("22", "2211", Fraction(4), x="2",
                                       witness=BiSeq.periodic(u))


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
