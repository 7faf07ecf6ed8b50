"""Property suites for the paper-level inequalities the modules promise."""

import random
from fractions import Fraction

import pytest

from cfspectra.biseq import BiSeq, lambda_at, markov_value
from cfspectra.cf import cylinder_length, periodic_fixpoint, tail_image
from cfspectra.cuts import Cut, classify_cut
from cfspectra.errors import NotRenormalizable
from cfspectra.lang import parse_threshold
from cfspectra.renorm import find_alphabet
from cfspectra.surd import SurdSum
from cfspectra.words import ABWord, Word


def _rand_ab(rng, lo, hi):
    return ABWord("".join(rng.choice("ab") for _ in range(rng.randrange(lo, hi))))


def test_interval_squeeze_even_length():
    # ... r2 1 w* b | a w 2 s2 ... pins |I(bwb)| < lambda - 3 < |I(bw1)|
    # (the word and its surroundings avoid 121/212 by construction)
    rng = random.Random(61)
    for _ in range(200):
        w = str(_rand_ab(rng, 1, 6).to_word())
        seq = BiSeq.make("2211", "1" + w[::-1] + "11", "22" + w + "22", "2211")
        lam = lambda_at(seq, 0)
        low = cylinder_length("11" + w + "11")
        high = cylinder_length("11" + w + "1")
        assert SurdSum.from_value(Fraction(3) + low) < lam
        assert lam < SurdSum.from_value(Fraction(3) + high)


def test_good_bad_stable_under_context():
    # adding outer context can never flip a resolved classification
    rng = random.Random(62)
    bases = [Cut.parse("2211|2211"), Cut.parse("2222|1111"), Cut.parse("222|222")]
    for base in bases:
        kind = classify_cut(base).kind
        for _ in range(10):
            l = "".join(rng.choice(("11", "22")) for _ in range(rng.randrange(0, 3)))
            r = "".join(rng.choice(("11", "22")) for _ in range(rng.randrange(0, 3)))
            extended = Cut(Word(l + str(base.left)), Word(str(base.right) + r))
            got = classify_cut(extended).kind
            if kind in ("good", "bad"):
                assert got == kind, (base, l, r, got)


def test_window_agreement_bound():
    # two sequences sharing positions 0..2T+1: inserting the middle tail keeps
    # every window lambda below the max of the two Markov values + 2^(1-T)
    rng = random.Random(63)
    for _ in range(20):
        T = rng.randrange(3, 7)
        window = "".join(rng.choice("12") for _ in range(2 * T + 2))
        tails = []
        for _ in range(3):
            head = "".join(rng.choice("12") for _ in range(rng.randrange(0, 3)))
            per = "".join(rng.choice("12") for _ in range(rng.randrange(1, 4)))
            tails.append((head, per))
        vals = [(tail_image(h, periodic_fixpoint(p)), h, p) for h, p in tails]
        keyed = sorted(vals, key=lambda t: t[0])
        if keyed[0][0] == keyed[1][0] or keyed[1][0] == keyed[2][0]:
            continue  # the lemma wants strictly ordered tails
        lows, mid, high = keyed
        left1 = "".join(rng.choice("12") for _ in range(3))
        left2 = "".join(rng.choice("12") for _ in range(3))
        a = BiSeq.make("21", left1, window + lows[1], lows[2])
        b = BiSeq.make("12", left2, window + high[1], high[2])
        c = BiSeq.make("21", left1, window + mid[1], mid[2])
        ma, _, _ = markov_value(a)
        mb, _, _ = markov_value(b)
        cap = (ma if (ma - mb).sign() >= 0 else mb) + Fraction(1, 2 ** (T - 1))
        for j in range(0, 2 * T + 2):
            assert lambda_at(c, j) < cap


def test_find_alphabet_obstruction():
    word = ABWord("ab" * 3 + "aabb" + "ab" * 3).to_word()
    with pytest.raises(NotRenormalizable):
        find_alphabet(word, 12)


def test_d_upper_mid_scale():
    # at n = 18 the 3+6^-6 language genuinely exceeds the t = 3 language
    # (stability needs much longer words), so the bound sits slightly above
    # the 2 * 0.25 ballpark; it must still decrease as t drops
    from cfspectra.dimension import d_upper
    v = d_upper(parse_threshold("3+6^-6"), 18)
    w = d_upper(parse_threshold("3+6^-30"), 18)
    assert 0.0 < w <= v < 0.6
