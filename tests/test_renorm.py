import random
from functools import lru_cache

import pytest

from cfspectra.alphabets import ROOT, alphabet_from_pair, enumerate_alphabets
from cfspectra.errors import NotRenormalizable, NoValidExtension
from cfspectra.renorm import (_factor_over, decompose_over, find_alphabet, renorm_step,
                              semi_renormalize, trivial_renormalization)
from cfspectra.words import ABWord, Word


def test_refactoring_examples():
    r = renorm_step(trivial_renormalization(ABWord("ababb")))
    assert (str(r.alphabet.alpha), str(r.alphabet.beta)) == ("ab", "b")
    assert r.kernel_letters == "aab" and not r.w1 and not r.w2
    assert str(r.word) == "ababb"

    r = renorm_step(trivial_renormalization(ABWord("babab")))
    assert (str(r.alphabet.alpha), str(r.alphabet.beta)) == ("ab", "b")
    assert str(r.w1) == "b" and r.kernel_letters == "aa" and not r.w2


def test_pure_power_follows_side_condition():
    # kernel a^k refines over (a, ab); the defining side condition forces the
    # last block into w2, so the kernel drops to a^(k-1) with w2 = a
    r = renorm_step(trivial_renormalization(ABWord("aaaa")))
    assert (str(r.alphabet.alpha), str(r.alphabet.beta)) == ("a", "ab")
    assert r.kernel_letters == "aaa" and str(r.w2) == "a" and not r.w1
    assert str(r.word) == "aaaa"


def test_mixed_blocks_not_renormalizable():
    with pytest.raises(NotRenormalizable):
        renorm_step(trivial_renormalization(ABWord("aabb")))


def test_reassembly_and_validity_random():
    rng = random.Random(31)
    done = 0
    while done < 60:
        w = ABWord("".join(rng.choice("ab") for _ in range(rng.randrange(2, 24))))
        r = trivial_renormalization(w)
        try:
            r2 = renorm_step(r)
        except NotRenormalizable:
            continue
        assert str(r2.word) == str(w)
        assert r2.is_valid(), r2.violations()
        done += 1


def test_chain_stability_clause():
    rng = random.Random(32)
    done = 0
    while done < 40:
        w = ABWord("".join(rng.choice("ab") for _ in range(rng.randrange(4, 40))))
        r = trivial_renormalization(w)
        steps = 0
        while r.kernel_letters and steps < 6:
            starts_u = r.kernel_letters.startswith("a")
            ends_v = r.kernel_letters.endswith("b")
            try:
                r2 = renorm_step(r)
            except NotRenormalizable:
                break
            if starts_u:
                assert str(r2.w1) == str(r.w1)
            if ends_v:
                assert str(r2.w2) == str(r.w2)
            r = r2
            steps += 1
            done += 1


def test_monotone_scale():
    w = ABWord("ab" * 40)
    r = trivial_renormalization(w)
    size = 2 * len(r.alphabet.concat())
    for _ in range(4):
        r = renorm_step(r)
        size2 = 2 * len(r.alphabet.concat())
        assert size2 > size
        size = size2


def test_find_alphabet_periodic():
    w = ABWord("ab" * 12).to_word()
    alphabet, dec = find_alphabet(w, 6)
    assert 2 * len(alphabet.concat()) >= 6
    assert 2 * len(alphabet.alpha) < 6 and 2 * len(alphabet.beta) < 6
    assert str(dec.word) in str(ABWord("ab" * 13))


def test_find_alphabet_uniform_word():
    alphabet, dec = find_alphabet(Word("1" * 24), 8)
    # the all-b word renormalizes along the (ab^k, b) family
    assert str(alphabet.beta) == "b"
    assert set(dec.kernel_letters) == {"b"}


def test_alphabet_uniqueness_recovery():
    # embed a kernel written over a depth-n alphabet between junk affixes and
    # re-derive the alphabet at that scale
    rng = random.Random(33)
    for node in rng.sample(enumerate_alphabets(4)[7:], 6):
        kernel = "".join(rng.choice((node.alpha.letters, node.beta.letters))
                         for _ in range(6))
        word = (node.alpha + node.beta) + kernel + (node.alpha + node.beta)
        got = decompose_over(word, node)
        assert got is not None and str(got.word) == str(word)


def test_semi_renormalize_examples():
    node = alphabet_from_pair("ab", "abb")
    w = node.concat().to_word()
    r = semi_renormalize(w, node)
    assert not r.w1 and not r.w2 and r.kernel_letters == "ab"

    # the even-length word 21...1 only decomposes after a two-digit extension
    r = semi_renormalize(Word("2" + "1" * 5), ROOT)
    assert str(r.word.to_word()) == "22111111"

    # beginning with alpha beta forces w1 empty
    w = (node.concat() + node.beta).to_word()
    r = semi_renormalize(w, node)
    assert not r.w1


def test_no_valid_extension():
    with pytest.raises(NoValidExtension):
        find_alphabet(Word("21112"), 4)  # interior odd run cannot be fixed


def _factor_over_brute(s, a, b):
    """Least mark string over every parse of s into words a, b, or None."""
    @lru_cache(maxsize=None)
    def parses(i):
        if i == len(s):
            return ("",)
        return tuple(mark + rest for mark, w in (("a", a), ("b", b))
                     if s.startswith(w, i) for rest in parses(i + len(w)))
    return min(parses(0), default=None)


def test_factor_over_matches_brute_force():
    rng = random.Random(34)
    letters = lambda lo, hi: "".join(rng.choice("ab") for _ in range(rng.randrange(lo, hi)))
    for _ in range(20000):
        a, b = letters(1, 5), letters(1, 5)  # a == b and non-code pairs included
        if rng.random() < 0.5:
            s = "".join(rng.choice((a, b)) for _ in range(rng.randrange(0, 8)))
            if s and rng.random() < 0.3:  # one letter flipped
                k = rng.randrange(len(s))
                s = s[:k] + rng.choice("ab") + s[k + 1:]
        else:
            s = letters(0, 14)
        assert _factor_over(s, a, b) == _factor_over_brute(s, a, b), (s, a, b)
