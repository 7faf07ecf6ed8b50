import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfspectra.words import ABWord, UVWord, Word, apply_subst, transpose


def test_word_validation():
    with pytest.raises(ValueError):
        Word("123")
    with pytest.raises(ValueError):
        ABWord("abc")
    with pytest.raises(ValueError):
        UVWord("UX")


def test_digit_image_and_parsing():
    assert str(ABWord("ab").to_word()) == "2211"
    assert str(ABWord.from_word(Word("221122"))) == "aba"
    with pytest.raises(ValueError):
        ABWord.from_word(Word("2111"))  # odd run of 2s
    with pytest.raises(ValueError):
        ABWord.from_word(Word("12"))
    # the parse reads digits through Word, so other letters are refused
    for text in ("33", "xx22"):
        with pytest.raises(ValueError, match="word digits must be 1 or 2"):
            ABWord.from_word(text)


WORD_TYPES = ((Word, "12", "word digits must be 1 or 2"),
              (ABWord, "ab", "letters must be a or b"),
              (UVWord, "UV", "letters must be U or V"))


@given(st.sampled_from(WORD_TYPES).flatmap(lambda t: st.tuples(
    st.just(t), st.text(t[1], max_size=12), st.text(t[1], max_size=12),
    st.characters(exclude_characters=t[1]))))
def test_shared_word_protocol(case):
    (cls, _, message), a_text, b_text, stray = case
    a, b = cls(a_text), cls(b_text)
    assert len(a + b) == len(a) + len(b)
    assert (a + b)[:len(a)] == a and type((a + b)[:len(a)]) is cls
    assert a.transpose().transpose() == a
    assert b in a + b
    with pytest.raises(ValueError, match=message):
        cls(a_text + stray)


def test_transpose_involution_and_block_commutation():
    rng = random.Random(21)
    for _ in range(100):
        w = ABWord("".join(rng.choice("ab") for _ in range(rng.randrange(1, 20))))
        assert transpose(transpose(w)).letters == w.letters
        # reversal commutes with the digit image since blocks are palindromes
        assert transpose(w).to_word().letters == transpose(w.to_word()).letters


def test_word_types_never_compare_equal():
    assert Word("") != ABWord("") and ABWord("") != UVWord("") and Word("") != UVWord("")


def test_substitution_definitions():
    assert str(apply_subst("U", ABWord("ab"))) == "abb"
    assert str(apply_subst("V", ABWord("ab"))) == "aab"
    # outermost-first composition: UV(x) = U(V(x))
    assert str(apply_subst("UV", ABWord("a"))) == "ab"
    assert str(apply_subst("UV", ABWord("b"))) == "abb"
    assert str(apply_subst("", ABWord("ba"))) == "ba"


def test_head_body():
    w = ABWord("abb")
    assert str(w.head()) == "bb" and str(w.body()) == "ab"
    assert str(ABWord("a").head()) == ""
