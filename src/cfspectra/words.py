"""Finite words over {1,2} and their {a,b}-block form (a = 22, b = 11)."""

from __future__ import annotations

from dataclasses import dataclass

_SUBST = {
    "U": {"a": "ab", "b": "b"},
    "V": {"a": "a", "b": "ab"},
}


@dataclass(frozen=True)
class _Letters:
    """The protocol the word types share: a string over the class's
    _ALPHABET, checked on construction.  Slices, sums and reversals keep the
    type; words of two types never compare equal."""

    letters: str

    def __post_init__(self):
        if set(self.letters) - self._ALPHABET:
            raise ValueError(self._INVALID % self.letters)

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        got = self.letters[i]
        return type(self)(got) if isinstance(i, slice) else got

    def __add__(self, other):
        return type(self)(self.letters + str(other))

    def __bool__(self):
        return bool(self.letters)

    def __contains__(self, other):
        return str(other) in self.letters

    def transpose(self):
        """Reversal w* = a_n...a_1."""
        return type(self)(self.letters[::-1])

    def __str__(self):
        return self.letters


class Word(_Letters):
    """A finite digit string over {1,2}."""

    _ALPHABET = frozenset("12")
    _INVALID = "word digits must be 1 or 2: %r"


class ABWord(_Letters):
    """A finite word over the block letters a = 22, b = 11.  Reversal
    commutes with the digit image, since a and b are palindromes."""

    _ALPHABET = frozenset("ab")
    _INVALID = "letters must be a or b: %r"

    def __mul__(self, k):
        return ABWord(self.letters * k)

    def to_word(self):
        return Word("".join("22" if c == "a" else "11" for c in self.letters))

    @classmethod
    def from_word(cls, w):
        """Parse a digit word into blocks; every run of equal digits must be
        even.  Raises ValueError for a letter other than 1 or 2."""
        s = Word(str(w)).letters
        out = []
        i = 0
        while i < len(s):
            j = i
            while j < len(s) and s[j] == s[i]:
                j += 1
            run = j - i
            if run % 2:
                raise ValueError("odd run of %s (length %d) at offset %d" % (s[i], run, i))
            out.append(("a" if s[i] == "2" else "b") * (run // 2))
            i = j
        return cls("".join(out))

    def count(self, letter):
        return self.letters.count(letter)

    def head(self):
        """w+ : drop the first letter (empty word for length <= 1)."""
        return ABWord(self.letters[1:])

    def body(self):
        """w- : drop the last letter (empty word for length <= 1)."""
        return ABWord(self.letters[:-1])


class UVWord(_Letters):
    """A finite word over the Nielsen substitution names U, V."""

    _ALPHABET = frozenset("UV")
    _INVALID = "letters must be U or V: %r"


def apply_subst(w_uv, w_ab):
    """Apply a {U,V}-word to an {a,b}-word.

    U maps a -> ab, b -> b; V maps a -> a, b -> ab.  A composite word is read
    outermost-first left to right: W = XY means X(Y(w)), so the rightmost
    letter acts first.
    """
    s = str(w_ab)
    for ch in reversed(str(w_uv)):
        table = _SUBST[ch]
        s = "".join(table[c] for c in s)
    return ABWord(s)


def transpose(w):
    """Reversal of a word of any of the three types (same type back)."""
    return w.transpose()
