"""Bi-infinite eventually periodic {1,2}-sequences, lambda values, Markov values."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import lambda_between, periodic_fixpoint
from .errors import DomainError
from .surd import SurdSum
from .words import Word


def _rotate(s, k):
    k %= len(s)
    return s[k:] + s[:k]


@dataclass(frozen=True)
class BiSeq:
    """...(left_period)^inf left_transient | right_transient (right_period)^inf...

    Position 0 is the first digit of right_transient (of right_period when the
    transient is empty); position -1 is the last digit of left_transient.
    """

    left_period: Word
    left_transient: Word
    right_transient: Word
    right_period: Word

    def __post_init__(self):
        if not self.left_period or not self.right_period:
            raise DomainError("both periods must be nonempty")

    @classmethod
    def make(cls, left_period, left_transient="", right_transient="", right_period=None):
        if right_period is None:
            right_period = left_period
        return cls(Word(str(left_period)), Word(str(left_transient)),
                   Word(str(right_transient)), Word(str(right_period)))

    @classmethod
    def periodic(cls, period):
        p = Word(str(period))
        return cls(p, Word(""), Word(""), p)

    def digit(self, i):
        tr, tl = self.right_transient.digits, self.left_transient.digits
        if i >= 0:
            if i < len(tr):
                return tr[i]
            return self.right_period.digits[(i - len(tr)) % len(self.right_period)]
        j = -1 - i  # offset from the right end of the left side
        if j < len(tl):
            return tl[len(tl) - 1 - j]
        lp = self.left_period.digits
        return lp[len(lp) - 1 - (j - len(tl)) % len(lp)]

    def segment(self, lo, hi):
        """Digits at positions lo..hi-1 as a plain string."""
        return "".join(self.digit(i) for i in range(lo, hi))

    def shift(self, k):
        """Sequence t with t_i = s_{i+k}; the resulting value is equivalent."""
        if k == 0:
            return self
        if k < 0:
            return self.transpose().shift(-k).transpose()
        n = len(self.right_transient)
        return BiSeq(self.left_period, Word(self.left_transient.digits + self.segment(0, k)),
                     Word(self.segment(k, n)),
                     Word(_rotate(self.right_period.digits, max(k, n) - n)))

    def transpose(self):
        """Mirror the sequence about the origin (position i maps to -1-i)."""
        return BiSeq(Word(self.right_period.digits[::-1]),
                     Word(self.right_transient.digits[::-1]),
                     Word(self.left_transient.digits[::-1]),
                     Word(self.left_period.digits[::-1]))

    def __repr__(self):
        return "BiSeq(per(%s) %s | %s per(%s))" % (
            self.left_period, self.left_transient, self.right_transient, self.right_period)


def lambda_at(s, i):
    """lambda at position i: [s_i; s_{i+1}, ...] + [0; s_{i-1}, s_{i-2}, ...].

    The digits from the left transient (or i) to the right transient (or i)
    lie between the two periodic ends, whose tail values are the fixed points
    of the periods rotated to the phases where the digits stop."""
    nl, nr = len(s.left_transient), len(s.right_transient)
    lo, hi = min(i, -nl), max(i + 1, nr)
    right = periodic_fixpoint(_rotate(s.right_period.digits, hi - nr))
    left = periodic_fixpoint(_rotate(s.left_period.digits[::-1], -lo - nl))
    return SurdSum.from_value(lambda_between(s.segment(lo, hi), i - lo, left, right))


def _markov_periodic(period):
    """(D, c, i): the Markov value of the two-sided periodic sequence is
    sqrt(D) / c, attained first at phase i, found with integer work only.

    Let M_i = A(p_i) A(p_{i+1}) ... A(p_{i-1}), A(d) = ((d, 1), (1, 0)), be
    the matrix of the period rotated to start at phase i.  The forward value
    x_i = [p_i; p_{i+1}, ...] is the fixed point of M_i, and by Galois'
    theorem on purely periodic continued fractions its conjugate is
    -[0; p_{i-1}, p_{i-2}, ...].  So lambda at phase i is the difference of
    the two fixed points, sqrt(D) / c_i, with c_i the lower-left entry of M_i
    and D = tr(M_i)^2 - 4 det(M_i) the same for every rotation.  The sup is
    sqrt(D) / min c_i, attained first at the first phase with the least c_i.
    Successive rotations are conjugates, M_{i+1} = A(p_i)^-1 M_i A(p_i), one
    O(1) integer step per phase.
    """
    p = str(period)
    a, b, c, e = 1, 0, 0, 1
    for ch in p:
        d = int(ch)
        a, b, c, e = a * d + b, a, c * d + e, c
    disc = (a + e) ** 2 - 4 * (a * e - b * c)
    best_c, best_i = c, 0
    for i, ch in enumerate(p[:-1]):
        d = int(ch)
        f = a - d * c  # A(d)^-1 M = ((c, e), (f, b - d e))
        a, b, c, e = c * d + e, c, f * d + b - d * e, f
        if c < best_c:
            best_c, best_i = c, i + 1
    return disc, best_c, best_i


def markov_value(s):
    """sup over i of lambda_at(s, i), exactly.

    Positions within two periods of the transients (the window) are scanned
    one by one.  Beyond the window, each phase of a periodic end has a fixed
    forward value, and its backward values form a Moebius orbit whose first
    two terms already lie inside the window: the orbit is monotone for an
    even period, and for an odd one its two parity subsequences approach the
    limit monotonically from opposite sides.  So the far positions add only
    the phase limits, whose largest is the periodic Markov value of that
    end's period, never attained.  Returns (value, attained, index): attained
    is True when the sup is achieved at a finite position (index reports the
    first one in the window), else the value is the periodic-end sup and
    index is None.
    """
    if (not s.left_transient and not s.right_transient
            and s.left_period.digits == s.right_period.digits):
        disc, c, i = _markov_periodic(s.right_period)
        return SurdSum({disc: Fraction(1, c)}), True, i
    lo = -(len(s.left_transient) + 2 * len(s.left_period) + 2)
    hi = len(s.right_transient) + 2 * len(s.right_period) + 2
    value, index = max(((lambda_at(s, i), i) for i in range(lo, hi)), key=lambda vi: vi[0])
    far = max(SurdSum({disc: Fraction(1, c)})
              for disc, c, _ in map(_markov_periodic, (s.right_period, s.left_period)))
    if far > value:
        return far, False, None
    return value, True, index
