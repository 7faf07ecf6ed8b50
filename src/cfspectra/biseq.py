"""Bi-infinite eventually periodic {1,2}-sequences, lambda values, Markov values."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import _mobius, cf_matrix, periodic_fixpoint
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

    def is_periodic(self):
        """Whether the sequence is per(P) for one period P: no transient, and
        one period on both sides."""
        return (not self.left_transient and not self.right_transient
                and self.left_period == self.right_period)

    def digit(self, i):
        tr, tl = self.right_transient.letters, self.left_transient.letters
        if i >= 0:
            if i < len(tr):
                return tr[i]
            return self.right_period.letters[(i - len(tr)) % len(self.right_period)]
        j = -1 - i  # offset from the right end of the left side
        if j < len(tl):
            return tl[len(tl) - 1 - j]
        lp = self.left_period.letters
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
        return BiSeq(self.left_period, Word(self.left_transient.letters + self.segment(0, k)),
                     Word(self.segment(k, n)),
                     Word(_rotate(self.right_period.letters, max(k, n) - n)))

    def transpose(self):
        """Mirror the sequence about the origin (position i maps to -1-i)."""
        return BiSeq(Word(self.right_period.letters[::-1]),
                     Word(self.right_transient.letters[::-1]),
                     Word(self.left_transient.letters[::-1]),
                     Word(self.left_period.letters[::-1]))

    def __repr__(self):
        return "BiSeq(per(%s) %s | %s per(%s))" % (
            self.left_period, self.left_transient, self.right_transient, self.right_period)


def lambdas(s, lo, hi):
    """lambda at positions lo..hi-1, in order, from one backward and one
    forward pass over the digits from the left transient (or lo) to the
    right one (or hi), each a chain of one-digit Moebius images (cf._mobius)
    that divides nothing: lambda_i = w_i + z_i for the backward value
    w_i = [s_i; s_{i-1}, s_{i-2}, ...], with w_{i+1} = (s_{i+1}, 1, 1, 0) w_i,
    and the forward tail z_i = [0; s_{i+1}, s_{i+2}, ...], with
    z_{i-1} = G(s_i) z_i.  Where the digits stop, z is seeded by the fixed
    point of the right period and w by the image under (1, s_a, 0, 1), with
    a the first position of the window, of that of the reversed left period,
    each rotated to its phase.  Each side stays in its period's field
    Q(sqrt(D)), so a purely periodic sequence gives one QuadSurd per
    position."""
    if hi <= lo:
        return []
    nl, nr = len(s.left_transient), len(s.right_transient)
    a, b = min(lo, -nl), max(hi, nr)
    digits = [int(ch) for ch in s.segment(a, b)]
    y = periodic_fixpoint(_rotate(s.left_period.letters[::-1], -a - nl))
    w = [_mobius((1, digits[0], 0, 1), y)]
    for d in digits[1:hi - a]:
        w.append(_mobius((d, 1, 1, 0), w[-1]))  # w[k] at position a + k
    z = periodic_fixpoint(_rotate(s.right_period.letters, b - nr))
    out = []
    for k in range(b - a - 1, lo - a - 1, -1):  # positions b-1 down to lo
        if k < hi - a:
            out.append(z + w[k])
        if k > lo - a:
            z = _mobius((0, 1, 1, digits[k]), z)
    return out[::-1]


def lambda_at(s, i):
    """lambda at position i: [s_i; s_{i+1}, ...] + [0; s_{i-1}, s_{i-2}, ...],
    as a SurdSum, read off lambdas at the one position i."""
    return SurdSum.from_value(lambdas(s, i, i + 1)[0])


def _markov_periodic(period):
    """(D, c, i): the Markov value of the two-sided periodic sequence is
    sqrt(D) / c, attained first at phase i, found with integer work only.

    Let G_i = G(p_i) G(p_{i+1}) ... G(p_{i-1}) be cf_matrix of the period
    rotated to start at phase i, and M_i = J G_i J the same product of
    A(d) = J G(d) J = ((d, 1), (1, 0)), J = ((0, 1), (1, 0)).  The forward
    value x_i = [p_i; p_{i+1}, ...] is the fixed point of M_i, and by
    Galois' theorem on purely periodic continued fractions its conjugate is
    -[0; p_{i-1}, p_{i-2}, ...].  So lambda at phase i is the difference of
    the two fixed points, sqrt(D) / c_i, with c_i the lower-left entry of
    M_i, which is g01 of G_i, and D = tr(G_i)^2 - 4 det(G_i) the same for
    every rotation.  The sup is sqrt(D) / min c_i, attained first at the
    first phase with the least c_i.  Successive rotations are conjugates,
    G_{i+1} = G(p_i)^-1 G_i G(p_i) with G(d)^-1 = ((-d, 1), (1, 0)), one
    O(1) integer step per phase.
    """
    p = str(period)
    g00, g01, g10, g11 = cf_matrix(p)
    disc = (g00 + g11) ** 2 - 4 * (g00 * g11 - g01 * g10)
    best_c, best_i = g01, 0
    for i, ch in enumerate(p[:-1]):
        d = int(ch)
        e = g11 - d * g01  # G(d)^-1 G_i = ((g10 - d g00, e), (g00, g01))
        g00, g01, g10, g11 = e, g10 - d * g00 + d * e, g01, g00 + d * g01
        if g01 < best_c:
            best_c, best_i = g01, i + 1
    return disc, best_c, best_i


def markov_value(s):
    """sup over i of lambda at position i, exactly.

    Positions within two periods of the transients (the window) are read
    off one lambdas sweep and compared as SurdSums.  Beyond the window, each
    phase of a periodic end has a fixed forward value, and its backward
    values form a Moebius orbit whose first two terms already lie inside the
    window: the orbit is monotone for an even period, and for an odd one its
    two parity subsequences approach the limit monotonically from opposite
    sides.  So the far positions add only
    the phase limits, whose largest is the periodic Markov value of that
    end's period, never attained.  Returns (value, attained, index): attained
    is True when the sup is achieved at a finite position (index reports the
    first one in the window), else the value is the periodic-end sup and
    index is None.
    """
    if s.is_periodic():
        disc, c, i = _markov_periodic(s.right_period)
        return SurdSum({disc: Fraction(1, c)}), True, i
    lo = -(len(s.left_transient) + 2 * len(s.left_period) + 2)
    hi = len(s.right_transient) + 2 * len(s.right_period) + 2
    value, index = max(zip(map(SurdSum.from_value, lambdas(s, lo, hi)), range(lo, hi)),
                       key=lambda vi: vi[0])
    far = max(SurdSum({disc: Fraction(1, c)})
              for disc, c, _ in map(_markov_periodic, (s.right_period, s.left_period)))
    if far > value:
        return far, False, None
    return value, True, index
