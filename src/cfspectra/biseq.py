"""Bi-infinite eventually periodic {1,2}-sequences, lambda values, Markov values."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cf import eventually_periodic_value
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
        tr, tl = self.right_transient.digits, self.left_transient.digits
        rp, lp = self.right_period.digits, self.left_period.digits
        if k > 0:
            new_tl = tl + self.segment(0, k)
            if k < len(tr):
                return BiSeq(self.left_period, Word(new_tl), Word(tr[k:]), self.right_period)
            rot = (k - len(tr)) % len(rp)
            return BiSeq(self.left_period, Word(new_tl), Word(""), Word(_rotate(rp, rot)))
        j = -k
        new_tr = self.segment(-j, 0) + tr
        if j <= len(tl):
            return BiSeq(self.left_period, Word(tl[: len(tl) - j]), Word(new_tr), self.right_period)
        rot = (j - len(tl)) % len(lp)
        return BiSeq(Word(_rotate(lp, len(lp) - rot)), Word(""), Word(new_tr), self.right_period)

    def transpose(self):
        """Mirror the sequence about the origin (position i maps to -1-i)."""
        return BiSeq(Word(self.right_period.digits[::-1]),
                     Word(self.right_transient.digits[::-1]),
                     Word(self.left_transient.digits[::-1]),
                     Word(self.left_period.digits[::-1]))

    def _tail0(self, i):
        """[0; s_i, s_{i+1}, ...] as an exact QuadSurd."""
        tr = self.right_transient.digits
        rp = self.right_period.digits
        if i >= len(tr):
            rot = (i - len(tr)) % len(rp)
            return eventually_periodic_value("", _rotate(rp, rot))
        head = self.segment(i, len(tr))
        return eventually_periodic_value(head, rp)

    def forward_value(self, i):
        """[s_i; s_{i+1}, ...] exactly."""
        d = int(self.digit(i))
        nxt = self.shift(i + 1) if i + 1 != 0 else self
        return nxt._tail0(0) + d

    def backward_value(self, i):
        """[0; s_{i-1}, s_{i-2}, ...] exactly."""
        return self.transpose()._tail0(-i)

    def __repr__(self):
        return "BiSeq(per(%s) %s | %s per(%s))" % (
            self.left_period, self.left_transient, self.right_transient, self.right_period)


def lambda_at(s, i):
    """lambda at position i: [s_i; s_{i+1}, ...] + [0; s_{i-1}, s_{i-2}, ...]."""
    return SurdSum.from_value(s.forward_value(i)) + s.backward_value(i)


def _phase_sup(s, i0, step):
    """Exact sup over k >= 0 of lambda_at(s, i0 + k*step) for positions in the
    right periodic region, where step = |right_period|.

    Returns (value, attained_index_or_None).  The forward parts of all these
    positions coincide; the backward values form a Moebius orbit, which is
    monotone when step is even and alternating when odd, so the sup is one of
    {v0, v1, limit}.
    """
    v0 = lambda_at(s, i0)
    v1 = lambda_at(s, i0 + step)
    lim_seq = BiSeq.periodic(s.right_period)
    lim = lambda_at(lim_seq, (i0 - len(s.right_transient)) % step)
    if step % 2 == 0:
        c = (v0 - v1).sign()
        if c >= 0:  # non-increasing orbit: first term is the sup
            return v0, i0
        return lim, None  # increasing toward the periodic limit, never attained
    # odd period: the two parity subsequences approach the limit from opposite
    # sides, so the sup is max(v0, v1) and it is attained
    if (v0 - v1).sign() >= 0:
        return v0, i0
    return v1, i0 + step


_UNSET = object()


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

    Positions within two periods of the transients are scanned one by one;
    beyond them each phase of a periodic end is a Moebius orbit whose sup is
    closed-form.  Returns (value, attained, index): attained is True when the
    sup is achieved at a finite position (index reports one such position),
    else the value is the periodic-limit sup and index is None.
    """
    if (not s.left_transient and not s.right_transient
            and s.left_period.digits == s.right_period.digits):
        disc, c, i = _markov_periodic(s.right_period)
        return SurdSum({disc: Fraction(1, c)}), True, i
    nl, nr = len(s.left_period), len(s.right_period)
    lo = -(len(s.left_transient) + 2 * nl + 2)
    hi = len(s.right_transient) + 2 * nr + 2

    candidates = []  # (value, attained, index)
    for i in range(lo, hi):
        candidates.append((lambda_at(s, i), True, i))

    # far right: one orbit per phase of the right period
    base = len(s.right_transient)
    for phi in range(nr):
        i0 = hi + ((base + phi - hi) % nr)
        val, idx = _phase_sup(s, i0, nr)
        candidates.append((val, idx is not None, idx))
    # far left via the mirror (position i of the transpose is -1-i here)
    t = s.transpose()
    tbase = len(t.right_transient)
    thi = len(t.right_transient) + 2 * nl + 2
    for phi in range(nl):
        i0 = thi + ((tbase + phi - thi) % nl)
        val, idx = _phase_sup(t, i0, nl)
        candidates.append((val, idx is not None, -1 - idx if idx is not None else None))

    best = _UNSET
    for val, att, idx in candidates:
        if best is _UNSET:
            best = (val, att, idx)
            continue
        c = (val - best[0]).sign()
        if c > 0 or (c == 0 and att and not best[1]):
            best = (val, att, idx)
    value, attained, index = best
    return value, attained, (index if attained else None)
