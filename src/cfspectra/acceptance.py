"""The acceptance suite: one checkable criterion per function.

Each criterion returns a Result, and Result.line() is its PASS/FAIL line;
run_suite runs them all.  Criterion 3 runs a sampled two-sided gate by default
and the full length-68 verification with full=True.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .alphabets import (enumerate_alphabets, farey_fractions, farey_words,
                        is_ordered_alphabet, theta, theta_inverse)
from .biseq import BiSeq, lambda_at, markov_value
from .cf import cylinder_length
from .cuts import Cut, classify_cut, push_cut
from .dimension import (C0, d_asymptotic, d_upper, lambert_inv, moran_bracket,
                        thm2_bound)
from .lang import (connecting_sequence, membership, parse_threshold,
                   sigma3_factors, sigma_enumerate)
from .surd import QuadSurd
from .words import ABWord, UVWord, Word, apply_subst


@dataclass
class Result:
    name: str
    ok: bool
    detail: str
    seconds: float

    @property
    def status(self):
        return "PASS" if self.ok else "FAIL"

    def line(self):
        return "criterion %s: %s - %s (%.1fs)" % (self.name, self.status,
                                                  self.detail, self.seconds)


def _result(name, fn):
    t0 = time.time()
    try:
        ok, detail = fn()
    except Exception as e:  # a crashed criterion is a failed criterion
        ok, detail = False, "exception: %r" % e
    return Result(name, ok, detail, time.time() - t0)


def criterion_1():
    """Exact spectrum values of the three smallest Markov periods."""
    targets = [("11", QuadSurd(0, 1, 1, 5)),
               ("22", QuadSurd(0, 1, 1, 8)),
               ("2211", QuadSurd(0, 1, 5, 221))]
    for period, expect in targets:
        val, attained, _ = markov_value(BiSeq.periodic(period))
        if not attained or val != expect:
            return False, "markov(per(%s)) != %s" % (period, expect)
    return True, "sqrt5, sqrt8, sqrt221/5 exact"


def criterion_2():
    """Language oracle agreement for n <= 24, zero unresolved."""
    three = Fraction(3)
    total = 0
    for n in range(1, 25):
        a = sigma_enumerate(three, n)
        b = sigma3_factors(n)
        if a.word_set() != b.word_set():
            return False, "oracles disagree at n=%d" % n
        if a.unresolved:
            return False, "%d unresolved at n=%d" % (len(a.unresolved), n)
        if not a.transposition_closed():
            return False, "not reversal-closed at n=%d" % n
        if n >= 3 and any("121" in w or "212" in w for w in a.words):
            return False, "121/212 not excluded at n=%d" % n
        total = len(a.words)
    return True, "all n<=24 agree; |Sigma(3,24)|=%d" % total


def _mutate(word, rng):
    w = list(word)
    k = rng.randrange(len(w))
    w[k] = "1" if w[k] == "2" else "2"
    return "".join(w)


def criterion_3(full=False):
    """Length-68 language stability at threshold 3 + 6^-204."""
    t = parse_threshold("3+6^-204")
    if full:
        a = sigma_enumerate(t, 68)
        b = sigma3_factors(68)
        if a.word_set() != b.word_set():
            return False, "full: sets differ (%d vs %d)" % (len(a.words), len(b.words))
        if a.unresolved:
            return False, "full: %d unresolved" % len(a.unresolved)
        return True, "full: |Sigma(3,68)| = %d, two-sided equality" % len(a.words)
    rng = random.Random(68)
    base = sigma3_factors(68)
    words = base.sorted_words()
    inward = rng.sample(words, 500)
    for w in inward:
        cert = membership(Word(w), t, max_depth=12)
        if cert.verdict != "in":
            return False, "sampled in-word rejected: %s (%s)" % (w, cert.verdict)
    tried = 0
    checked = 0
    wordset = base.word_set()
    while checked < 500 and tried < 20000:
        tried += 1
        w = _mutate(rng.choice(words), rng)
        if w in wordset:
            continue
        cert = membership(Word(w), t, max_depth=12)
        if cert.verdict != "out":
            return False, "sampled out-word not refuted: %s (%s)" % (w, cert.verdict)
        checked += 1
    return True, "sampled gate: 500 in-words + %d out-words certified" % checked


def criterion_4():
    """Farey words reproduce F_n; adjacency gives alphabets; theta inverse."""
    for n in (5, 25, 60, 100):
        words = farey_words(n)
        fracs = farey_fractions(n)
        if [theta(w) for w in words] != fracs:
            return False, "theta image differs from F_%d" % n
        for x, y in zip(words, words[1:]):
            if not is_ordered_alphabet(x, y):
                return False, "non-alphabet adjacency in F_%d: (%s, %s)" % (n, x, y)
    count = 0
    for q in range(1, 201):
        for p in range(0, q + 1):
            if math.gcd(p, q) == 1:
                x = Fraction(p, q)
                if theta(theta_inverse(x)) != x:
                    return False, "theta round-trip fails at %s" % x
                count += 1
    return True, "F_n reproduced to n=100; %d round-trips" % count


def criterion_5():
    """Consecutive Farey triples: the triple word is out, trimmed words are in."""
    three = Fraction(3)
    triples = 0
    for n in range(2, 11):
        words = farey_words(n)
        for a, b, c in zip(words, words[1:], words[2:]):
            cat = a + b + c
            w = cat.to_word()
            cert = membership(w, three, max_depth=16)
            if cert.verdict != "out":
                return False, "triple %s%s%s not out (%s)" % (a, b, c, cert.verdict)
            for trimmed in (cat.head(), cat.body()):
                tcert = membership(trimmed.to_word(), three, max_depth=16)
                if tcert.verdict != "in":
                    return False, "trimmed %s of %s%s%s not in (%s)" % (
                        trimmed, a, b, c, tcert.verdict)
            triples += 1
    return True, "%d triples: out + both trims in" % triples


def criterion_6():
    """Word identities: alpha beta = beta^- a b alpha^+, the reversal laws,
    and the transposition law for substituted words."""
    for node in enumerate_alphabets(12):
        lhs = node.alpha + node.beta
        rhs = node.beta.body() + "ab" + node.alpha.head()
        if lhs.letters != rhs.letters:
            return False, "concat identity fails at %s" % node
    rng = random.Random(6)
    for _ in range(10 ** 4):
        w = ABWord("".join(rng.choice("ab") for _ in range(rng.randrange(1, 65))))
        wt = w.transpose()
        if ("b" + str(apply_subst("U", wt))) != (str(apply_subst("U", w))[::-1] + "b"):
            return False, "U reversal law fails on %s" % w
        if (str(apply_subst("V", wt)) + "a") != ("a" + str(apply_subst("V", w))[::-1]):
            return False, "V reversal law fails on %s" % w
        W = UVWord("".join(rng.choice("UV") for _ in range(rng.randrange(0, 11))))
        u, v = apply_subst(W, ABWord("a")), apply_subst(W, ABWord("b"))
        mid = u.head() + apply_subst(W, w) + v.body()
        mid_t = u.head() + apply_subst(W, wt) + v.body()
        if mid.transpose().letters != mid_t.letters:
            return False, "transposition law fails on (%s, %s)" % (W, w)
    return True, "8191 alphabets + 10^4 randomized identities"


def criterion_7():
    """Interval sandwiches around periodic-bar constructions."""
    rng = random.Random(7)
    periods = ["2211", "221122", "2222", "1111", "221111", "22"]
    for trial in range(10 ** 3):
        w = ABWord("".join(rng.choice("ab") for _ in range(rng.randrange(1, 8))))
        dw = str(w.to_word())
        lpad = "".join(rng.choice(("11", "22")) for _ in range(rng.randrange(0, 3)))
        rpad = "".join(rng.choice(("11", "22")) for _ in range(rng.randrange(0, 3)))
        seq = BiSeq.make(rng.choice(periods), lpad + "11" + dw[::-1] + "11",
                         "22" + dw + "22" + rpad, rng.choice(periods))
        lam = lambda_at(seq, 0)
        size = cylinder_length(dw)
        low = Fraction(3) + size / 144
        high = Fraction(3) + size / 3
        if not low < lam < high:
            return False, "sandwich fails for w=%s (trial %d)" % (w, trial)
        floor = Fraction(3) + Fraction(1, 6 ** (len(dw) + 5))
        if not lam > floor:
            return False, "6^-(|w|+5) floor fails for w=%s" % w
    return True, "10^3 exact sandwiches"


def _span_cuts_good(word, span_lo, span_hi):
    s = str(word)
    for j in range(1, len(s)):
        if span_lo <= j - 1 < span_hi or span_lo <= j < span_hi:
            got = classify_cut(Cut(Word(s[:j]), Word(s[j:])))
            if got.kind != "good":
                return False
    return True


def criterion_8():
    """Cut calculus: classification anchors, push-forwards, interior control."""
    if classify_cut(Cut.parse("2211|2211")).kind != "good":
        return False, "2211|2211 not good"
    if classify_cut(Cut.parse("2222|1111")).kind != "bad":
        return False, "2222|1111 not bad"
    words3 = [UVWord("".join(t)) for k in (1, 2, 3)
              for t in product("UV", repeat=k)]
    bases = {
        "good-symmetric": Cut.parse("2211|2211"),
        "bad-symmetric": Cut.parse("2222|1111"),
        "good-asymmetric": Cut(Word("22111122"), Word("11222211")),
        "bad-asymmetric": Cut(Word("22111111"), Word("22222211")),
    }
    for kind, cut in bases.items():
        expect = kind.split("-")[0]
        if classify_cut(cut).kind != expect:
            return False, "base %s cut misclassified" % kind
        for W in words3:
            image = push_cut(W, cut, kind)
            got = classify_cut(image)
            if got.kind != expect:
                return False, "push %s by %s gives %s" % (kind, W, got.kind)
    rng = random.Random(8)
    nodes = [a for a in enumerate_alphabets(3) if a.depth >= 1]
    done = 0
    tried = 0
    while done < 100:
        tried += 1
        if tried > 2000:
            return False, "control preconditions kept failing"
        node = rng.choice(nodes)
        r = node.alpha + node.beta
        x = r * rng.randrange(1, 3)
        y = r * rng.randrange(1, 3)
        word = (x + r + y).to_word()
        lo, hi = 2 * len(x), 2 * len(x) + 2 * len(r)
        if not _span_cuts_good(word, lo, hi):
            continue  # precondition not met; resample
        W = UVWord("".join(rng.choice("UV") for _ in range(rng.randrange(1, 4))))
        ix = apply_subst(W, x)
        ir = apply_subst(W, r)
        iy = apply_subst(W, y)
        u, v = apply_subst(W, ABWord("a")), apply_subst(W, ABWord("b"))
        if len(ix) < len(u) or len(iy) < len(v):
            continue
        image = (ix + ir + iy).to_word()
        lo2, hi2 = 2 * len(ix), 2 * len(ix) + 2 * len(ir)
        if not _span_cuts_good(image, lo2, hi2):
            return False, "control fails: %s on X=%s R=%s Y=%s" % (W, x, r, y)
        done += 1
    return True, "anchors + 56 pushes + 100 control instances"


def criterion_9():
    """Dimension brackets and monotone upper bounds."""
    b4 = moran_bracket(["1", "2"], level=4)
    b8 = moran_bracket(["1", "2"], level=8)
    b12 = moran_bracket(["1", "2"], level=12)
    if not (b4.lower <= b8.lower <= b12.lower and b12.upper <= b8.upper <= b4.upper):
        return False, "brackets not nested"
    if not (0.5313 in b12):
        return False, "level-12 bracket misses 0.5313"
    grid = []
    for n in range(2, 7):
        grid.append(d_upper(parse_threshold("3+6^-%d" % (3 * n)), 10))
    if any(grid[i + 1] > grid[i] + 1e-12 for i in range(len(grid) - 1)):
        return False, "d_upper not monotone on the 3+6^-3n grid: %s" % grid
    cap = d_upper(parse_threshold("sqrt(12)"), 8)
    if cap != 1.0:
        return False, "d_upper(sqrt12, 8) = %s, expected the cap 1" % cap
    if b12.width() > 0.02:
        return False, ("level-12 width %.4f > 0.02 (unattainable with the "
                       "distortion constant 2; see decisions ledger)" % b12.width())
    return True, "nested brackets, monotone grid, cap"


def criterion_10():
    """Asymptotics: Lambert round-trip, algebraic identity, bound value, shape."""
    rng = random.Random(10)
    for _ in range(100):
        y = rng.uniform(0.0, 1e6)
        x = lambert_inv(y)
        if abs(x * math.exp(x) - y) > 1e-12 * max(1.0, abs(y)):
            return False, "lambert round-trip fails at y=%r" % y
    for _ in range(50):
        rho = math.exp(-rng.uniform(10, 200))
        L = abs(math.log(rho))
        lhs = d_asymptotic(rho) * L / 2
        rhs = lambert_inv(math.exp(C0) * L)
        if abs(lhs - rhs) > 1e-9 * max(1.0, rhs):
            return False, "asymptotic identity fails at rho=%r" % rho
    v = thm2_bound(math.exp(-100), 0.0)
    if abs(v - 0.0307793) > 1e-6:
        return False, "thm2_bound(e^-100, 0) = %.9f" % v
    ratios = []
    for k in range(1, 21):
        rho = 6.0 ** (-6 * k)
        L = abs(math.log(rho))
        ratios.append(d_asymptotic(rho) * L / math.log(L))
    c1, c2 = min(ratios), max(ratios)
    if not (0 < c1 <= c2 and c2 / c1 < 10):
        return False, "shape ratios unbounded: [%.3f, %.3f]" % (c1, c2)
    vals = [d_asymptotic(6.0 ** (-3 * n)) for n in range(2, 41)]
    if any(b >= a for a, b in zip(vals, vals[1:])):
        return False, "main term not decreasing along 6^-3n"
    return True, "round-trips, identity, bound, shape in [%.3f, %.3f]" % (c1, c2)


def criterion_11():
    """Connecting sequences: finite exact values decreasing toward 3."""
    prev = None
    first = last = None
    for n in range(3, 13):
        seq = connecting_sequence("ab", n)
        val, attained, _ = markov_value(seq)
        if not val > Fraction(3):
            return False, "markov(connect(ab,%d)) <= 3" % n
        if prev is not None and (val - prev).sign() > 0:
            return False, "values increase at n=%d" % n
        prev = val
        if first is None:
            first = val
        last = val
    if not (last < first):
        return False, "no decrease from n=3 to n=12"
    return True, "m(connect(ab,n)) in (3, m(n-1)], n=3..12, ending %.8f" % float(last)


_CRITERIA = [
    ("1", criterion_1), ("2", criterion_2), ("3", criterion_3),
    ("4", criterion_4), ("5", criterion_5), ("6", criterion_6),
    ("7", criterion_7), ("8", criterion_8), ("9", criterion_9),
    ("10", criterion_10), ("11", criterion_11),
]


def run_suite(full=False):
    """Run the acceptance criteria; returns the list of Results."""
    results = []
    for name, fn in _CRITERIA:
        runner = (lambda f=fn: f(full=True)) if (name == "3" and full) \
            else (lambda f=fn: f())
        results.append(_result(name, runner))
    return results

