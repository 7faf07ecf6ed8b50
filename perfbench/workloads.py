"""The benchmark's four workloads: inputs, the timed call, and output checks.

Each workload has five parts:

- ``make_inputs(seed)`` runs in the parent and returns ``(inputs, expect)``.
  Only ``inputs`` reaches the child; ``expect`` holds the known classes the
  checks compare against.
- ``prepare(inputs)`` runs in the child before the timed region: input
  load and, for ``queries``, the service warm-up.  It counts as set-up time.
- ``run(state, tracer)`` is the timed region.
- ``output(state, raw)`` turns the result into JSON outside the timed region;
  it returns ``(output, stamps)``: the ``time.perf_counter()`` readings
  ``(start, end)`` of each operation, or ``None`` for one-shot workloads, whose
  one operation is the whole call.
- ``check(inputs, expect, output)`` runs in the parent, in a process that did
  not produce the output, by a route that did not produce it, and returns a
  ``Verdict``.

Sizes are scaled from the ROADMAP cases so that one repetition takes about 2
to 10 s on a 2-core machine and several fit in one run; see README.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

# sigma-near3: the ROADMAP `sigma` case through the CLI.  n = 34 is the
# smallest length whose tail tables are built once, at the same run cap as
# n = 40..48, so the code path matches the n = 68 case.
SIGMA_T = "3+6^-204"
SIGMA_N = 34

# dupper-mid: d_upper(3+6^-6, m), where the refutation search dominates.
DUPPER_T = "3+6^-6"
DUPPER_M = 12

# moran-l10: the free-block Moran bracket of the full {1,2} shift.
MORAN_LEVEL = 10
MORAN_DIM = 0.5312805  # dim E_2 (Jenkinson-Pollicott 2001), rounded

# queries: an interleaved stream of point queries against one long-lived
# process.  Most in-words (about 0.1 ms) are faster than cuts (0.3 to 0.7
# ms), Markov values take 6 to 15 ms and out-words 16 to 23 ms, so these
# shares put p50 inside the cut band and p90 in the middle of the out-word
# band (the slowest 20%).
QUERY_T = "3+6^-204"
QUERY_LEN = 40
QUERY_COUNT = 1200
QUERY_MIX = (("cut", 40), ("in", 30), ("value", 10), ("out", 20))
# Cuts whose class is known; adding {11,22}-block context on either side keeps
# a good cut good and a bad cut bad (context only removes completions).
CUT_BASES = (("2211|2211", "good"), ("222|222", "good"),
             ("22111122|11222211", "good"), ("2222|1111", "bad"),
             ("22111111|22222211", "bad"))
VALUE_DIGITS = 40  # decimal digits of each Markov value sent back for checking


@dataclass
class Verdict:
    decisions: int = 0       # verdicts or values the output should hold
    unresolved: int = 0      # honest "unresolved" verdicts
    wrong: int = 0           # missing, extra or incorrect outputs
    problems: list = field(default_factory=list)

    def fail(self, msg, count=1):
        self.wrong += count
        if len(self.problems) < 10:
            self.problems.append(msg)


def _verify_in(word, witness_period, t):
    """Re-check an "in" verdict from its printed witness period."""
    from cfspectra.biseq import BiSeq
    from cfspectra.lang import MembershipCertificate
    from cfspectra.words import Word
    cert = MembershipCertificate(Word(word), t, "in", BiSeq.periodic(witness_period))
    return cert.verify()


def _check_language(v, rows, unresolved, t, n, exact):
    """Rows [word, verdict, "per(P)", depth] must all be verified "in" words;
    together with the unresolved words they must cover sigma3_factors(n), and
    with exact=True the rows alone must equal it."""
    from cfspectra.lang import sigma3_factors
    expected = sigma3_factors(n).word_set()
    got = set()
    for word, verdict, witness, _ in rows:
        got.add(word)
        if verdict != "in" or not witness.startswith("per("):
            v.fail("%s: verdict %r witness %r" % (word, verdict, witness))
        elif not _verify_in(word, witness[4:-1], t):
            v.fail("%s: certificate does not verify" % word)
    covered = got | set(unresolved)
    missing = expected - (got if exact else covered)
    extra = (got - expected) if exact else set()
    if missing:
        v.fail("%d words of sigma3_factors(%d) missing, e.g. %s"
               % (len(missing), n, min(missing)), len(missing))
    if extra:
        v.fail("%d words outside sigma3_factors(%d), e.g. %s"
               % (len(extra), n, min(extra)), len(extra))
    v.decisions += len(covered | missing)
    v.unresolved += len(unresolved)


# ------------------------------------------------------------- sigma-near3

class SigmaNear3:
    @staticmethod
    def make_inputs(seed):
        argv = ["sigma", "--t", SIGMA_T, "--n", str(SIGMA_N), "-f", "json"]
        return {"argv": argv}, None

    @staticmethod
    def prepare(inputs):
        from cfspectra import cli
        return cli, inputs["argv"]

    @staticmethod
    def run(state, tracer):
        cli, argv = state
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    @staticmethod
    def output(state, raw):
        code, stdout = raw
        return {"code": code, "stdout": stdout}, None

    @staticmethod
    def check(inputs, expect, out):
        from cfspectra.lang import parse_threshold
        v = Verdict()
        payload = json.loads(out["stdout"])
        unresolved = [row[0] for row in payload["unresolved"]]
        _check_language(v, payload["words"], unresolved,
                        parse_threshold(SIGMA_T), SIGMA_N, exact=True)
        if payload["count"] != len(payload["words"]):
            v.fail("count %r for %d rows" % (payload["count"], len(payload["words"])))
        if out["code"] != (2 if unresolved else 0):
            v.fail("exit code %r" % out["code"])
        return v


# -------------------------------------------------------------- dupper-mid

class DupperMid:
    @staticmethod
    def make_inputs(seed):
        return {"t": DUPPER_T, "m": DUPPER_M}, None

    @staticmethod
    def prepare(inputs):
        from cfspectra import dimension, lang
        return dimension, lang, lang.parse_threshold(inputs["t"]), inputs["m"]

    @staticmethod
    def run(state, tracer):
        dimension, lang, t, m = state
        # d_upper imports lang.sigma_enumerate at call time; keep its result
        # so the language behind the bound can be checked
        captured = []
        enumerate_ = lang.sigma_enumerate

        def capture(*args, **kwargs):
            captured.append(enumerate_(*args, **kwargs))
            return captured[-1]

        lang.sigma_enumerate = capture
        try:
            return dimension.d_upper(t, m), captured[-1]
        finally:
            lang.sigma_enumerate = enumerate_

    @staticmethod
    def output(state, raw):
        d, ls = raw
        return {"d_upper": d,
                "words": [list(ls.words[w].row()) for w in sorted(ls.words)],
                "unresolved": sorted(ls.unresolved)}, None

    @staticmethod
    def check(inputs, expect, out):
        from cfspectra.lang import parse_threshold
        v = Verdict()
        _check_language(v, out["words"], out["unresolved"],
                        parse_threshold(DUPPER_T), DUPPER_M, exact=False)
        if not 0 < out["d_upper"] <= 1:
            v.fail("d_upper = %r outside (0, 1]" % out["d_upper"])
        return v


# --------------------------------------------------------------- moran-l10

class MoranL10:
    @staticmethod
    def make_inputs(seed):
        return {"blocks": ["1", "2"], "level": MORAN_LEVEL}, None

    @staticmethod
    def prepare(inputs):
        from cfspectra import dimension
        return dimension, inputs["blocks"], inputs["level"]

    @staticmethod
    def run(state, tracer):
        dimension, blocks, level = state
        return dimension.moran_bracket(blocks, level=level)

    @staticmethod
    def output(state, raw):
        return {"lower": raw.lower, "upper": raw.upper, "level": raw.level,
                "word_count": raw.word_count}, None

    @staticmethod
    def check(inputs, expect, out):
        v = Verdict(decisions=1)
        if not out["lower"] <= MORAN_DIM <= out["upper"]:
            v.fail("bracket [%r, %r] misses %r" % (out["lower"], out["upper"], MORAN_DIM))
        if out["word_count"] != 2 ** MORAN_LEVEL or out["level"] != MORAN_LEVEL:
            v.fail("%r cylinders at level %r" % (out["word_count"], out["level"]))
        return v


# ----------------------------------------------------------------- queries

def _digits(rng, lo, hi):
    return "".join(rng.choice("12") for _ in range(rng.randint(lo, hi)))


def _mp_markov(left_period, left_transient, right_transient, right_period):
    """sup_i lambda_i of ...(lp) lt | rt (rp)... by 60-digit mpmath evaluation
    of truncated continued fractions, with no exact surd arithmetic.

    Positions run over the transients plus 120 digits of each periodic side,
    and every continued fraction is truncated 120 digits further out, so both
    the truncation and the distance to a periodic limit are below 1e-45.
    """
    import mpmath
    pad = 120
    nl = len(left_transient) + 2 * pad
    nr = len(right_transient) + 2 * pad
    left = left_period * (nl // len(left_period) + 1) + left_transient
    right = right_transient + right_period * (nr // len(right_period) + 1)
    s = [int(c) for c in left[-nl:] + right[:nr]]  # position i is s[i + nl]
    with mpmath.workdps(60):
        fwd = [mpmath.mpf(s[-1])] * len(s)  # fwd[k] = [s[k]; s[k+1], ...]
        for k in range(len(s) - 2, -1, -1):
            fwd[k] = s[k] + 1 / fwd[k + 1]
        back = [mpmath.mpf(0)] * (len(s) + 1)  # back[k] = [0; s[k-1], s[k-2], ...]
        for k in range(1, len(s) + 1):
            back[k] = 1 / (s[k - 1] + back[k - 1])
        lo, hi = nl - len(left_transient) - pad, nl + len(right_transient) + pad
        return max(fwd[k] + back[k] for k in range(lo, hi))


class Queries:
    @staticmethod
    def make_inputs(seed):
        from cfspectra.lang import factor_witness_map
        rng = random.Random(seed)
        # every length-n factor of the periodic family is in Sigma(3, n), and
        # at 3+6^-204 and n <= 68 no other word is (sigma-near3 checks this)
        members = sorted(factor_witness_map(QUERY_LEN))
        member_set = set(members)
        kinds = [k for k, pct in QUERY_MIX for _ in range(QUERY_COUNT * pct // 100)]
        rng.shuffle(kinds)
        queries, expect = [], []
        for kind in kinds:
            if kind == "in":
                queries.append(["member", rng.choice(members)])
                expect.append("in")
            elif kind == "out":
                while True:
                    w = rng.choice(members)
                    i = rng.randrange(QUERY_LEN)
                    w = w[:i] + ("1" if w[i] == "2" else "2") + w[i + 1:]
                    if w not in member_set:
                        break
                queries.append(["member", w])
                expect.append("out")
            elif kind == "value":
                queries.append(["value", [_digits(rng, 1, 6), _digits(rng, 0, 6),
                                          _digits(rng, 0, 6), _digits(rng, 1, 6)]])
                expect.append(None)
            else:
                base, cls = rng.choice(CUT_BASES)
                left, right = base.split("|")
                left = "".join(rng.choice(("11", "22")) for _ in range(rng.randint(0, 3))) + left
                right += "".join(rng.choice(("11", "22")) for _ in range(rng.randint(0, 3)))
                queries.append(["cut", [left, right]])
                expect.append(cls)
        return {"t": QUERY_T, "queries": queries}, expect

    @staticmethod
    def prepare(inputs):
        from cfspectra import biseq, cuts, lang
        from cfspectra.words import Word
        t = lang.parse_threshold(inputs["t"])
        calls = []
        for kind, arg in inputs["queries"]:
            if kind == "member":
                calls.append((kind, lang.membership, (Word(arg), t)))
            elif kind == "value":
                calls.append((kind, biseq.markov_value, (biseq.BiSeq.make(*arg),)))
            else:
                calls.append((kind, cuts.classify_cut, (cuts.Cut(Word(arg[0]), Word(arg[1])),)))
        # warm-up query: builds the tail tables and the length-n factor map
        lang.membership(Word("2" * QUERY_LEN), t)
        return calls

    @staticmethod
    def run(state, tracer):
        clock = time.perf_counter
        results, stamps = [], []
        for i, (_, fn, args) in enumerate(state):
            if tracer is not None:
                tracer.request = i
            start = clock()
            results.append(fn(*args))
            stamps.append((start, clock()))
        return results, stamps

    @staticmethod
    def output(state, raw):
        results, stamps = raw
        out = []
        for (kind, _, _), res in zip(state, results):
            if kind == "member":
                out.append([res.verdict, str(res.witness.right_period) if res.witness else None])
            elif kind == "value":
                value, attained, index = res
                out.append([value.decimal(VALUE_DIGITS), attained, index])
            else:
                out.append([res.kind])
        return {"results": out}, stamps

    @staticmethod
    def check(inputs, expect, out):
        import mpmath
        from cfspectra.lang import parse_threshold
        t = parse_threshold(inputs["t"])
        queries, results = inputs["queries"], out["results"]
        v = Verdict(decisions=len(queries))
        if len(results) != len(queries):
            v.fail("%d results for %d queries" % (len(results), len(queries)),
                   abs(len(queries) - len(results)))
        for (kind, arg), exp, got in zip(queries, expect, results):
            if kind == "value":
                with mpmath.workdps(60):
                    err = abs(mpmath.mpf(got[0]) - _mp_markov(*arg))
                    if err > mpmath.mpf(10) ** (2 - VALUE_DIGITS):
                        v.fail("markov_value%r = %s, mpmath differs by %s"
                               % (tuple(arg), got[0], mpmath.nstr(err, 3)))
            elif got[0] == "unresolved":
                v.unresolved += 1
            elif got[0] != exp:
                v.fail("%s %r: %s, expected %s" % (kind, arg, got[0], exp))
            elif got[0] == "in" and not _verify_in(arg, got[1], t):
                v.fail("member %s: certificate does not verify" % arg)
        return v


WORKLOADS = {
    "sigma-near3": SigmaNear3,
    "dupper-mid": DupperMid,
    "moran-l10": MoranL10,
    "queries": Queries,
}
