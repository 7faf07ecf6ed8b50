"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public cfspectra functions from the outside.  A function is
replaced in the module that defines it and in every cfspectra module that
bound the same object by name: ``lang`` does ``from .biseq import
markov_value``, so patching ``biseq.markov_value`` alone would miss the calls
made from ``lang``.  Function-local imports (``from .cf import r_exponent``
inside ``lang._aabb_factor``) read the defining module at call time and so see
the wrapper too.

Three hook kinds:

- ``span``: one record (id, parent id, name, start, end) per call.  Self time
  is a span's duration minus the durations of its direct child spans.
- ``timed``: call count and the (start, end) of each call, no span record.
- ``count``: call count only.

Durations are converted to reference seconds (refclock.py) when the metrics
are computed, so they are comparable with the untraced end-to-end times.

The two hottest calls (``QuadSurd`` construction and ``SurdSum.sign``) are
``count`` and ``timed`` hooks, so their time stays inside the self time of the
span that called them.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import time

# (module, attribute, kind, metric prefix)
HOOKS = [
    ("cli", "main", "span", "cli.main"),
    ("lang", "sigma_enumerate", "span", "lang.sigma_enumerate"),
    ("lang", "tail_tables_for", "span", "lang.tail_tables_for"),
    ("lang", "factor_witness_map", "span", "lang.factor_witness_map"),
    ("lang", "period_markov", "span", "lang.period_markov"),
    ("lang", "membership", "span", "lang.membership"),
    ("biseq", "markov_value", "span", "biseq.markov_value"),
    ("biseq", "lambda_at", "span", "biseq.lambda_at"),
    ("surd", "QuadSurd.__init__", "count", "surd.QuadSurd.new"),
    ("surd", "SurdSum.sign", "timed", "surd.SurdSum.sign"),
    ("cf", "r_exponent", "span", "cf.r_exponent"),
    ("cf", "cylinder_length", "span", "cf.cylinder_length"),
    ("cf", "extremal_tail", "count", "cf.extremal_tail"),
    ("cuts", "classify_cut", "span", "cuts.classify_cut"),
    ("cuts", "position_bounds", "span", "cuts.position_bounds"),
    ("dimension", "moran_bracket", "span", "dimension.moran_bracket"),
    ("dimension", "d_upper", "span", "dimension.d_upper"),
]

# Span tags: a small summary of the return value kept with the span.
TAGS = {
    "lang.membership": lambda cert: cert.verdict,
    "dimension.moran_bracket": lambda bracket: bracket.word_count,
}

# Per-layer metrics, in the order they are reported, with their units.
PER_LAYER = [
    ("cli.main.self_s", "s"),
    ("lang.tail_tables_for.s", "s"),
    ("lang.tail_tables_for.calls", "count"),
    ("lang.factor_witness_map.s", "s"),
    ("lang.sigma_enumerate.self_s", "s"),
    ("lang.period_markov.calls", "count"),
    ("lang.period_markov.hit_ratio", "ratio"),
    ("lang.membership.self_s", "s"),
    ("lang.membership.in", "count"),
    ("lang.membership.out", "count"),
    ("lang.membership.unresolved", "count"),
    ("lang.membership.in_p50_ms", "ms"),
    ("lang.membership.out_p50_ms", "ms"),
    ("biseq.markov_value.calls", "count"),
    ("biseq.markov_value.s", "s"),
    ("biseq.lambda_at.calls", "count"),
    ("biseq.lambda_at.s", "s"),
    ("surd.QuadSurd.new", "count"),
    ("surd.SurdSum.sign.calls", "count"),
    ("surd.SurdSum.sign.s", "s"),
    ("cf.r_exponent.calls", "count"),
    ("cf.r_exponent.s", "s"),
    ("cf.cylinder_length.s", "s"),
    ("cf.extremal_tail.calls", "count"),
    ("cuts.classify_cut.s", "s"),
    ("cuts.classify_cut.p50_ms", "ms"),
    ("cuts.position_bounds.calls", "count"),
    ("dimension.moran_bracket.s", "s"),
    ("dimension.moran_bracket.cylinders", "count"),
    ("dimension.d_upper.self_s", "s"),
    ("trace.overhead_s", "s"),
]

# Counts that depend only on the inputs; they must repeat exactly.
DETERMINISTIC = [
    "lang.membership.in", "lang.membership.out", "lang.membership.unresolved",
    "surd.QuadSurd.new", "dimension.moran_bracket.cylinders",
    "lang.period_markov.calls",
]


class Tracer:
    """Spans and counters for one traced child process (single-threaded)."""

    def __init__(self):
        # span: (id, parent id, name, start, end, nested in same name, tag, request)
        self.spans = []
        self.counts = {}
        self.calls = {}  # timed hooks: (start, end) of each call
        self.request = None
        self._stack = []
        self._active = {}
        self._ids = itertools.count()

    def install(self):
        """Wrap every hook; call after the workload's modules are imported."""
        importlib.import_module("cfspectra.cli")  # loads every module that binds by name
        for module, attr, kind, name in HOOKS:
            mod = importlib.import_module("cfspectra." + module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(kind, name, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(kind, name, orig)
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").split(".")[0] != "cfspectra":
                    continue
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)

    def _wrap(self, kind, name, fn):
        counts, calls = self.counts, self.calls
        counts[name] = 0
        calls[name] = []
        clock = time.perf_counter
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted
        if kind == "timed":
            @functools.wraps(fn)
            def timed(*args, **kwargs):
                counts[name] += 1
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    calls[name].append((start, clock()))
            return timed

        tag = TAGS.get(name)
        stack, active, spans, ids = self._stack, self._active, self.spans, self._ids

        @functools.wraps(fn)
        def span(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            nested = active.get(name, 0) > 0
            stack.append(sid)
            active[name] = active.get(name, 0) + 1
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                spans.append((sid, parent, name, start, end, nested,
                              tag(result) if tag and result is not None else None,
                              self.request))
        return span

    def metrics(self, seconds):
        """Per-layer metrics for everything recorded so far, with durations
        taken by ``seconds(start, end)`` (trace.overhead_s is left to the
        caller, which times traced and untraced runs)."""
        names = {sid: name for sid, _, name, *_ in self.spans}
        span_s = {sid: seconds(start, end) for sid, _, _, start, end, *_ in self.spans}
        child_s = {}
        for sid, parent, *_ in self.spans:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + span_s[sid]
        calls, incl, self_s, durs = {}, {}, {}, {}
        for sid, parent, name, start, end, nested, tag, _ in self.spans:
            dur = span_s[sid]
            calls[name] = calls.get(name, 0) + 1
            if not nested:
                incl[name] = incl.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child_s.get(sid, 0.0)
            durs.setdefault((name, tag), []).append(dur)

        def p50_ms(name, tag=None):
            if tag is None:
                vals = [d for (n, _), ds in durs.items() if n == name for d in ds]
            else:
                vals = durs.get((name, tag), [])
            return 1000 * statistics.median(vals) if vals else 0.0

        def verdicts(v):
            return len(durs.get(("lang.membership", v), []))

        pm_calls = calls.get("lang.period_markov", 0)
        mv_under_pm = sum(1 for _, parent, name, *_ in self.spans
                          if name == "biseq.markov_value"
                          and names.get(parent) == "lang.period_markov")
        cylinders = sum(tag for _, _, name, _, _, _, tag, _ in self.spans
                        if name == "dimension.moran_bracket" and tag is not None)
        return {
            "cli.main.self_s": self_s.get("cli.main", 0.0),
            "lang.tail_tables_for.s": incl.get("lang.tail_tables_for", 0.0),
            "lang.tail_tables_for.calls": calls.get("lang.tail_tables_for", 0),
            "lang.factor_witness_map.s": incl.get("lang.factor_witness_map", 0.0),
            "lang.sigma_enumerate.self_s": self_s.get("lang.sigma_enumerate", 0.0),
            "lang.period_markov.calls": pm_calls,
            "lang.period_markov.hit_ratio":
                1 - mv_under_pm / pm_calls if pm_calls else 0.0,
            "lang.membership.self_s": self_s.get("lang.membership", 0.0),
            "lang.membership.in": verdicts("in"),
            "lang.membership.out": verdicts("out"),
            "lang.membership.unresolved": verdicts("unresolved"),
            "lang.membership.in_p50_ms": p50_ms("lang.membership", "in"),
            "lang.membership.out_p50_ms": p50_ms("lang.membership", "out"),
            "biseq.markov_value.calls": calls.get("biseq.markov_value", 0),
            "biseq.markov_value.s": incl.get("biseq.markov_value", 0.0),
            "biseq.lambda_at.calls": calls.get("biseq.lambda_at", 0),
            "biseq.lambda_at.s": incl.get("biseq.lambda_at", 0.0),
            "surd.QuadSurd.new": self.counts["surd.QuadSurd.new"],
            "surd.SurdSum.sign.calls": self.counts["surd.SurdSum.sign"],
            "surd.SurdSum.sign.s": sum(seconds(a, b) for a, b in self.calls["surd.SurdSum.sign"]),
            "cf.r_exponent.calls": calls.get("cf.r_exponent", 0),
            "cf.r_exponent.s": incl.get("cf.r_exponent", 0.0),
            "cf.cylinder_length.s": incl.get("cf.cylinder_length", 0.0),
            "cf.extremal_tail.calls": self.counts["cf.extremal_tail"],
            "cuts.classify_cut.s": incl.get("cuts.classify_cut", 0.0),
            "cuts.classify_cut.p50_ms": p50_ms("cuts.classify_cut"),
            "cuts.position_bounds.calls": calls.get("cuts.position_bounds", 0),
            "dimension.moran_bracket.s": incl.get("dimension.moran_bracket", 0.0),
            "dimension.moran_bracket.cylinders": cylinders,
            "dimension.d_upper.self_s": self_s.get("dimension.d_upper", 0.0),
        }

    def dump(self, path):
        """Write the recorded spans, one JSON array per line."""
        with open(path, "w") as f:
            for sid, parent, name, start, end, nested, tag, request in self.spans:
                f.write(json.dumps([sid, parent, name, start, end, tag, request]) + "\n")
