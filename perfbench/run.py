"""cfspectra benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Inputs are generated here from --seed; each
repetition then runs in a fresh single-threaded child process (child.py), one
after another (a closed loop with one caller), so cfspectra's module caches
start cold as they do for a command-line user.  Repetitions continue until
--seconds have passed, with at least two (four with --trace 1: untraced and
traced alternate).  Every output is checked here, after the timed region, by
a route that did not produce it.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
ones below; with --trace 1 they are the per-layer ones from tracer.py, and
the spans of the last traced repetition are written to
``.perfbench/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Times are in reference seconds (refclock.py): wall time scaled to the speed
# of an uncontended core, so that other tenants' load on the host cancels out.
END_TO_END = [
    ("setup_s", "s"),           # child start, import, input load, warm-up
    ("wall_s", "s"),            # the timed call (queries: the whole stream)
    ("query_p50_ms", "ms"),     # per-operation latency percentiles
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("resolved_share", "share"),  # 1 - (unresolved + wrong) / decisions
]

MIN_REPS = 2
RUN_LIMIT_S = 150  # stop starting repetitions after this, whatever --seconds says


def spawn(job, timeout):
    """Run one repetition; returns its result dict, or {"error": ...}."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), json.dumps(job)],
                            cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        ready = ""
        if select.select([proc.stdout], [], [], timeout)[0]:
            ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, err = proc.communicate(timeout=max(1.0, timeout - setup))
    except subprocess.TimeoutExpired:
        return {"error": "timed out after %.0f s" % timeout}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0 or ready.strip() != "READY" or not out.strip():
        return {"error": "exit %s: %s" % (proc.returncode, err.strip()[-2000:])}
    rep = json.loads(out.strip().splitlines()[-1])
    # the child times its own part of set-up in reference seconds; only the
    # process start before its first line stays in wall seconds
    rep["setup_s"] += setup - rep["setup_raw_s"]
    rep["total_s"] = time.perf_counter() - start
    return rep


def run_reps(name, inputs, seconds, trace):
    """Repetitions until `seconds` have passed; alternate untraced/traced."""
    spans = ROOT / ".perfbench" / ("spans-%s.jsonl" % name)
    if trace:
        spans.parent.mkdir(exist_ok=True)
    need = 2 * MIN_REPS if trace else MIN_REPS
    reps = []
    t0 = time.perf_counter()
    while True:
        traced = bool(trace) and len(reps) % 2 == 1
        job = {"workload": name, "inputs": inputs, "trace": traced,
               "spans": str(spans) if traced else None}
        rep = spawn(job, RUN_LIMIT_S + 20 - (time.perf_counter() - t0))
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(r.get("total_s", 0.0) for r in reps)
        if elapsed > RUN_LIMIT_S or "error" in rep:
            return reps
        if len(reps) >= need and elapsed + typical > seconds:
            return reps


def check_reps(wl, inputs, expect, reps):
    """(attempted, failed, unresolved, problems) over all repetitions.
    Identical outputs are checked once."""
    verdicts = {}
    attempted = failed = unresolved = 0
    problems = []
    for rep in reps:
        if "error" in rep:
            attempted += 1
            failed += 1
            problems.append(rep["error"])
            continue
        key = hashlib.sha256(json.dumps(rep["output"], sort_keys=True).encode()).hexdigest()
        if key not in verdicts:
            try:
                verdicts[key] = wl.check(inputs, expect, rep["output"])
            except (KeyError, IndexError, TypeError, ValueError) as e:
                verdicts[key] = workloads.Verdict(decisions=1)
                verdicts[key].fail("malformed output: %r" % e)
            problems.extend(verdicts[key].problems)
        v = verdicts[key]
        attempted += v.decisions
        failed += v.wrong
        unresolved += v.unresolved
    return attempted, failed, unresolved, problems


def end_to_end(reps, attempted, failed, unresolved):
    ok = [r for r in reps if "error" not in r]
    latencies = [x for r in ok for x in r["latencies_ms"]]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "wall_s": statistics.median(r["wall_s"] for r in ok),
        "query_p50_ms": statistics.median(latencies),
        "query_p90_ms": (statistics.quantiles(latencies, n=10, method="inclusive")[8]
                         if len(latencies) > 1 else latencies[0]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in ok),
        "resolved_share": 1 - (unresolved + failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(reps):
    traced = [r for r in reps if r["traced"] and "error" not in r]
    plain = [r for r in reps if not r["traced"] and "error" not in r]
    values = {name: (statistics.median_low if unit == "count" else statistics.median)(
                  [r["layers"][name] for r in traced])
              for name, unit in PER_LAYER if name != "trace.overhead_s"}
    values["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                  - statistics.median(r["wall_s"] for r in plain))
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None):
    if not (SRC / "cfspectra" / "__init__.py").is_file():
        print("run.py: no cfspectra sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be positive")

    # import every module the children use, so the bytecode cache is warm
    # before the first child starts and set-up times are comparable
    importlib.import_module("cfspectra.cli")
    wl = workloads.WORKLOADS[args.workload]
    inputs, expect = wl.make_inputs(args.seed)
    reps = run_reps(args.workload, inputs, args.seconds, args.trace)
    attempted, failed, unresolved, problems = check_reps(wl, inputs, expect, reps)
    for msg in problems[:20]:
        print("check: %s" % msg, file=sys.stderr)
    ok = [r for r in reps if "error" not in r]
    if args.trace and not any(r["traced"] for r in ok) or not ok:
        print("run.py: no repetition completed", file=sys.stderr)
        return 1
    print("run.py: %d repetitions, host slowdown %.2f (reference loop time / REF_S)"
          % (len(ok), statistics.median(r["speed"] for r in ok)), file=sys.stderr)
    metrics = per_layer(reps) if args.trace else end_to_end(reps, attempted, failed, unresolved)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
