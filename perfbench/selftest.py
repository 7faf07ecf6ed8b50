"""Self-tests of the benchmark itself (about two minutes):

    python3 perfbench/selftest.py

They run two traced repetitions of every workload and check that the
deterministic counts and outputs repeat exactly, that the real outputs pass
their checks, and that corrupted outputs (a word dropped, a verdict flipped)
are reported as failed.
"""

import copy
import json
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class BenchmarkSpec(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         tracer.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_fails_without_sources(self):
        (ROOT / ".perfbench").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            got = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                  "queries", "--seed", "1", "--seconds", "1"],
                                 cwd=bare, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(got.returncode, 0)
        self.assertEqual(got.stdout, "")


class Clock(unittest.TestCase):
    def test_reference_clock_adds_up(self):
        from refclock import RefClock
        clock = RefClock()
        clock.start()
        a = time.perf_counter()
        while time.perf_counter() - a < 0.3:
            sum(i * i for i in range(1000))
        m = time.perf_counter()
        while time.perf_counter() - m < 0.3:
            sum(i * i for i in range(1000))
        b = time.perf_counter()
        clock.stop()
        self.assertGreater(len(clock.loops), 10)
        self.assertLess(clock.raw(a, b), b - a)          # the loops are left out
        self.assertGreater(clock.raw(a, b), 0.8 * (b - a))
        self.assertAlmostEqual(clock.seconds(a, m) + clock.seconds(m, b),
                               clock.seconds(a, b), places=9)
        self.assertGreater(clock.seconds(a, b), 0)


class Workloads(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.runs = {}
        for name, wl in workloads.WORKLOADS.items():
            inputs, expect = wl.make_inputs(7)
            job = {"workload": name, "inputs": inputs, "trace": True, "spans": None}
            reps = [run.spawn(job, 170) for _ in range(2)]
            for rep in reps:
                if "error" in rep:
                    raise AssertionError("%s: %s" % (name, rep["error"]))
            cls.runs[name] = (wl, inputs, expect, reps)

    def failed(self, name, mutate=None):
        """Failed decisions reported for the first output, after mutate."""
        wl, inputs, expect, reps = self.runs[name]
        out = copy.deepcopy(reps[0]["output"])
        if mutate:
            mutate(out)
        return run.check_reps(wl, inputs, expect, [{"output": out}])[1]

    def test_deterministic_counts_and_outputs_repeat(self):
        for name, (_, _, _, (a, b)) in self.runs.items():
            for key in tracer.DETERMINISTIC:
                self.assertEqual(a["layers"][key], b["layers"][key], (name, key))
            self.assertEqual(a["output"], b["output"], name)

    def test_real_outputs_pass(self):
        for name in self.runs:
            self.assertEqual(self.failed(name), 0, name)

    def test_dropped_word_fails(self):
        def sigma(out):
            payload = json.loads(out["stdout"])
            payload["words"].pop(3)
            payload["count"] -= 1
            out["stdout"] = json.dumps(payload)

        def dupper(out):
            out["words"].pop(3)

        def queries(out):
            out["results"].pop()

        self.assertGreater(self.failed("sigma-near3", sigma), 0)
        self.assertGreater(self.failed("dupper-mid", dupper), 0)
        self.assertGreater(self.failed("queries", queries), 0)

    def test_flipped_verdict_fails(self):
        def sigma(out):
            payload = json.loads(out["stdout"])
            payload["words"][3][1] = "out"
            out["stdout"] = json.dumps(payload)

        def dupper(out):
            out["words"][3][1] = "out"

        def queries(out):
            flip = {"in": "out", "out": "in", "good": "bad", "bad": "good"}
            for res in out["results"]:
                if res[0] in flip:
                    res[0] = flip[res[0]]
                    return

        def moran(out):
            out["lower"] = out["upper"]  # a bracket that misses dim E_2

        self.assertGreater(self.failed("sigma-near3", sigma), 0)
        self.assertGreater(self.failed("dupper-mid", dupper), 0)
        self.assertGreater(self.failed("queries", queries), 0)
        self.assertGreater(self.failed("moran-l10", moran), 0)

    def test_wrong_markov_value_fails(self):
        def queries(out):
            for res in out["results"]:
                if len(res) == 3:  # [decimal, attained, index]
                    res[0] = res[0][:-12] + "000000000001"
                    return

        self.assertGreater(self.failed("queries", queries), 0)


if __name__ == "__main__":
    unittest.main()
