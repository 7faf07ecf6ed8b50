"""One benchmark repetition in a fresh process, so module caches start cold.

Takes a job ``{"workload", "inputs", "trace", "spans"}`` as a JSON argument,
imports cfspectra from the checkout's ``src``, prepares the workload (input
load and warm-up), prints ``READY`` and then runs the timed call.  The last
line of stdout is a JSON object with ``setup_s``, ``setup_raw_s``, ``wall_s``,
``speed``, ``peak_rss_mb``, ``output``, ``latencies_ms`` and, in traced
repetitions, ``layers``.

Everything from the top of this file on is timed with a ``RefClock``
(reference seconds, see refclock.py), spans of traced repetitions too;
``setup_raw_s`` is in wall seconds.

Run by run.py; not meant to be started by hand.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from refclock import RefClock  # noqa: E402


def main():
    job = json.loads(sys.argv[1])
    clock = RefClock()
    clock.start()
    top = time.perf_counter()

    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[job["workload"]]
    tracer = None
    if job["trace"]:
        tracer = Tracer()
        tracer.install()
    state = wl.prepare(job["inputs"])
    ready = time.perf_counter()
    print("READY", flush=True)

    start = time.perf_counter()
    raw = wl.run(state, tracer)
    end = time.perf_counter()
    clock.stop()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    layers = tracer.metrics(clock.seconds) if tracer else None

    output, stamps = wl.output(state, raw)
    if tracer and job.get("spans"):
        tracer.dump(job["spans"])
    wall = clock.seconds(start, end)
    latencies = [1000 * clock.seconds(a, b) for a, b in stamps or [(start, end)]]
    result = {"setup_s": clock.seconds(top, ready), "setup_raw_s": clock.raw(top, ready),
              "wall_s": wall, "speed": clock.speed(),
              "peak_rss_mb": peak_kb / 1024, "output": output,
              "latencies_ms": latencies, "layers": layers}
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
