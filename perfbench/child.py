"""One cold batch of a benchmark workload, in a fresh interpreter.

run.py starts this script once per batch, as
`python3 -I perfbench/child.py '<json spec>'`, and waits for it.  The
korbits caches (`orbits._REALIZATIONS`, `semigroup._LATTICES`, the `cg`
projection and product caches) live at module level, so every batch starts
them empty, as a CLI invocation does.

Set-up is everything up to the first timed call: interpreter start,
`import korbits` and input generation.  The child reports the monotonic time
at which set-up ended, and gauge samples taken right after it (speed.py);
the parent subtracts its own spawn time.  A probe child stops there.
Otherwise the items run one after another, with gauge samples between them
at least every SAMPLE_EVERY_S (more samples after a longer gap, since they
stand for the speed over a longer stretch), and the child prints one JSON
line with the per-item latencies and their speed-normalised values, the
failed item labels, its peak RSS, the work counters and, when traced, the
per-layer metrics.
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import time
import traceback

# SAMPLE_EVERY_S is below speed.WINDOW_S, so every item has a gauge sample
# within the window before it.
SAMPLE_EVERY_S = 0.05    # longest stretch of items between two gauge samples
SAMPLE_SPACING_S = 0.01  # one gauge call per this much of the gap ...
MIN_REPS, MAX_REPS = 3, 10   # ... within these limits; the window median drops outliers


def main():
    spec = json.loads(sys.argv[1])
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path[:0] = [os.path.join(spec["root"], "src"), here]
    import korbits
    import speed
    import workloads

    rng = random.Random(f"{spec['workload']}:{spec['seed']}")
    batch = workloads.build(spec["workload"], rng, spec["size"], spec["corrupt"],
                            spec["out_dir"])
    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["run_id"])
        tracer.install()
    setup_end = time.monotonic()
    speed.warm()
    setup_gauge = statistics.median(d for _, d in speed.sample(speed.SETUP_REPS))
    if spec["probe"]:
        print(json.dumps({"setup_end": setup_end, "setup_gauge": setup_gauge}))
        return 0

    def gauge_point(gap):
        return speed.sample(min(MAX_REPS, max(MIN_REPS, int(gap / SAMPLE_SPACING_S))))

    clock = time.perf_counter
    spans, failures = [], []
    samples = speed.sample(MAX_REPS)
    for label, fn in batch.items:
        gap = clock() - samples[-1][0]
        if gap > SAMPLE_EVERY_S:
            samples.extend(gauge_point(gap))
        t0 = clock()
        try:
            ok = fn()
        except Exception:   # a crashing item is a failed item; keep going
            traceback.print_exc()
            ok = False
        spans.append((t0, clock()))
        if not ok:
            failures.append(label)
    samples.extend(gauge_point(clock() - samples[-1][0]))
    latencies = [end - start for start, end in spans]
    normalised = [speed.normalise(end - start, speed.local_gauge(samples, start, end))
                  for start, end in spans]

    result = {
        "setup_end": setup_end,
        "setup_gauge": setup_gauge,
        "latencies": latencies,
        "normalised": normalised,
        "gauge_samples": len(samples),
        "failures": failures,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "counters": batch.counters(),
        "params": batch.params,
        "korbits_version": korbits.__version__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write_spans(spec["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
