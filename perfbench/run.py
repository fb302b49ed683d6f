"""korbits benchmark runner.

    python3 perfbench/run.py --workload orbit-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a korbits checkout.  Every batch of work runs in a
fresh interpreter (child.py), started from this process one at a time: a
closed loop with one client.  A run first starts a few set-up probes, then
repeats the seed's batch until the next one would overrun `--seconds`
(at least MIN_BATCHES times).  Times are normalised to a nominal host
speed with the gauge loop of speed.py, timed alongside.  The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with `--trace 0`, the per-layer
metrics with `--trace 1`.  The line before it holds the environment, the
work counters and the error rate.

Exit codes: 0 every output verified, 1 a verification failed or a batch
crashed, 2 no korbits source in the working directory or bad arguments.
See README.md in this directory for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}
MIN_PERCENTILE_ITEMS = 100   # items a run must attempt for per-item percentiles

SETUP_PROBES = 5      # set-up-only children per run, besides the batches
MIN_BATCHES = 3       # untraced batches per run, whatever --seconds says
RUN_LIMIT_S = 170     # every run, even with slow batches, ends within 3 minutes


# The eight per-orbit stages whose summed time should cover most of an
# orbit-sweep batch.
ORBIT_STAGES = [name for module, attr, name in tracer.TARGETS
                if module == "orbits" and attr != "realization"]


class BenchError(Exception):
    pass


def layer_unit(name):
    last = name.rsplit(".", 1)[-1]
    if last in ("s", "self_s") or name in ("trace.traced_wall_s", "trace.untraced_wall_s"):
        return "s"
    if last in ("hit_ratio", "yield_ratio", "overhead"):
        return "ratio"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_child(spec, deadline):
    """Start one child, wait for it, and return its parsed result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"run time limit of {RUN_LIMIT_S} s reached")
    spawn_gauge = statistics.median(d for _, d in speed.sample(speed.SETUP_REPS))
    spawn = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-I", CHILD, json.dumps(spec)],
                            stdout=subprocess.PIPE, text=True, cwd=spec["root"])
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"batch exceeded the run time limit of {RUN_LIMIT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"batch exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("batch printed no result")
    res = json.loads(lines[-1])
    res["raw_setup_s"] = res["setup_end"] - spawn
    res["setup_s"] = speed.normalise(res["raw_setup_s"],
                                     (spawn_gauge + res["setup_gauge"]) / 2)
    res["total_s"] = time.monotonic() - spawn
    return res


def measure(args, root):
    os.makedirs(OUT_DIR, exist_ok=True)
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    base = {"root": root, "workload": args.workload, "seed": args.seed,
            "size": args.size, "corrupt": args.corrupt_oracle, "out_dir": OUT_DIR,
            "run_id": f"{args.workload}-{args.seed}-{os.getpid()}",
            "spans_path": os.path.join(OUT_DIR, f"{args.workload}-{args.seed}.spans.tsv")}

    def child(probe, trace):
        return run_child(dict(base, probe=probe, trace=trace), hard_deadline)

    speed.warm()
    child(True, False)      # writes bytecode caches; not measured
    setups = [child(True, False)["setup_s"] for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    while True:
        # Traced runs alternate untraced and traced batches of the same
        # input, so their difference is the tracing overhead.
        trace = bool(args.trace) and len(plain) > len(traced)
        (traced if trace else plain).append(child(False, trace))
        if args.trace:
            enough = len(traced) == len(plain)
        else:
            enough = len(plain) >= MIN_BATCHES
        slowest = max(b["total_s"] for b in plain + traced)
        if enough and time.monotonic() - start + slowest > args.seconds:
            break
    return setups, plain, traced


def batch_wall(batches, key="normalised"):
    """Median over the batches of their summed item times."""
    return statistics.median(sum(b[key]) for b in batches)


def end_to_end(setups, batches):
    wall = batch_wall(batches)
    return {
        "setup_s": statistics.median(setups + [b["setup_s"] for b in batches]),
        "wall_s": wall,
        "items_per_s": len(batches[0]["normalised"]) / wall,
        "peak_rss_mb": statistics.median(b["rss_kb"] for b in batches) / 1024,
    }


def item_percentiles(batches):
    """Median and 90th percentile (statistics.quantiles, exclusive) of the
    items' normalised latencies, each the median over the run's batches
    (which all run the same items in the same order), when the run
    attempted enough items."""
    per_item = [statistics.median(col) for col in zip(*(b["normalised"] for b in batches))]
    attempted = len(per_item) * len(batches)
    out = {"items": len(per_item), "attempted": attempted}
    if attempted < MIN_PERCENTILE_ITEMS:
        out["note"] = f"fewer than {MIN_PERCENTILE_ITEMS} items attempted: no percentiles"
    else:
        out["item_p50_ms"] = 1e3 * statistics.median(per_item)
        out["item_p90_ms"] = 1e3 * statistics.quantiles(per_item, n=10)[-1]
    return out


def per_layer(plain, traced):
    """Layer times are normalised with their batch's overall gauge factor
    (normalised over raw item time), then the median over traced batches."""
    out = {}
    first = traced[0]["layers"]
    factors = [sum(b["normalised"]) / sum(b["latencies"]) for b in traced]
    for name, value in first.items():
        if layer_unit(name) == "count":
            out[name] = value       # equal in every traced batch
        elif layer_unit(name) == "s":
            out[name] = statistics.median(b["layers"][name] * f
                                          for b, f in zip(traced, factors))
        else:
            out[name] = statistics.median(b["layers"][name] for b in traced)
    out["cli.report_bytes"] = traced[0]["counters"].get("report_bytes", 0)
    traced_wall = batch_wall(traced)
    plain_wall = batch_wall(plain)
    out["trace.traced_wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = plain_wall
    out["trace.overhead"] = traced_wall / plain_wall
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(workloads.SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-check's small inputs")
    ap.add_argument("--corrupt-oracle", action="store_true",
                    help="check against wrong expected values (self-check only)")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "korbits", "__init__.py")):
        print(f"error: no korbits source under {root}/src; run from a checkout root",
              file=sys.stderr)
        return 2

    try:
        setups, plain, traced = measure(args, root)
    except BenchError as exc:
        print(f"error: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1

    batches = plain + traced
    attempted = sum(len(b["latencies"]) for b in batches)
    failed = sum(len(b["failures"]) for b in batches)
    # Work counts must repeat exactly: every batch does the same work.
    counters = [b["counters"] for b in batches]
    layer_counts = [{n: v for n, v in b["layers"].items() if layer_unit(n) == "count"}
                    for b in traced]
    repeatable = (all(c == counters[0] for c in counters)
                  and all(c == layer_counts[0] for c in layer_counts))
    correct = failed == 0 and repeatable

    sample = batches[0]
    info = {
        "env": {"nproc": os.cpu_count(), "python": platform.python_version(),
                "platform": platform.platform(), "git_commit": git_commit(root),
                "korbits_version": sample["korbits_version"]},
        "workload": args.workload, "seed": args.seed,
        "seed_changes_inputs": workloads.SEEDED[args.workload],
        "item": workloads.ITEM[args.workload],
        "size": args.size, "params": sample["params"],
        "samples": {"setups": len(setups) + len(batches), "batches": len(plain),
                    "traced_batches": len(traced), "items": attempted,
                    "gauge": sum(b["gauge_samples"] for b in batches)},
        # Unnormalised medians, for reading the normalised metrics against.
        "raw_wall_s": batch_wall(plain, "latencies"),
        "raw_setup_s": statistics.median(b["raw_setup_s"] for b in batches),
        "counters": counters[0], "counters_repeat_exactly": repeatable,
        "error_rate": failed / attempted,
        "failures": sorted({lbl for b in batches for lbl in b["failures"]})[:10],
    }
    if args.trace:
        metrics = per_layer(plain, traced)
        units = {name: layer_unit(name) for name in metrics}
        info["orbits_s_over_untraced_wall"] = sum(
            metrics[f"{name}.s"] for name in ORBIT_STAGES) / metrics["trace.untraced_wall_s"]
    else:
        metrics = end_to_end(setups, plain)
        units = END_TO_END_UNITS
        info["item_latency"] = item_percentiles(plain)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
