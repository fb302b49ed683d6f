"""Self-check of the benchmark, on tiny inputs.

    python3 perfbench/selfcheck.py        # from the root of a checkout

For every workload it proves three things:

1. a `--trace 0` run and a `--trace 1` run exit 0 and emit exactly the
   end-to-end and per-layer metrics BENCHMARK.json names, each with its
   unit, and every counted item passes;
2. a `--corrupt-oracle` run, which checks against a wrong expected value
   (for report-all: a wrong sha256), exits nonzero with failed > 0 and
   correct = false;

and, once, that run.py exits nonzero without a result line in a directory
holding only BENCHMARK.json and the benchmark's own files.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN = os.path.join("perfbench", "run.py")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, RUN] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result


def expected_metrics(spec, key):
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        base = ["--workload", workload, "--seed", "7", "--seconds", "1", "--size", "tiny"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, res = run(base + ["--trace", str(trace)])
            tag = f"{workload} --trace {trace}"
            if code != 0 or res is None:
                problems.append(f"{tag}: exit {code}, result {res is not None}")
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(res)}")
            if not (res["correct"] and res["failed"] == 0 and res["attempted"] >= 1):
                problems.append(f"{tag}: correct={res['correct']} failed={res['failed']}")
            want = expected_metrics(spec, key)
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            if got != want:
                missing = sorted(set(want) - set(got))
                extra = sorted(set(got) - set(want))
                wrong = sorted(n for n in set(want) & set(got) if want[n] != got[n])
                problems.append(f"{tag}: missing {missing} extra {extra} wrong units {wrong}")
            bad = [n for n, m in res["metrics"].items()
                   if not isinstance(m["value"], (int, float))]
            if bad:
                problems.append(f"{tag}: non-numeric values {bad}")
        code, res = run(base + ["--trace", "0", "--corrupt-oracle"])
        if code == 0 or res is None or res["correct"] or res["failed"] == 0:
            problems.append(f"{workload} --corrupt-oracle: exit {code}, result {res}")

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            shutil.copy(os.path.join(HERE, name), os.path.join(bare, "perfbench"))
    code, res = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                     "--seconds", "1", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or res is not None:
        problems.append(f"bare directory: exit {code}, result {res}")

    for line in problems:
        print(f"FAIL {line}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
