#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

Runs one workload once per seed and prints, for every metric, the median
and the interquartile range as a share of the median (the statistic the
bounds in BENCHMARK.json are checked against).

    python3 perfbench/spread.py --workload decode-h256 --seeds 1-10 [--seconds 45] [--trace 0]

Run it from the repository root after building the benchmark once
(`cargo build --release --manifest-path perfbench/Cargo.toml`). Each run's
last output line is appended to perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="45")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", os.path.join(here, "target"))
    exe = os.path.join(target, "release", "perfbench")
    os.makedirs(os.path.join(here, "out"), exist_ok=True)
    log = os.path.join(here, "out", "spread-%s.jsonl" % args.workload)
    values = {}
    for seed in seeds(args.seeds):
        start = time.time()
        out = subprocess.run(
            [exe, "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600,
        )
        if out.returncode != 0:
            sys.exit("seed %d failed (%d):\n%s%s" % (seed, out.returncode, out.stdout, out.stderr))
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        notes = [l for l in lines if l.startswith("#")]
        with open(log, "a") as f:
            f.write(json.dumps({"seed": seed, "result": result, "notes": notes}) + "\n")
        for note in notes:
            if note.startswith("# failure"):
                print("seed %d: %s" % (seed, note))
        print("seed %d: %.1f s, correct=%s failed=%d/%d" % (
            seed, time.time() - start, result["correct"], result["failed"], result["attempted"]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    for name, vs in values.items():
        med = statistics.median(vs)
        if len(vs) >= 2:
            q1, _, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        print("%-40s median %14.6g  iqr/median %7.4f  n=%d" % (name, med, spread, len(vs)))


if __name__ == "__main__":
    main()
