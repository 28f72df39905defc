#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics.

    python3 perfbench/spread.py --workload serve-evict --seeds 1-10

Runs the benchmark once per seed (trace off, BENCHMARK.json's run_seconds)
and prints, per end-to-end metric, the median, the quartiles and the spread
(quartile distance as a share of the median) next to the metric's bound in
BENCHMARK.json. A spread under a third of the bound is steady.
"""

import argparse
import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]

    values = {}
    for seed in range(first, last + 1):
        out = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        print("seed %d: correct=%s" % (seed, result["correct"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for m in spec["end_to_end"]:
        q1, q2, q3 = stats.quartiles(values[m["name"]])
        share = stats.spread(values[m["name"]])
        print("%-18s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.3f bound %.2f%s" % (
            m["name"], q2, q1, q3, share, m["bound"],
            "" if share < m["bound"] / 3 else "  (not under a third of the bound)"))


if __name__ == "__main__":
    main()
