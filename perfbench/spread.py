"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workload chains --seeds 1-10

For each metric it prints the median of the runs, the first and third
quartiles, and their distance as a share of the median, next to the bound
in BENCHMARK.json; then the share of failed operations of every run. Runs
one benchmark process at a time from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = ap.parse_args()
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
            flush=True)
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = quantiles(values, n=4)
        mid = median(values)
        spread = (q3 - q1) / mid if mid else float("nan")
        print(f"{name:24} {mid:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} "
              f"{bounds.get(name)}")
    shares = sorted({Fraction(r["failed"], r["attempted"]) for r in runs})
    print("failed share of attempted: " + ", ".join(map(str, shares)))
    print("correct: " + str(all(r["correct"] for r in runs)))


if __name__ == "__main__":
    main()
