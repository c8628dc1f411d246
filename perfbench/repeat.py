#!/usr/bin/env python3
"""Run every workload many times and print each metric's median and quartiles.

    python3 perfbench/repeat.py [--runs 10] [--seconds 30]

Run from the root of a source checkout. Run i uses seed i (1, 2, ...). For
every end-to-end metric the script prints the median, the first and third
quartile (statistics.quantiles with n=4) and the quartile spread as a share
of the median; BENCHMARK.json's bounds are set from this output. It also
prints the share of failed operations, which must be the same in every run.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["resnet-fxp-4clients", "resnet-ntt-1client", "layers-fxp-2shards"]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    run_py = Path(__file__).resolve().parent / "run.py"
    out = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=30)
    opts = ap.parse_args()

    ok = True
    for workload in WORKLOADS:
        values: dict = {}
        units: dict = {}
        shares = set()
        for seed in range(1, opts.runs + 1):
            res = run_once(workload, seed, opts.seconds)
            ok = ok and res["correct"]
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"== {workload}: {opts.runs} runs, failed share {sorted(shares)}")
        print(f"  {'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8}  unit")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:32} {med:14.4f} {q1:14.4f} {q3:14.4f} {spread:8.3f}  {units[name]}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
