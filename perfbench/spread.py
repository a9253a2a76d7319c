"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 perfbench/spread.py --workload pointwise --seeds 1 2 3 4 5

Runs the benchmark once per seed, one run at a time, and prints for each
metric the median and the quartile spread (q3 - q1) / median with the bound
it must stay within.  The benchmark is steady when every spread except
``setup_s`` is below a third of its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=600, check=True).stdout
        elapsed = time.perf_counter() - start
        result = json.loads(out.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values[name].append(metric["value"])
        print(f"seed {seed} ({elapsed:.0f} s): correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
              flush=True)
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        spread = stats.quartile_spread(vals) if len(vals) > 1 else float("nan")
        flag = "ok" if spread < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:>14}: median {statistics.median(vals):.5g} "
              f"{metric['unit']}  spread {spread:.4f}  bound {metric['bound']}  {flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
