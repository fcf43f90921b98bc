#!/usr/bin/env python3
"""Spread report: run one workload k times and print, for every metric,
its median, first and third quartile, and the quartile distance as a
share of the median.  Bounds in BENCHMARK.json are set from this report.

    python3 argusbench/spread.py --workload editor-session -k 10
    python3 argusbench/spread.py --workload deep-proof -k 5 --trace 1
    python3 argusbench/spread.py --workload cli-check --same-seed 7

Each run gets another seed (1..k) unless --same-seed is given.  With
--same-seed the allocation metrics must read the same in every run; the
report says whether they do.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXACT = ("alloc_kb_per_op", "peak_heap_mb")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("-k", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--same-seed", type=int, default=None)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]

    runs = []
    for i in range(args.k):
        seed = args.same_seed if args.same_seed is not None else i + 1
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            sys.exit(f"seed {seed}: outputs failed their checks")
        runs.append(res)
        print(f"run {i + 1}/{args.k} seed {seed}: attempted {res['attempted']} failed {res['failed']}",
              file=sys.stderr)

    shares = {r["failed"] / r["attempted"] for r in runs}
    print(f"{args.workload}: {args.k} runs of {seconds} s, trace {args.trace}; "
          f"failed share {'same in every run' if len(shares) == 1 else 'DIFFERS'}: {sorted(shares)}")
    print(f"{'metric':32} {'unit':6} {'q1':>14} {'median':>14} {'q3':>14} {'iqr/med':>8}")
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        unit = runs[0]["metrics"][name]["unit"]
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        share = (q3 - q1) / med if med else float("nan")
        note = ""
        if args.same_seed is not None and name in EXACT:
            note = "  exact" if len(set(vals)) == 1 else "  NOT EXACT"
        print(f"{name:32} {unit:6} {q1:14.6g} {med:14.6g} {q3:14.6g} {share:8.3f}{note}")


if __name__ == "__main__":
    main()
