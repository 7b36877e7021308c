"""Exact-count self-check: two traced runs with one seed must count identically.

Usage (from the root of a checkout)::

    python3 smacsbench/selfcheck.py [--seed N] [--seconds S] [--workload NAME ...]

Runs the benchmark twice per workload with ``--trace 1`` and the same seed,
each in its own process, and compares every count-type per-layer metric
(``layers.COUNT_METRICS``).  Any difference is printed and the script exits
1, so a later change can name one of these counts as its claim.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, ROOT)
    from smacsbench.layers import COUNT_METRICS
    from smacsbench.run import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=4.0)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    differing = 0
    for workload in args.workload or WORKLOADS:
        runs = []
        for _ in range(2):
            command = [sys.executable, os.path.join(ROOT, "smacsbench", "run.py"),
                       "--workload", workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", "1"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(f"{workload}: run failed\n{done.stdout}{done.stderr}", file=sys.stderr)
                return 1
            metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
            runs.append({name: metrics[name]["value"] for name in COUNT_METRICS})
        for name in COUNT_METRICS:
            if workload == "wire-open-loop" and name == "api.wire.bytes_per_submit":
                continue  # reply sizes depend on which connection wins each race
            if runs[0][name] != runs[1][name]:
                differing += 1
                print(f"{workload}: {name} differs: {runs[0][name]} vs {runs[1][name]}")
        print(f"{workload}: {len(COUNT_METRICS)} counts compared")
    if differing:
        print(f"{differing} count(s) differ between same-seed runs")
        return 1
    print("every count repeats exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
