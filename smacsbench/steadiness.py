"""Repeat the benchmark over seeds and record each metric's median and quartiles.

Usage (from the root of a checkout)::

    python3 smacsbench/steadiness.py --seeds 10 [--workload NAME ...] [--out FILE]

Each workload runs once per seed (1..N), untraced, each run in its own
process exactly as the benchmark command is run.  For every end-to-end
metric the script prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread -- the interquartile distance as a share of the
median -- next to the bound in ``BENCHMARK.json``, and flags spreads above a
third of the bound.  The unscaled wall-clock figures each run prints
(``wall:<metric>``) are recorded the same way, for comparison.  ``--out``
writes the same record as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    record: dict = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    worst = 0.0
    for workload in args.workload or names:
        values: dict = {}
        for seed in range(1, args.seeds + 1):
            command = [*spec["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stdout, done.stderr, file=sys.stderr)
                return 1
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            # the same run's unscaled wall-clock figures, kept for comparison
            wall = next(line for line in lines if line.startswith("wall-clock: "))
            for item in wall[len("wall-clock: "):].split(", "):
                name, value = item.split(" ")
                values.setdefault("wall:" + name, []).append(float(value))
        rows = {}
        for name, series in values.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound, "values": series}
            flag = ("" if bound is None or spread <= bound / 3
                    else "  <-- above a third of the bound")
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:15s} {name:18s} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                  f"  spread {spread:.4f}  bound {bound}{flag}")
        record["workloads"][workload] = rows
        if args.out:  # after every workload, so a later failure keeps the data
            with open(args.out, "w", encoding="utf-8") as handle:
                json.dump(record, handle, indent=1)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
