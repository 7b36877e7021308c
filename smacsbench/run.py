"""SMACS benchmark: one workload, one seed, every metric by name and unit.

Usage (from the root of a checkout)::

    python3 smacsbench/run.py --workload kitties-peak --seed 1 --seconds 12 --trace 0

Workloads (see ``chainloop.py`` and ``wire.py`` for why each exists):

* ``kitties-peak``   -- the §VI-A CryptoKitties peak through the full loop,
  SQLite DurableStore with a WAL fsync per block;
* ``hostile-mix``    -- the same loop on seeded adversarial rounds, every
  operation checked against its expected verdict;
* ``wire-open-loop`` -- single-request submits at a fixed rate over TCP to a
  gateway served by a child process.

The run builds a fresh system several times from the seed, times only the
loop, checks the outputs and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
whose passes alternate untraced / traced.  Timings are in reference
seconds (see ``harness.py``); the line before the result gives the same
run's unscaled wall-clock figures.  An output-check failure prints no
result and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("kitties-peak", "hostile-mix", "wire-open-loop")


def _parse(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run(args: argparse.Namespace) -> dict:
    from smacsbench import harness, layers
    from smacsbench.tracing import SpanRecorder

    recorder = SpanRecorder()
    if args.trace:
        from repro.chain.transaction import Transaction

        recorder.wrap(Transaction, "sign_with", "crypto.client_sign")
    verdicts = harness.Verdicts()
    work = harness.work_dir(ROOT)
    try:
        if args.workload == "wire-open-loop":
            from smacsbench import wire

            passes, spans, extra = wire.run(
                args.seed, args.seconds, bool(args.trace), work, recorder, verdicts
            )
            rss_mb = max(result.server_rss_mb for result in passes)
        else:
            from smacsbench import chainloop

            loop_class = (chainloop.KittiesPeak if args.workload == "kitties-peak"
                          else chainloop.HostileMix)
            loop = loop_class(args.seed, work, recorder, verdicts)
            passes = harness.run_passes(loop.run_pass, args.seconds, bool(args.trace))
            spans = recorder.aggregate()
            extra = _trace_shares(passes, recorder) if args.trace else {}
            rss_mb = harness.peak_rss_mb()
        if args.trace:
            spans_path = os.path.join(os.path.dirname(work), f"spans-{args.workload}.json")
            recorder.dump(spans_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for index, result in enumerate(passes):
        print(f"pass {index}: setup {result.setup_s:.4f} s, {len(result.chunks)} chunks, "
              f"{result.settled} ops in {result.timed_s:.3f} s"
              f"{' (traced)' if result.traced else ''}")
    print(harness.latency_diagnostics(passes))
    for mismatch, count in sorted(verdicts.mismatches.items()):
        print(f"verdict mismatch x{count}: {mismatch}")
    if args.trace:
        traced = sum(1 for result in passes if result.traced)
        metrics = layers.per_layer(spans, passes[0].counts, traced, extra)
    else:
        metrics = harness.end_to_end(passes, verdicts, rss_mb, normalise=True)
        raw = harness.end_to_end(passes, verdicts, rss_mb, normalise=False)
        print("wall-clock: " + ", ".join(f"{name} {value:.6g}" for name, (value, _) in raw.items()))
    return {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _trace_shares(passes, recorder) -> dict:
    """Tracing overhead (traced over untraced time per operation, both scaled
    to the reference host) and the share of the traced timed wall that no
    span covers."""
    from smacsbench.harness import to_reference

    def per_op(traced: bool) -> float:
        chunks = [chunk for result in passes if result.traced == traced
                  for chunk in result.chunks]
        scaled = sum(to_reference(seconds, speed) for seconds, _, speed in chunks)
        return scaled / sum(done for _, done, _ in chunks)

    traced = [result for result in passes if result.traced]
    # the load generator's span also holds the per-request probes, which
    # the timed wall leaves out
    covered = recorder.root_time() - sum(result.probe_s for result in traced)
    return {
        "trace.overhead": per_op(True) / per_op(False),
        "trace.uncovered_share": 1.0 - covered / sum(result.timed_s for result in traced),
    }


def main(argv: "list[str] | None" = None) -> int:
    args = _parse(argv)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    import repro  # noqa: F401 -- fail before touching the disk when the program is missing
    from smacsbench.harness import CheckFailed

    try:
        result = _run(args)
    except CheckFailed as failure:
        print(f"output check failed: {failure}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
