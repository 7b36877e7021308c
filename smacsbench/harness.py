"""Measurement plumbing shared by every workload: statistics, checks, memory.

Nothing here imports the program under test, so the statistics and the
output checks stay the benchmark's own no matter how ``src/`` changes.

Timings are reported in reference seconds.  On the 2-vCPU host the
benchmark was built on, the speed of identical pure-Python work swings by
up to 2x over seconds to minutes (other tenants), and no run length
averages that out.  So a fixed probe -- work shaped like the program's --
runs between the timed chunks and around every in-process submit (the wire
server samples itself with a shorter probe), and each timing is scaled by
``REFERENCE_PROBE_S`` over the probe seconds measured around it.  A slower
program moves the figures; a slower host moves the probe too and cancels
out.  Each run also prints its unscaled wall-clock figures.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import statistics
import time
from dataclasses import dataclass, field

#: the benchmark's one clock; every duration it reports comes from here
clock = time.perf_counter

_FIELD = 2**256 - 2**32 - 977
_LANE = (1 << 64) - 1


def _probe_body(size: int) -> int:
    """Fixed pure-Python work shaped like the program's: 256-bit modular
    multiplication (curve math), 64-bit lane xor/rotate (keccak) and small
    dict/tuple churn (world state); ``size`` scales all three."""
    x = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
    for i in range(38 * size):
        x = (x * x + i) % _FIELD
    lanes = [(i * 0x9E3779B97F4A7C15) & _LANE for i in range(25)]
    for _ in range(2 * size):
        for i in range(25):
            nxt = lanes[(i + 1) % 25]
            lanes[i] ^= ((nxt << 1) | (nxt >> 63)) & _LANE
    table = {}
    for i in range(50 * size):
        table[(i, b"slot")] = (i, str(i))
    return x ^ lanes[0] ^ len(table)


#: the probe's size; ``micro_probe`` runs one sixteenth of it
PROBE_SIZE = 16


def probe() -> float:
    """Seconds the fixed probe work takes right now (median of three)."""
    samples = []
    for _ in range(3):
        started = clock()
        _probe_body(PROBE_SIZE)
        samples.append(clock() - started)
    return sorted(samples)[1]


def micro_probe() -> float:
    """Seconds one sixteenth of the probe takes: short enough (tens of
    microseconds) to sample a server's speed between its requests."""
    started = clock()
    _probe_body(1)
    return clock() - started


class CheckFailed(Exception):
    """An output check failed: the run prints no result and exits non-zero."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
    return ordered[rank - 1]


def median(values: "list[float]") -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Lifetime peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def work_dir(root: str) -> str:
    """A fresh scratch directory inside the checkout for on-disk state."""
    base = os.path.join(root, ".smacsbench_work")
    os.makedirs(base, exist_ok=True)
    path = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(path, exist_ok=False)
    return path


@dataclass
class Verdicts:
    """Expected-versus-observed outcome of every operation a run attempted.

    An operation counts as failed only when its observed outcome differs
    from the one its inputs were built to produce: a forgery the chain
    reverts is a success, a forgery that commits is a failure.
    """

    attempted: int = 0
    failed: int = 0
    mismatches: dict = field(default_factory=dict)

    def record(self, kind: str, expected: str, observed: str) -> bool:
        self.attempted += 1
        if expected == observed:
            return True
        self.failed += 1
        key = f"{kind}: expected {expected}, got {observed}"
        self.mismatches[key] = self.mismatches.get(key, 0) + 1
        return False

    @property
    def correct(self) -> int:
        return self.attempted - self.failed


#: probe seconds on the reference host; timings are reported scaled to it
REFERENCE_PROBE_S = 0.00065
#: micro-probe seconds on the same host (measured interleaved: probe / 15.05)
REFERENCE_MICRO_S = 0.0000432


@dataclass
class Pass:
    """One fresh system: its set-up time, timed chunks and exact counts.

    Every timing carries the probe seconds measured around it (``speed``),
    so it can be scaled to the reference host.
    """

    setup_s: float = 0.0
    setup_speed: float = REFERENCE_PROBE_S
    #: (seconds, operations brought to their expected verdict, speed) per chunk
    chunks: list = field(default_factory=list)
    #: (seconds from a request's due time to its reply, speed) per request
    latencies: list = field(default_factory=list)
    gas: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    traced: bool = False
    #: peak RSS of a server child hosting the system (0 when it runs in-process)
    server_rss_mb: float = 0.0
    #: (envelope bytes, round trips) measured on the wire, when there is one
    wire: tuple = (0, 0)
    #: seconds of per-request probes taken inside the chunks (not in them)
    probe_s: float = 0.0

    @property
    def timed_s(self) -> float:
        return sum(seconds for seconds, _, _ in self.chunks)

    @property
    def settled(self) -> int:
        return sum(done for _, done, _ in self.chunks)


class Timeline:
    """Host-speed probes between the timed chunks of one pass.

    The probe before a chunk and the one after it bracket the host's speed
    while the chunk ran; the chunk carries their mean.  Latencies arrive
    already paired with the speed measured around each request.
    """

    def __init__(self, result: Pass, probe_before_setup: float):
        self.result = result
        self.last = probe()
        result.setup_speed = (probe_before_setup + self.last) / 2

    def chunk(self, seconds: float, done: int, latencies: "list[tuple]") -> None:
        now = probe()
        self.result.chunks.append((seconds, done, (self.last + now) / 2))
        self.last = now
        self.result.latencies.extend(latencies)


#: fresh systems built per run at least, so set-up is measured several times
MIN_PASSES = 3


def run_passes(run_pass, seconds: float, traced: bool) -> "list[Pass]":
    """Repeat fresh passes until ``seconds`` of wall time have gone by.

    Every pass rebuilds the system from the same seed, so set-up is measured
    several times and every pass must reproduce the first one's counts.  In
    a traced run passes alternate untraced/traced (untraced first), which
    gives the tracing overhead from the same run.
    """
    passes: list[Pass] = []
    started = clock()
    while len(passes) < MIN_PASSES or clock() - started < seconds:
        # every pass starts from the same collector state: the previous
        # pass's system is garbage now, and the benchmark's own long-lived
        # objects should not be re-scanned by every full collection
        gc.collect()
        gc.freeze()
        trace_this = traced and len(passes) % 2 == 1
        result = run_pass(trace_this)
        result.traced = trace_this
        passes.append(result)
        if passes[0].counts != result.counts:
            raise CheckFailed(
                "a pass rebuilt from the same seed produced different counts: "
                f"{_count_diff(passes[0].counts, result.counts)}"
            )
    return passes


def _count_diff(first: dict, other: dict) -> dict:
    keys = set(first) | set(other)
    return {k: (first.get(k), other.get(k)) for k in sorted(keys) if first.get(k) != other.get(k)}


def to_reference(seconds: float, speed: float) -> float:
    """Wall seconds measured while the probe took ``speed`` seconds, scaled
    to the reference host."""
    return seconds * REFERENCE_PROBE_S / speed


def _scaled(seconds: float, speed: float, normalise: bool) -> float:
    return to_reference(seconds, speed) if normalise else seconds


def throughput(passes: "list[Pass]", normalise: bool) -> float:
    """Operations at their expected verdict per second of timed work.

    The median of the per-chunk rates of every untraced pass: one chunk is
    one trace second / round of the loop, so a run holds dozens of them and
    a burst of host noise moves a few chunks, not the median.
    """
    return median([
        done / _scaled(seconds, speed, normalise)
        for result in passes
        if not result.traced
        for seconds, done, speed in result.chunks
        if seconds > 0
    ])


def end_to_end(passes: "list[Pass]", verdicts: Verdicts, rss_mb: float,
               normalise: bool) -> dict:
    """The seven end-to-end metrics from a run's untraced passes."""
    untraced = [result for result in passes if not result.traced]
    latencies = [_scaled(value, speed, normalise)
                 for result in untraced for value, speed in result.latencies]
    gas = [value for result in untraced for value in result.gas]
    return {
        "tx_per_s": (throughput(passes, normalise), "tx/s"),
        "issue_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "issue_p90_ms": (percentile(latencies, 0.90) * 1e3, "ms"),
        "success_rate": (verdicts.correct / verdicts.attempted, "fraction"),
        "gas_per_tx": (sum(gas) / len(gas), "gas"),
        "setup_s": (median([_scaled(r.setup_s, r.setup_speed, normalise) for r in passes]), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def latency_diagnostics(passes: "list[Pass]") -> str:
    untraced = [value for result in passes if not result.traced
                for value, _ in result.latencies]
    return (
        f"issuance latency: {len(untraced)} samples, "
        f"p50 {percentile(untraced, 0.5) * 1e3:.3f} ms, "
        f"p90 {percentile(untraced, 0.9) * 1e3:.3f} ms, "
        f"p99 {percentile(untraced, 0.99) * 1e3:.3f} ms (diagnostic only)"
    )
