"""wire-open-loop: single-request submits over TCP at a fixed rate.

The ``build_service("replicated")`` gateway runs in a child process served
by :func:`repro.api.serve` (this file, run as a script, is that child), so
the generator and the server do not share one interpreter lock.  The
generator is the benchmark's own: a dispatcher thread releases arrival *i*
at ``i / RATE`` seconds whether or not earlier requests finished, and two
worker threads, each pinned to one pooled :func:`repro.api.connect`
client, send one request per arrival.  Latency runs from the arrival's due
time to its reply, so a stall charges every request queued behind it.

Each request pays the full per-submission session cost plus framing, codec
and socket; mempool, chain and storage are not on the timed path, so an
admission change should show no change here while a gateway, codec or
session change shows mostly here.  After the timed phase a sample of the
issued tokens is settled on a local chain (the output check that tokens
verify on chain, and the source of ``gas_per_tx``); on this workload the
per-layer figures of the chain-side layers describe that settlement.
"""

from __future__ import annotations

import bisect
import itertools
import json
import os
import queue
import subprocess
import sys
import threading
import time

ROUTE = "https://ts.smacs.example"
#: offered load: about a third of one server core on a 2-vCPU host (the
#: ~120/s of two-thirds left no headroom when the host slows down, and the
#: backlog then measured the host, not the server)
RATE = 80.0
ARRIVALS_PER_PASS = 320
WARMUP_REQUESTS = 24
SETTLED_PER_PASS = 32
WORKERS = 2
#: the server samples its own speed with a micro-probe this often; each
#: sample holds the interpreter lock for well under 0.1 ms
SAMPLE_EVERY_S = 0.002
#: server speed for a request: median of the samples this close to its due time
SPEED_WINDOW_S = 0.25


def _sample_speed(samples: list, stop: threading.Event) -> None:
    from smacsbench.harness import clock, micro_probe

    while not stop.wait(SAMPLE_EVERY_S):
        samples.append((clock(), micro_probe()))


def _server_main(seed: int, traced: bool) -> None:
    """Child process: serve the replicated TS until told to stop, then
    report spans, counts and peak RSS as one JSON line on stdout."""
    import resource

    from repro.api import ServiceGateway, build_service, serve, unwrap
    from repro.crypto.keys import KeyPair
    from repro.crypto.sigcache import SignatureCache

    from smacsbench.tracing import SpanRecorder

    cache = SignatureCache(maxsize=1 << 17)
    issuer = build_service(
        "replicated", keypair=KeyPair.from_seed(f"bench-ts-{seed}"), token_lifetime=3_600,
        seed=seed, signature_cache=cache,
    )
    service = unwrap(issuer)
    gateway = ServiceGateway()
    gateway.register(ROUTE, issuer)
    recorder = SpanRecorder()
    if traced:
        recorder.wrap(gateway, "handle", "api.gateway.handle")
        recorder.wrap(issuer, "submit", "core.issue")
        for replica in service.replicas:
            recorder.wrap(replica, "front_end_session_overhead", "core.session")
            recorder.wrap(replica.counter, "next_index", "consensus.next_index")
    server = serve(gateway, ("127.0.0.1", 0))

    def snapshot() -> dict:
        stats = server.stats()
        return {
            "tokens_issued": service.issued_count,
            "acr_denied": service.denied_count,
            "failovers": issuer.failovers,
            "indexes": max(service.counter_cluster.committed_values().values()),
            "wire_bytes": stats["bytes_received"] + stats["bytes_sent"],
            "round_trips": stats["frames_served"],
        }

    print(server.port, flush=True)
    base = {}
    samples: list = []
    stop = threading.Event()
    sampler = threading.Thread(target=_sample_speed, args=(samples, stop), daemon=True)
    for line in sys.stdin:
        if line.strip() == "go":
            base = snapshot()
            recorder.enabled = traced
            sampler.start()
            print("going", flush=True)
        elif line.strip() == "stop":
            break
    recorder.enabled = False
    stop.set()
    if sampler.is_alive():
        sampler.join(timeout=10)
    server.close()
    counts = {key: value - base.get(key, 0) for key, value in snapshot().items()}
    counts["server_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"counts": counts, "spans": recorder.aggregate(), "speed": samples}),
          flush=True)


class _Server:
    """The child process and its line protocol (port, go, stop -> report)."""

    def __init__(self, seed: int, traced: bool):
        here = os.path.dirname(os.path.abspath(__file__))
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(here, "wire.py"), str(seed), str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line.strip().isdigit():
            self.stop()
            raise RuntimeError(f"wire server did not start (said {line!r})")
        self.url = f"tcp://127.0.0.1:{int(line)}"

    def command(self, word: str) -> str:
        self.process.stdin.write(word + "\n")
        self.process.stdin.flush()
        return self.process.stdout.readline()

    def stop(self) -> "dict | None":
        """Ask the server to stop and report; kill it if it does not exit."""
        report = None
        if self.process.poll() is None:
            try:
                report = json.loads(self.command("stop"))
            except (OSError, ValueError):
                report = None
        self.process.stdin.close()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        self.process.stdout.close()
        return report


def run(seed: int, seconds: float, traced: bool, work: str, recorder, verdicts):
    """All passes of one wire-open-loop run: (passes, span aggregate, extras)."""
    from smacsbench import harness, tracing

    server_spans: dict = {}
    lags: list = []
    waits: list = []
    numbers = itertools.count()

    def run_pass(trace_this: bool) -> harness.Pass:
        directory = os.path.join(work, f"wire-{next(numbers)}")
        result, spans, pass_lags, pass_waits = _one_pass(
            seed, trace_this, directory, recorder, verdicts
        )
        if trace_this:
            tracing.merge(server_spans, spans)
        lags.extend(pass_lags)
        waits.extend(pass_waits)
        return result

    passes = harness.run_passes(run_pass, seconds, traced)
    spans = tracing.merge(recorder.aggregate(), server_spans)
    extra = {}
    if traced:
        untraced = [r for r in passes if not r.traced]
        traced_passes = [r for r in passes if r.traced]
        extra = {
            "openloop.send_lag_p90_ms": harness.percentile(lags, 0.9) * 1e3,
            "openloop.wait_p50_ms": harness.percentile(waits, 0.5) * 1e3,
            "trace.overhead": (
                harness.median([harness.to_reference(*pair)
                                for r in traced_passes for pair in r.latencies])
                / harness.median([harness.to_reference(*pair)
                                  for r in untraced for pair in r.latencies])
            ),
            # the client's root spans are the submits; the generator itself
            # (dispatch, queue hand-off) is the uncovered remainder
            "trace.uncovered_share": 1.0 - (
                spans.get("api.client.submit", {}).get("total", 0.0)
                / sum(v for r in traced_passes for v, _ in r.latencies)
            ),
        }
    extra["api.wire.bytes_per_submit"] = (
        sum(r.wire[0] for r in passes) / sum(r.wire[1] for r in passes)
    )
    return passes, spans, extra


def _one_pass(seed, traced, directory, recorder, verdicts):
    from repro.api import connect
    from repro.core.token_request import TokenRequest

    from smacsbench import chainloop, harness

    before = harness.probe()
    started = harness.clock()
    # the settlement node: same TS key as the server derives from the seed.
    # One client sends every request: which index a request gets depends on
    # which connection wins the race to the server, so with several clients
    # the senders of the settled sample (and its WAL bytes) would vary.
    system = chainloop.System(
        seed, {"c": 1}, chainloop.PAPER_LIFETIME,
        chainloop.required_bitmap_bits(chainloop.PAPER_LIFETIME, chainloop.KITTIES_PEAK),
        directory,
    )
    client = system.accounts["c"][0]
    contract = system.recorder.this
    server = _Server(seed, traced)
    endpoints = []
    try:
        endpoints = [connect(server.url, route=ROUTE) for _ in range(WORKERS)]
        harness.check(endpoints[0].health()["status"] == "ok", "wire server is not healthy")
        if traced:
            for endpoint in endpoints:
                recorder.wrap(endpoint, "submit", "api.client.submit")

        def request(i: int) -> TokenRequest:
            return TokenRequest.method_token(contract, client.address, "submit", one_time=True)

        tokens = {}
        for i in range(WARMUP_REQUESTS):
            outcome = endpoints[i % WORKERS].submit([request(i)])[0]
            harness.check(outcome.issued, "warm-up issuance failed")
            tokens[i] = outcome.token
        result = harness.Pass(setup_s=harness.clock() - started)
        harness.Timeline(result, before)  # brackets set-up with host-speed probes
        harness.check(server.command("go").strip() == "going", "wire server lost")
        replies = _open_loop(endpoints, request, recorder if traced else None)
    finally:
        for endpoint in endpoints:
            endpoint.close()
        report = server.stop()
    harness.check(report is not None, "wire server did not report")

    first_due = replies[0][1]
    last_reply = max(reply[4] for reply in replies)
    done = 0
    latencies, lags, waits = [], [], []
    errors = {"errors.DENIED": 0, "errors.other": 0}
    for i, due, sent, began, replied, outcome in replies:
        observed = "issued" if getattr(outcome, "issued", False) else f"error:{outcome!r}"
        if observed != "issued":
            code = getattr(getattr(outcome, "code", None), "value", None)
            errors["errors.DENIED" if code == "DENIED" else "errors.other"] += 1
        done += verdicts.record("wire-submit", "issued", observed)
        if observed == "issued":
            tokens[WARMUP_REQUESTS + i] = outcome.token
        latencies.append(replied - due)
        lags.append(sent - due)
        waits.append(began - due)
    # the open loop is paced by its schedule, so its throughput is reported
    # unscaled; each latency is scaled by the server's speed around it
    result.chunks.append((last_reply - first_due, done, harness.REFERENCE_PROBE_S))
    speeds = _server_speeds(report["speed"], [reply[1] for reply in replies])
    result.latencies.extend(zip(latencies, speeds))
    indexes = [token.index for token in tokens.values()]
    harness.check(len(set(indexes)) == len(indexes), "the wire service issued an index twice")

    # settle an evenly spread sample of the issued tokens on the local chain
    step = max(1, len(tokens) // SETTLED_PER_PASS)
    sample = sorted(tokens.items(), key=lambda item: item[1].index)[::step]
    system.start_counting()
    if traced:
        system.instrument(recorder)
        recorder.enabled = True
    txs = [system.sign(client, token.to_bytes(), 1) for _, token in sample]
    decisions, _ = system.settle(txs)
    recorder.enabled = False
    for tx, decision in zip(txs, decisions):
        verdicts.record("wire-settle", "committed", system.observe(tx, decision))
    result.gas = system.gas
    served = report["counts"]
    result.server_rss_mb = served.pop("server_rss_kib") / 1024.0
    # which index a request gets depends on which of the two connections
    # reaches the server first, and the reply's size on the index, so the
    # byte count is measured per pass rather than held to exact repetition
    result.wire = (served.pop("wire_bytes"), served.pop("round_trips"))
    result.counts = {**system.counts(), **served, **errors,
                     "requests": len(replies), "submits": len(replies)}
    system.check_outputs()
    system.close()
    return result, report["spans"], lags, waits


def _server_speeds(samples: list, times: "list[float]") -> "list[float]":
    """Server speed (in probe seconds) around each instant, from its samples."""
    from smacsbench import harness

    samples.sort()
    stamps = [stamp for stamp, _ in samples]
    scale = harness.REFERENCE_PROBE_S / harness.REFERENCE_MICRO_S
    speeds = []
    for instant in times:
        low = bisect.bisect_left(stamps, instant - SPEED_WINDOW_S)
        high = bisect.bisect_right(stamps, instant + SPEED_WINDOW_S)
        harness.check(high > low, "the wire server took no speed samples")
        speeds.append(harness.median([value for _, value in samples[low:high]]) * scale)
    return speeds


def _open_loop(endpoints, request, recorder):
    """Release arrivals on schedule; return (i, due, sent, began, replied, outcome)."""
    arrivals: "queue.Queue" = queue.Queue()
    replies: list = []
    lock = threading.Lock()

    def worker(endpoint) -> None:
        while True:
            item = arrivals.get()
            if item is None:
                return
            i, due, sent = item
            began = time.perf_counter()
            try:
                outcome = endpoint.submit([request(i)])[0]
            except Exception as error:  # a transport failure is this arrival's outcome
                outcome = error
            replied = time.perf_counter()
            with lock:
                replies.append((i, due, sent, began, replied, outcome))

    threads = [threading.Thread(target=worker, args=(endpoint,), daemon=True)
               for endpoint in endpoints]
    for thread in threads:
        thread.start()
    if recorder is not None:
        recorder.enabled = True
    start = time.perf_counter() + 0.01
    try:
        for i in range(ARRIVALS_PER_PASS):
            due = start + i / RATE
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            arrivals.put((i, due, time.perf_counter()))
    finally:
        for _ in threads:
            arrivals.put(None)
        for thread in threads:
            thread.join(timeout=60)
        if recorder is not None:
            recorder.enabled = False
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("open-loop workers did not finish")
    return sorted(replies)


if __name__ == "__main__":
    _ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]
    _server_main(int(sys.argv[1]), sys.argv[2] == "1")
