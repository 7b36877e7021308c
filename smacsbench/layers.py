"""Per-layer metrics: span timings from the traced passes, exact counts from every pass.

Layer names follow the repository's modules: ``api`` (gateway, codec,
transport), ``core`` (token service, ACR, replication), ``consensus`` (the
Raft counter), ``crypto`` (signing and the signature cache), ``pipeline``
(mempool, builder, executor), ``chain`` (gas accounting) and ``storage``
(DurableStore and its WAL), plus the benchmark's own open-loop generator.
A workload that bypasses a layer reports 0 for it; on ``wire-open-loop``
the chain-side layers describe the settlement of the sampled tokens, which
is outside the timed phase.

Which end-to-end figure each layer should move, and where:

* ``api`` -- wire-open-loop ``issue_p50_ms``/``issue_p90_ms``; kitties-peak
  ``tx_per_s`` only slightly.
* ``core`` -- issuance per token moves kitties-peak ``tx_per_s`` and wire
  latency; the per-submission session cost dominates wire-open-loop and is
  amortised over ~35 requests per envelope on kitties-peak (Fig. 9).
* ``consensus`` -- wire latency and ``tx_per_s`` on both chain workloads.
* ``crypto`` -- client signing moves kitties-peak ``tx_per_s``; cache hits
  and misses move ``tx_per_s`` on both chain workloads, more on hostile-mix.
* ``pipeline`` -- admission is the largest share of kitties-peak
  ``tx_per_s``; wire-open-loop should not move.
* ``chain`` -- ``gas_per_tx``.
* ``storage`` -- kitties-peak ``tx_per_s`` (a small share).
* ``openloop`` -- when the generator runs late, wire latency measures the
  generator, not the server.
"""

from __future__ import annotations

#: mempool refusal reasons as the mempool words them -> metric suffix
REFUSALS = {
    "expired token": "expired_token",
    "token not signed by the trusted Token Service": "untrusted_signer",
    "duplicate one-time index in pool": "duplicate_index_in_pool",
    "one-time index already consumed on-chain": "index_consumed",
    "one-time index fell behind the bitmap window (token miss)": "index_behind_window",
    "bad nonce": "bad_nonce",
}

#: (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [
    ("api.client.submit_us_per_submit", "us", "lower"),
    ("api.gateway.self_us_per_submit", "us", "lower"),
    ("api.wire.bytes_per_submit", "bytes", "lower"),
    ("api.errors.DENIED", "count", "lower"),
    ("api.errors.other", "count", "lower"),
    ("core.issue_us_per_token", "us", "lower"),
    ("core.session_us_per_submit", "us", "lower"),
    ("core.tokens_issued", "count", "higher"),
    ("core.acr.denied", "count", "lower"),
    ("core.failovers", "count", "lower"),
    ("consensus.next_index_us", "us", "lower"),
    ("consensus.indexes", "count", "higher"),
    ("crypto.client_sign_us_per_tx", "us", "lower"),
    ("crypto.sigcache.hits_per_tx", "count/tx", "higher"),
    ("crypto.sigcache.misses_per_tx", "count/tx", "lower"),
    ("pipeline.mempool.admit_us_per_tx", "us", "lower"),
    ("pipeline.mempool.admitted", "count", "higher"),
    *[(f"pipeline.mempool.rejected.{slug}", "count", "lower")
      for slug in [*REFUSALS.values(), "other"]],
    ("pipeline.mempool.waste_ratio", "ratio", "lower"),
    ("pipeline.builder.build_us_per_block", "us", "lower"),
    ("pipeline.builder.tx_per_block", "count", "higher"),
    ("pipeline.builder.fill_ratio", "ratio", "higher"),
    ("pipeline.executor.prewarm_us_per_tx", "us", "lower"),
    ("pipeline.executor.execute_self_us_per_tx", "us", "lower"),
    ("pipeline.executor.prewarm_hits", "count", "higher"),
    ("pipeline.executor.prewarm_misses", "count", "lower"),
    ("pipeline.executor.smacs_denied", "count", "lower"),
    ("chain.verify_gas_per_tx", "gas", "lower"),
    ("chain.bitmap_gas_per_tx", "gas", "lower"),
    ("storage.commit_us_per_block", "us", "lower"),
    ("storage.wal_bytes_per_tx", "bytes", "lower"),
    ("storage.blocks_committed", "count", "higher"),
    ("openloop.send_lag_p90_ms", "ms", "lower"),
    ("openloop.wait_p50_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
]

#: per-layer metrics that are exact counts (identical for the same seed)
COUNT_METRICS = [
    name for name, unit, _ in PER_LAYER if unit in ("count", "count/tx", "bytes", "gas")
] + ["pipeline.mempool.waste_ratio", "pipeline.builder.fill_ratio"]


def refusal_slug(reason: str) -> str:
    return REFUSALS.get(reason, "other")


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return total * scale / count if count else 0.0


def per_layer(spans: dict, counts: dict, traced_passes: int, extra: "dict | None" = None) -> dict:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``spans`` is a :meth:`SpanRecorder.aggregate` over the traced passes;
    ``counts`` holds one pass's exact counts (every pass has the same), so
    per-unit timings divide by ``traced_passes`` times the pass's count.
    ``extra`` supplies values measured elsewhere (open-loop lag, tracing
    overhead and coverage).
    """

    def span(name: str, key: str = "total") -> float:
        return spans.get(name, {}).get(key, 0.0)

    def calls(name: str) -> int:
        return spans.get(name, {}).get("count", 0)

    def us_per(name: str, count: float, key: str = "total") -> float:
        return _per(span(name, key), count, 1e6)

    def us_per_call(name: str, key: str = "total") -> float:
        return us_per(name, calls(name), key)

    c = counts.get
    n = traced_passes
    executed = c("txs_executed", 0)
    committed = c("committed", 0)
    values = {
        "api.client.submit_us_per_submit": us_per_call("api.client.submit"),
        "api.gateway.self_us_per_submit": us_per_call("api.gateway.handle", "self"),
        "api.wire.bytes_per_submit": _per(c("wire_bytes", 0), c("round_trips", 0)),
        "api.errors.DENIED": c("errors.DENIED", 0),
        "api.errors.other": c("errors.other", 0),
        "core.issue_us_per_token": us_per("core.issue", c("requests", 0) * n),
        "core.session_us_per_submit": us_per_call("core.session"),
        "core.tokens_issued": c("tokens_issued", 0),
        "core.acr.denied": c("acr_denied", 0),
        "core.failovers": c("failovers", 0),
        "consensus.next_index_us": us_per_call("consensus.next_index"),
        "consensus.indexes": c("indexes", 0),
        "crypto.client_sign_us_per_tx": us_per_call("crypto.client_sign"),
        "crypto.sigcache.hits_per_tx": _per(c("sig_hits", 0), executed),
        "crypto.sigcache.misses_per_tx": _per(c("sig_misses", 0), executed),
        "pipeline.mempool.admit_us_per_tx": us_per("pipeline.mempool.admit",
                                                   c("txs_ingested", 0) * n),
        "pipeline.mempool.admitted": c("admitted", 0),
        **{f"pipeline.mempool.rejected.{slug}": c(f"rejected.{slug}", 0)
           for slug in [*REFUSALS.values(), "other"]},
        "pipeline.mempool.waste_ratio": _per(c("smacs_denied", 0), c("admitted", 0)),
        "pipeline.builder.build_us_per_block": us_per_call("pipeline.builder.build"),
        "pipeline.builder.tx_per_block": _per(executed, c("blocks", 0)),
        "pipeline.builder.fill_ratio": _per(c("gas_budget", 0),
                                            c("blocks", 0) * c("block_gas_limit", 1)),
        "pipeline.executor.prewarm_us_per_tx": us_per("pipeline.executor.prewarm", executed * n),
        "pipeline.executor.execute_self_us_per_tx": us_per("pipeline.executor.execute",
                                                           executed * n, "self"),
        "pipeline.executor.prewarm_hits": c("prewarm_hits", 0),
        "pipeline.executor.prewarm_misses": c("prewarm_misses", 0),
        "pipeline.executor.smacs_denied": c("smacs_denied", 0),
        "chain.verify_gas_per_tx": _per(c("verify_gas", 0), committed),
        "chain.bitmap_gas_per_tx": _per(c("bitmap_gas", 0), committed),
        "storage.commit_us_per_block": us_per_call("storage.commit"),
        "storage.wal_bytes_per_tx": _per(c("wal_bytes", 0), executed),
        "storage.blocks_committed": c("blocks_committed", 0),
        "openloop.send_lag_p90_ms": 0.0,
        "openloop.wait_p50_ms": 0.0,
        "trace.overhead": 0.0,
        "trace.uncovered_share": 0.0,
    }
    values.update(extra or {})
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}

