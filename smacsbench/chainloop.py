"""kitties-peak and hostile-mix: the paper's full loop in one process, no threads.

Every pass builds a fresh system from the seed -- chain, private signature
cache, Raft-replicated Token Service behind an in-process
:class:`~repro.api.ServiceGateway`, a SMACS-protected recorder with a
Tab. IV-sized one-time bitmap, an :class:`~repro.pipeline.ExecutionPipeline`
and (kitties-peak only) a SQLite :class:`~repro.storage.DurableStore` with a
WAL fsync per block -- then drives the timed loop one chunk at a time:
issue, client sign, admit, build, pre-warm + execute, commit.

* ``kitties-peak`` replays the §VI-A CryptoKitties peak window, one trace
  second per chunk.  Admission, client signing and batched issuance
  dominate, so pipeline, crypto and storage changes show here.
* ``hostile-mix`` runs the same loop (no DurableStore) on seeded rounds of
  honest one-time calls, a reusable-token replay storm, stolen one-time
  tokens resubmitted in new transactions, forgeries from an untrusted twin
  TS, expired tokens, blacklisted clients (the owner rotates the blacklist
  over the gateway between rounds) and one counter-leader crash and
  restart.  Every operation carries its expected verdict, so a speed-up
  that weakens a refusal path shows as failures, not as throughput.
"""

from __future__ import annotations

import os
import random
import shutil

from repro.api import ServiceGateway
from repro.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import BlacklistRule, RuleSet
from repro.core.bitmap import required_bitmap_bits
from repro.core.replication import ReplicatedTokenService
from repro.core.token import Token, signing_datagram
from repro.core.token_request import TokenRequest
from repro.crypto.keccak import keccak256
from repro.crypto.keys import KeyPair, recover_address_batch
from repro.crypto.sigcache import SignatureCache
from repro.faults.byzantine import untrusted_twin_service
from repro.pipeline import ExecutionPipeline, SmacsLoadGenerator
from repro.pipeline.load import DEFAULT_CALL_GAS_LIMIT
from repro.storage import DurableStore
from repro.workloads import peak_window, replay_storm, trace_named

from smacsbench import layers
from smacsbench.harness import Pass, Timeline, Verdicts, check, clock, probe
from smacsbench.tracing import SpanRecorder

ROUTE = "https://ts.smacs.example"
#: the paper's token lifetime and CryptoKitties peak, which size the bitmap (Tab. IV)
PAPER_LIFETIME = 3_600
KITTIES_PEAK = 48.0
WINDOW_SECONDS = 16
CLIENTS = 12
#: requests pushed through the whole loop before timing starts (every seed alike)
WARMUP_REQUESTS = 24

#: hostile-mix: a short lifetime lets held-back tokens expire within a pass
HOSTILE_LIFETIME = 60
HOSTILE_ROUNDS = 10
#: honest one-time calls per round: the one-time issuance batch (these, the
#: blacklist candidates and a holder) stays larger than the 16-request storm
#: batch, so the latency median sits inside one kind of submission
HONEST_PER_ROUND = 20
#: simulated seconds between rounds, on top of the 13 s block interval
ROUND_GAP = 15
CRASH_ROUND, RESTART_ROUND = 3, 6


class System:
    """One fresh SMACS deployment and the counters the benchmark reads off it."""

    def __init__(self, seed: int, groups: dict, token_lifetime: int,
                 bitmap_bits: int, durable_dir: "str | None" = None):
        self.cache = SignatureCache(maxsize=1 << 17)
        self.chain = Blockchain(auto_mine=True)
        self.chain.evm.signature_cache = self.cache
        owner = self.chain.create_account("owner", seed=f"bench-owner-{seed}")
        self.accounts = {
            group: [self.chain.create_account(f"{group}{i}", seed=f"bench-{group}-{seed}-{i}")
                    for i in range(size)]
            for group, size in groups.items()
        }
        self.service = ReplicatedTokenService(
            replica_count=3,
            keypair=KeyPair.from_seed(f"bench-ts-{seed}"),
            rules=RuleSet(),
            clock=self.chain.clock,
            token_lifetime=token_lifetime,
            seed=seed,
            signature_cache=self.cache,
        )
        self.gateway = ServiceGateway()
        self.gateway.register(ROUTE, self.service)
        self.endpoint = self.gateway.client_for(ROUTE)
        self._measure_endpoint()
        self.recorder = OwnerWallet(owner, self.endpoint).deploy_protected(
            ProtectedRecorder, one_time_bitmap_bits=bitmap_bits, ts_url=ROUTE
        ).return_value
        self.chain.auto_mine = False
        self.pipeline = ExecutionPipeline(self.chain, signature_cache=self.cache)
        self.store = None
        if durable_dir is not None:
            self.store = DurableStore(durable_dir, "sqlite")
            self.store.attach(self.pipeline)
        self.nonces: dict = {}
        self.gas: list[int] = []

    def _measure_endpoint(self) -> None:
        """Time every submit (per-request latency) and count envelope bytes.

        A submit takes tens of milliseconds while the host's speed moves
        on a scale of a hundred, so each one is bracketed by its own probes;
        the loops subtract ``probe_s`` from their timed chunks.
        """
        self._submit, send = self.endpoint.submit, self.endpoint.transport.send
        self.latencies: list[tuple] = []
        self.tally: dict = {}
        self.probe_s = 0.0

        def timed_submit(requests):
            entered = clock()
            before = probe()
            started = clock()
            results = self._submit(requests)
            took = clock() - started
            speed = (before + probe()) / 2
            self.probe_s += clock() - entered - took
            self.latencies.extend([(took, speed)] * len(results))
            self._add("requests", len(results))
            self._add("submits", 1)
            for result in results:
                if result.error is not None:
                    code = result.error.code.value
                    self._add(f"errors.{code if code == 'DENIED' else 'other'}", 1)
            return results

        def counted_send(raw):
            reply = send(raw)
            self._add("wire_bytes", len(raw) + len(reply))
            self._add("round_trips", 1)
            return reply

        self.endpoint.submit = timed_submit
        self.endpoint.transport.send = counted_send

    def _add(self, key: str, amount: int) -> None:
        self.tally[key] = self.tally.get(key, 0) + amount

    def instrument(self, recorder: SpanRecorder) -> None:
        wrap = recorder.wrap
        wrap(self, "_submit", "api.client.submit")
        wrap(self.endpoint, "update_rules", "api.client.update_rules")
        wrap(self.gateway, "handle", "api.gateway.handle")
        wrap(self.service, "submit", "core.issue")
        for replica in self.service.replicas:
            wrap(replica, "front_end_session_overhead", "core.session")
            wrap(replica.counter, "next_index", "consensus.next_index")
        wrap(self.pipeline, "ingest", "pipeline.mempool.admit")
        wrap(self.pipeline, "drain", "pipeline.drain")
        wrap(self.pipeline.builder, "build", "pipeline.builder.build")
        wrap(self.pipeline.executor, "execute", "pipeline.executor.execute")
        wrap(self.pipeline.executor, "pre_warm", "pipeline.executor.prewarm")
        if self.store is not None:
            wrap(self.store, "commit_block", "storage.commit")
            wrap(self.pipeline.mempool, "admission_listener", "storage.log_admission")

    # -- the loop's steps ----------------------------------------------------

    def sign(self, account, token: bytes, amount: int, consume: bool = True) -> Transaction:
        """A signed ``submit`` call carrying ``token``; refused transactions
        (``consume=False``) leave the sender's nonce where it was."""
        nonce = self.nonces.get(account.address, 0)
        if consume:
            self.nonces[account.address] = nonce + 1
        tx = Transaction(
            sender=account.address, to=self.recorder.this, nonce=nonce, method="submit",
            kwargs={"amount": amount, "token": token}, gas_limit=DEFAULT_CALL_GAS_LIMIT,
        )
        return tx.sign_with(account.keypair)

    def settle(self, txs: list) -> tuple[list, list]:
        """Admit, then build + pre-warm + execute (+ commit) until the pool is empty."""
        decisions = self.pipeline.ingest(txs)
        blocks = self.pipeline.drain()
        self._add("txs_ingested", len(txs))
        for block in blocks:
            self._add("blocks", 1)
            self._add("txs_executed", block.executed)
            self._add("prewarm_hits", block.prewarm_hits)
            self._add("prewarm_misses", block.prewarm_misses)
            self._add("smacs_denied", block.smacs_denied)
        return decisions, blocks

    def observe(self, tx: Transaction, decision) -> str:
        """The final verdict of one transaction, in the benchmark's words.

        Call once per transaction: a committed call's gas is tallied here.
        """
        if not decision.admitted:
            return "refused:" + layers.refusal_slug(decision.reason)
        receipt = self.chain.receipts.get(tx.hash())
        if receipt is None:
            return "not-executed"
        if receipt.success:
            self._add("committed", 1)
            self._add("verify_gas", receipt.breakdown("verify"))
            self._add("bitmap_gas", receipt.breakdown("bitmap"))
            self.gas.append(receipt.gas_used)
            return "committed"
        if receipt.error is not None and "SMACS" in receipt.error:
            return "reverted:SMACS"
        return "failed:" + str(receipt.error)

    # -- counts ----------------------------------------------------------------

    def start_counting(self) -> None:
        """Zero every count at the start of the timed phase."""
        self.tally = {}
        self.latencies = []
        self.gas = []
        self.probe_s = 0.0
        self._base = self._program_counts()

    def _program_counts(self) -> dict:
        mempool = self.pipeline.mempool
        counts = {
            "tokens_issued": self.service.issued_count,
            "acr_denied": self.service.denied_count,
            "failovers": self.service.transient_failovers,
            "indexes": max(self.service.counter_cluster.committed_values().values()),
            "sig_hits": self.cache.hits,
            "sig_misses": self.cache.misses,
            "admitted": mempool.admitted_count,
        }
        for reason, count in mempool.rejected.items():
            key = "rejected." + layers.refusal_slug(reason)
            counts[key] = counts.get(key, 0) + count
        if self.store is not None:
            counts["wal_bytes"] = self.store.wal.size
            counts["blocks_committed"] = self.store.blocks_committed
        return counts

    def counts(self) -> dict:
        now = self._program_counts()
        out = {key: now.get(key, 0) - self._base.get(key, 0) for key in now}
        out.update(self.tally)
        out["block_gas_limit"] = self.pipeline.builder.block_gas_limit
        out["gas_budget"] = out.get("txs_executed", 0) * DEFAULT_CALL_GAS_LIMIT
        return {key: value for key, value in sorted(out.items())}

    # -- output checks -----------------------------------------------------------

    def check_outputs(self) -> None:
        """The run fails loudly if any of the paper's safety claims broke."""
        consumed: set = set()
        pairs = []
        for block in self.chain.blocks[1:]:
            for tx in block.transactions:
                receipt = self.chain.receipts[tx.hash()]
                if not receipt.success or tx.to != self.recorder.this:
                    continue
                token = Token.from_bytes(tx.kwargs["token"])
                if token.is_one_time:
                    key = (tx.to, token.index)
                    check(key not in consumed, f"one-time index {token.index} accepted twice")
                    consumed.add(key)
                datagram = signing_datagram(
                    token.token_type, token.expire, token.index, tx.sender, tx.to,
                    method=tx.method,
                )
                pairs.append((keccak256(datagram), token.signature))
        signers = recover_address_batch(pairs)
        check(
            all(signer == self.service.address for signer in signers),
            "an accepted token does not recover to the TS address (a forgery committed)",
        )
        entries = self.chain.read(self.recorder, "entries")
        check(entries == len(pairs),
              f"recorder holds {entries} entries but {len(pairs)} calls committed")
        check(self.service.issued_indexes_are_unique(), "the replicated counter repeated an index")

    def close(self) -> None:
        if self.store is not None:
            self.store.close()


def _record(verdicts: Verdicts, system: System, txs: list, decisions: list,
            expected: list, denials: list = ()) -> int:
    """Record every operation's verdict; return how many matched.

    ``expected`` holds (kind, expected verdict, tx) for the transactions in
    ``txs``; ``denials`` holds (kind, expected, observed) for operations that
    never became a transaction.
    """
    decision_for = {id(tx): decision for tx, decision in zip(txs, decisions)}
    done = sum(verdicts.record(*denial) for denial in denials)
    for kind, verdict, tx in expected:
        done += verdicts.record(kind, verdict, system.observe(tx, decision_for[id(tx)]))
    return done


# -- kitties-peak ------------------------------------------------------------------


class KittiesPeak:
    """The §VI-A CryptoKitties peak through the full loop, one trace second a chunk."""

    def __init__(self, seed: int, work: str, recorder: SpanRecorder, verdicts: Verdicts):
        trace = trace_named("CryptoKitties", duration_seconds=3_600, seed=seed)
        _, self.window = peak_window(trace, WINDOW_SECONDS)
        self.seed, self.work, self.recorder, self.verdicts = seed, work, recorder, verdicts
        self.passes = 0

    def run_pass(self, traced: bool) -> Pass:
        directory = os.path.join(self.work, f"kitties-{self.passes}")
        self.passes += 1
        before = probe()
        started = clock()
        system = System(self.seed, {"c": CLIENTS}, PAPER_LIFETIME,
                        required_bitmap_bits(PAPER_LIFETIME, KITTIES_PEAK), directory)
        generator = SmacsLoadGenerator(system.endpoint, system.recorder, system.accounts["c"])
        warm = generator.from_arrivals([WARMUP_REQUESTS])
        decisions, _ = system.settle(warm)
        check(all(system.observe(tx, d) == "committed" for tx, d in zip(warm, decisions)),
              "warm-up transactions did not commit")
        if traced:
            system.instrument(self.recorder)
        result = Pass(setup_s=clock() - started)
        timeline = Timeline(result, before)
        system.start_counting()
        for second, arrivals in enumerate(self.window):
            self.recorder.request = second
            mark, probed = len(system.latencies), system.probe_s
            self.recorder.enabled = traced
            began = clock()
            txs = self.recorder.run("loadgen.issue_and_sign", generator.from_arrivals, [arrivals])
            decisions, _ = system.settle(txs)
            took = clock() - began - (system.probe_s - probed)
            self.recorder.enabled = False
            done = _record(self.verdicts, system, txs, decisions,
                           [("kitties", "committed", tx) for tx in txs],
                           [("kitties", "committed", "denied")] * (arrivals - len(txs)))
            timeline.chunk(took, done, system.latencies[mark:])
        check(generator.requests_failed == 0, "issuance requests failed in the peak window")
        result.gas, result.counts, result.probe_s = system.gas, system.counts(), system.probe_s
        system.check_outputs()
        system.close()
        shutil.rmtree(directory)
        return result


# -- hostile-mix ---------------------------------------------------------------------


def _blacklist_only(address):
    def mutate(rules: RuleSet) -> None:
        rules.remove_rule("sender-blacklist")
        rules.add_rule(BlacklistRule([address], name="sender-blacklist"))
    return mutate


class HostileMix:
    """Seeded adversarial rounds, each operation with its expected verdict."""

    GROUPS = {"h": CLIENTS, "b": 3, "s": 4, "k": 2, "r": 2, "f": 4}

    def __init__(self, seed: int, work: str, recorder: SpanRecorder, verdicts: Verdicts):
        rng = random.Random(seed)
        # which honest clients call in each round
        self.honest = [rng.sample(range(CLIENTS * 2), HONEST_PER_ROUND)
                       for _ in range(HOSTILE_ROUNDS)]
        self.seed, self.recorder, self.verdicts = seed, recorder, verdicts

    def run_pass(self, traced: bool) -> Pass:
        before = probe()
        started = clock()
        system = System(self.seed, self.GROUPS, HOSTILE_LIFETIME,
                        required_bitmap_bits(HOSTILE_LIFETIME, KITTIES_PEAK))
        acc = system.accounts
        contract = system.recorder.this
        twin = untrusted_twin_service(system.service.replicas[0], seed=f"bench-twin-{self.seed}")
        storm = replay_storm(contract, [a.address for a in acc["s"]], unique_requests=4,
                             replays_per_request=40, batch_size=16, seed=self.seed).batches
        # warm-up: one honest batch through the whole loop
        warm_requests = [TokenRequest.method_token(contract, a.address, "submit", one_time=True)
                         for a in acc["h"]]
        warm = [system.sign(a, r.token.to_bytes(), 1)
                for a, r in zip(acc["h"], system.endpoint.submit(warm_requests))]
        decisions, _ = system.settle(warm)
        check(all(system.observe(tx, d) == "committed" for tx, d in zip(warm, decisions)),
              "warm-up transactions did not commit")
        if traced:
            system.instrument(self.recorder)
        result = Pass(setup_s=clock() - started)
        timeline = Timeline(result, before)
        system.start_counting()
        held: list = []          # (holder, token) kept back until expired
        stolen: list = []        # tokens committed last round
        crashed = None
        for rnd, callers in enumerate(self.honest):
            if rnd == CRASH_ROUND:
                crashed = system.service.counter_cluster.crash_leader()
            if rnd == RESTART_ROUND:
                system.service.counter_cluster.restart(crashed)
            self.recorder.request = rnd
            mark, probed = len(system.latencies), system.probe_s
            self.recorder.enabled = traced
            began = clock()
            # -- timed: owner rule write, issuance, client signing
            denials, calls, own = self.recorder.run(
                "loadgen.issue_and_sign", self._issue, system, rnd, callers, storm, held
            )
            pause = clock()
            self.recorder.enabled = False
            # -- untimed: the adversaries prepare their transactions
            attack = self._attacks(system, twin, acc, rnd, held, stolen, calls)
            self.recorder.enabled = traced
            resumed = clock()
            # -- timed: admission, blocks
            txs = calls + [tx for _, _, tx in attack]
            decisions, _ = system.settle(txs)
            took = (pause - began) + (clock() - resumed) - (system.probe_s - probed)
            self.recorder.enabled = False
            done = _record(self.verdicts, system, txs, decisions, own + attack, denials)
            timeline.chunk(took, done, system.latencies[mark:])
            stolen = [tx.kwargs["token"] for kind, _, tx in own
                      if kind == "honest" and tx.hash() in system.chain.receipts][:2]
            system.chain.advance_time(ROUND_GAP)
        result.gas, result.counts, result.probe_s = system.gas, system.counts(), system.probe_s
        system.check_outputs()
        system.close()
        return result

    @staticmethod
    def _issue(system: System, rnd: int, callers: list, storm: list, held: list) -> tuple:
        """The owner's rule write, then the round's issuance and client signing.

        Returns (denials, transactions, (kind, expected verdict, tx) per
        transaction); a holder's token is kept back in ``held`` instead.
        """
        acc = system.accounts
        contract = system.recorder.this
        denied = acc["b"][rnd % len(acc["b"])]
        holder = acc["k"][rnd % len(acc["k"])]
        system.endpoint.update_rules(_blacklist_only(denied.address))
        one_time = [acc["h"][caller % CLIENTS] for caller in sorted(callers)]
        one_time += acc["b"] + [holder]
        requests = [TokenRequest.method_token(contract, a.address, "submit", one_time=True)
                    for a in one_time]
        storm_batch = storm[rnd % len(storm)]
        issued = system.endpoint.submit(requests) + system.endpoint.submit(storm_batch)
        by_address = {a.address: a for a in acc["s"]}
        owners = one_time + [by_address[r.client] for r in storm_batch]
        denials, calls, own = [], [], []
        for account, outcome in zip(owners, issued):
            kind = ("blacklisted" if account is denied else
                    "storm" if not outcome.request.one_time else
                    "holder" if account is holder else "honest")
            expected = "denied:DENIED" if kind == "blacklisted" else "committed"
            if not outcome.issued:
                denials.append((kind, expected, f"denied:{outcome.code.value}"))
            elif kind == "holder":
                held.append((holder, outcome.token))
            else:
                tx = system.sign(account, outcome.token.to_bytes(), 1 + len(calls))
                calls.append(tx)
                own.append((kind, expected, tx))
        return denials, calls, own

    def _attacks(self, system, twin, acc, rnd, held, stolen, calls) -> list:
        """This round's adversarial transactions, each with its expected verdict."""
        contract = system.recorder.this
        attack = []
        for forger in acc["f"][(rnd % 2) * 2:(rnd % 2) * 2 + 2]:
            forged = twin.submit([TokenRequest.method_token(contract, forger.address, "submit")])
            attack.append(("forgery", "reverted:SMACS",
                           system.sign(forger, forged[0].token.to_bytes(), 1)))
        replayer = acc["r"][rnd % len(acc["r"])]
        for token in stolen:
            attack.append(("replay-consumed", "refused:index_consumed",
                           system.sign(replayer, token, 1, consume=False)))
        fresh = next((tx for tx in calls
                      if Token.from_bytes(tx.kwargs["token"]).is_one_time), None)
        if fresh is not None:
            attack.append(("replay-in-pool", "refused:duplicate_index_in_pool",
                           system.sign(acc["r"][(rnd + 1) % len(acc["r"])],
                                       fresh.kwargs["token"], 1, consume=False)))
        now = system.chain.clock.now()
        for holder, token in [item for item in held if item[1].expire < now]:
            held.remove((holder, token))
            attack.append(("expired", "refused:expired_token",
                           system.sign(holder, token.to_bytes(), 1, consume=False)))
        return attack
