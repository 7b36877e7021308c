"""Batched mempool admission: same decisions as one-at-a-time, less work.

``Mempool.admit_many`` screens a batch with the O(1) checks, recovers every
surviving sender in one ``recover_address_batch`` call and then runs the
per-transaction checks in submission order.  These tests pin that the
batching is invisible in the decisions, that shed or duplicate transactions
never reach the curve, and the exact keccak / kernel work per admitted
transaction.
"""

import pytest

import repro.pipeline.mempool as mempool_module
from repro.chain import Blockchain
from repro.chain.transaction import Transaction
from repro.contracts.protected_target import ProtectedRecorder
from repro.core import OwnerWallet
from repro.core.acr import RuleSet
from repro.core.token_request import TokenRequest
from repro.core.token_service import TokenService
from repro.crypto import keccak
from repro.crypto.keys import KeyPair
from repro.crypto.sigcache import SignatureCache
from repro.pipeline import Mempool, SmacsLoadGenerator


@pytest.fixture
def env():
    cache = SignatureCache(maxsize=16384)
    chain = Blockchain(auto_mine=True)
    chain.evm.signature_cache = cache
    owner = chain.create_account("owner", seed="batch-owner")
    clients = [
        chain.create_account(f"client-{i}", seed=f"batch-client-{i}") for i in range(4)
    ]
    service = TokenService(
        keypair=KeyPair.from_seed("batch-ts"),
        rules=RuleSet(),
        clock=chain.clock,
        signature_cache=cache,
    )
    recorder = OwnerWallet(owner, service).deploy_protected(
        ProtectedRecorder, one_time_bitmap_bits=1024
    ).return_value
    chain.auto_mine = False
    return {
        "cache": cache, "chain": chain, "clients": clients,
        "service": service, "recorder": recorder,
    }


def _call(env, account, nonce, amount=1, signer=None):
    request = TokenRequest.method_token(
        env["recorder"].this, account.address, "submit", one_time=True
    )
    token = env["service"].issue_token(request)
    tx = Transaction(
        sender=account.address,
        to=env["recorder"].this,
        nonce=nonce,
        method="submit",
        kwargs={"amount": amount, "token": token.to_bytes()},
        gas_limit=400_000,
    )
    return tx.sign_with((signer or account).keypair)


@pytest.fixture
def counted_recovery(monkeypatch):
    """Count ``recover_address_batch`` calls and the signatures they carry."""
    calls: list[int] = []
    real = mempool_module.recover_address_batch

    def counting(pairs):
        calls.append(len(pairs))
        return real(pairs)

    monkeypatch.setattr(mempool_module, "recover_address_batch", counting)
    return calls


def test_batch_decisions_equal_sequential_admits(env):
    a, b, c, d = env["clients"]
    valid = _call(env, a, 0)
    forged = _call(env, b, 0, signer=c)          # signed by the wrong key
    over_gas = _call(env, c, 0)
    over_gas.gas_limit = 40_000_000
    over_gas.sign_with(c.keypair)                # validly signed, unpackable
    tampered = _call(env, c, 0, amount=5)
    tampered.kwargs["amount"] = 6                # covered field changed after signing
    bad_nonce = _call(env, d, 7)
    batch = [valid, forged, valid, over_gas, tampered, bad_nonce]

    batched = Mempool(env["chain"], signature_cache=env["cache"])
    sequential = Mempool(env["chain"], signature_cache=env["cache"])
    got = batched.admit_many(batch)
    expected = [sequential.admit(tx) for tx in batch]

    assert [(x.admitted, x.reason) for x in got] == [
        (x.admitted, x.reason) for x in expected
    ]
    assert [x.reason for x in got] == [
        "admitted",
        "invalid signature",
        "duplicate transaction",
        "transaction gas limit exceeds the block gas limit",
        "invalid signature",
        "bad nonce",
    ]
    assert batched.rejected == sequential.rejected
    assert batched.stats() == sequential.stats()
    assert [tx.hash() for tx in batched.transactions()] == [valid.hash()]


def test_in_batch_duplicate_is_recovered_once(env, counted_recovery):
    a, b = env["clients"][:2]
    first, second = _call(env, a, 0), _call(env, b, 0)
    mempool = Mempool(env["chain"], signature_cache=env["cache"])
    decisions = mempool.admit_many([first, second, first])
    assert [x.reason for x in decisions] == [
        "admitted", "admitted", "duplicate transaction"
    ]
    assert counted_recovery == [2]


def test_shed_and_pooled_transactions_never_reach_recovery(env, counted_recovery):
    a, b, c = env["clients"][:3]
    mempool = Mempool(env["chain"], signature_cache=env["cache"])
    mempool.wall_clock = lambda: 1000.0
    pooled = _call(env, a, 0)
    assert mempool.admit(pooled).admitted
    assert counted_recovery == [1]

    # A hash already pooled is refused before any curve work.
    assert mempool.admit(pooled).reason == "duplicate transaction"
    # An expired deadline sheds the whole batch before recovery.
    late = [_call(env, b, 0), _call(env, c, 0)]
    decisions = mempool.admit_many(late, deadline=999.0)
    assert [x.reason for x in decisions] == [
        "deadline exceeded before admission"
    ] * 2
    assert counted_recovery == [1]

    # With budget left the same transactions recover in one call.
    assert all(x.admitted for x in mempool.admit_many(late, deadline=1001.0))
    assert counted_recovery == [1, 2]


def test_deadline_is_read_once_per_batch(env, counted_recovery):
    """A batch live on entry is admitted whole: the clock is not re-read
    while its senders are recovered or its checks run."""
    a, b = env["clients"][:2]
    mempool = Mempool(env["chain"], signature_cache=env["cache"])
    reads = iter([1000.0, 2000.0, 2000.0])
    mempool.wall_clock = lambda: next(reads)
    decisions = mempool.admit_many([_call(env, a, 0), _call(env, b, 0)], deadline=1001.0)
    assert all(x.admitted for x in decisions)
    assert next(reads) == 2000.0  # exactly one read was taken
    assert counted_recovery == [2]


def test_mutated_pooled_object_is_still_removable(env):
    """Resubmitting a pooled transaction object after mutating it is refused
    and does not re-key it: removal still frees its entry, nonce and
    one-time reservation."""
    a = env["clients"][0]
    tx = _call(env, a, 0, amount=3)
    mempool = Mempool(env["chain"], signature_cache=env["cache"])
    assert mempool.admit(tx).admitted
    assert mempool.stats()["reserved_one_time_indexes"] == 1
    pooled_hash = tx.hash()
    tx.kwargs["amount"] = 4
    assert mempool.admit(tx).reason == "invalid signature"
    assert tx.hash() == pooled_hash
    mempool.remove([tx])
    stats = mempool.stats()
    assert stats["pooled"] == 0
    assert stats["reserved_one_time_indexes"] == 0
    assert stats["tracked_nonce_senders"] == 0
    assert stats["accounting_underflows"] == 0


def test_admission_work_counts_are_exact(env, monkeypatch, counted_recovery):
    """24 one-time SMACS calls cost five keccak-f permutations each and one
    kernel call for the batch.

    The 372-byte signing payload spans two full rate blocks, absorbed once
    for both digests; the signing digest then takes one more block and the
    transaction hash (payload + 65-byte signature) two.  The recovered
    sender addresses, the Token Service address and the token datagram
    digests all come from memos.  Machine-independent: any extra hash or
    recovery on the admission path shows here as a count, not as noise.
    """
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([24])
    assert len(txs) == 24
    assert {len(tx.signing_payload()) for tx in txs} == {372}
    for tx in txs:
        tx.hash()  # a client-side hash memo is not trusted (recomputed anyway)
    mempool = Mempool(env["chain"], signature_cache=env["cache"])

    permutations = []
    real_f = keccak._keccak_f

    def counting_f(state):
        permutations.append(1)
        return real_f(state)

    monkeypatch.setattr(keccak, "_keccak_f", counting_f)
    decisions = mempool.admit_many(txs)
    monkeypatch.setattr(keccak, "_keccak_f", real_f)

    assert all(x.admitted for x in decisions)
    assert len(permutations) == 5 * 24
    assert counted_recovery == [24]


def test_tx_signature_recovery_bypasses_the_signature_cache(env):
    """Transaction signatures are unique: admission must neither consult nor
    fill the token signature cache with them."""
    generator = SmacsLoadGenerator(env["service"], env["recorder"], env["clients"])
    txs = generator.from_arrivals([8])
    cache = env["cache"]
    before = (cache.misses, len(cache._recovered))
    mempool = Mempool(env["chain"], signature_cache=cache)
    assert all(x.admitted for x in mempool.admit_many(txs))
    assert (cache.misses, len(cache._recovered)) == before


def test_digests_are_recomputed_from_the_fields(env):
    """No signing digest is memoised on the transaction: a field changed after
    the client hashed and signed it is caught at admission."""
    a = env["clients"][0]
    tx = _call(env, a, 0, amount=3)
    stale_hash = tx.hash()
    tx.kwargs["amount"] = 4
    assert tx.hash() == stale_hash  # the client's memo is stale ...
    digest, fresh_hash = tx.digests()
    assert fresh_hash != stale_hash  # ... the node recomputes both
    assert digest == keccak.keccak256(tx.signing_payload())
    assert not hasattr(tx, "_cached_digest")
    mempool = Mempool(env["chain"], signature_cache=env["cache"])
    assert mempool.admit(tx).reason == "invalid signature"
