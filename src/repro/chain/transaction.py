"""Transactions: signed data packages originated from externally owned accounts.

A transaction either transfers value to an account or calls a method of a
deployed contract (or both).  It is signed with the sender's secp256k1 key
over the keccak-256 hash of its serialised fields; the chain validates the
signature and the per-sender nonce before execution, which is the built-in
Ethereum replay protection the paper relies on in §VII-A(b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.chain import abi
from repro.chain.address import Address, ZERO_ADDRESS, address_hex
from repro.crypto.ecdsa import Signature, SignatureError
from repro.crypto.keccak import keccak256, keccak256_pair
from repro.crypto.keys import recover_address

DEFAULT_GAS_LIMIT = 8_000_000


@dataclass
class Transaction:
    """A (possibly signed) transaction.

    ``method``/``args``/``kwargs`` express a contract call at the Python
    level; ``calldata`` is the ABI-style encoding used for gas accounting and
    for ``msg.data``/``msg.sig`` semantics.  A plain value transfer leaves
    ``method`` as ``None``.
    """

    sender: Address
    to: Address | None
    nonce: int
    method: str | None = None
    args: tuple[Any, ...] = ()
    kwargs: dict[str, Any] = field(default_factory=dict)
    value: int = 0
    gas_limit: int = DEFAULT_GAS_LIMIT
    gas_price: int = 1
    signature: Signature | None = None

    def __post_init__(self) -> None:
        if isinstance(self.args, list):
            self.args = tuple(self.args)
        self._cached_hash: bytes | None = None

    @property
    def calldata(self) -> bytes:
        """ABI-style calldata for the call (empty for plain transfers)."""
        if self.method is None:
            return b""
        return abi.encode_call(self.method, self.args, self.kwargs)

    @property
    def is_contract_call(self) -> bool:
        return self.method is not None

    def signing_payload(self) -> bytes:
        """Deterministic serialisation of the fields covered by the signature."""
        to_bytes = self.to if self.to is not None else ZERO_ADDRESS
        header = (
            self.sender
            + to_bytes
            + self.nonce.to_bytes(8, "big")
            + self.value.to_bytes(16, "big")
            + self.gas_limit.to_bytes(8, "big")
            + self.gas_price.to_bytes(8, "big")
        )
        return header + self.calldata

    def hash(self) -> bytes:
        """The transaction hash (over the signing payload plus signature).

        Memoized after the first computation: a transaction is hashed several
        times on its way through the node (mempool dedup, its receipt, the
        enclosing block header), and the fields it covers are frozen once the
        transaction is signed.  :meth:`sign_with` invalidates the memo.
        """
        if self._cached_hash is None:
            self._cached_hash = keccak256(self.signing_payload() + self._sig_bytes())
        return self._cached_hash

    def _sig_bytes(self) -> bytes:
        return self.signature.to_bytes() if self.signature else b""

    def digests(self) -> tuple[bytes, bytes]:
        """``(signing digest, transaction hash)`` computed from the fields.

        One :func:`keccak256_pair` call absorbs the shared payload blocks
        once.  Both values are recomputed on every call and the signing
        digest is never memoised, so a node that checks the signature
        against this digest checks the fields it holds, not anything a
        client left behind.  The hash memo is only filled when empty: a
        pooled transaction object mutated and resubmitted keeps the hash it
        was pooled under, so removing it still finds its pool entry.
        """
        digest, tx_hash = keccak256_pair(self.signing_payload(), self._sig_bytes())
        if self._cached_hash is None:
            self._cached_hash = tx_hash
        return digest, tx_hash

    def sign_with(self, keypair: "Any") -> "Transaction":
        """Sign in place using a :class:`repro.crypto.keys.KeyPair`-like object."""
        digest = keccak256(self.signing_payload())
        self.signature = keypair.sign(digest)
        self._cached_hash = None
        return self

    def verify_signature(self) -> bool:
        """Check that the signature recovers the declared sender address."""
        if self.signature is None:
            return False
        digest = keccak256(self.signing_payload())
        try:
            return recover_address(digest, self.signature) == self.sender
        except SignatureError:
            return False

    def describe(self) -> str:
        """Human-readable one-line description (used by example scripts)."""
        target = address_hex(self.to) if self.to else "<create>"
        call = f".{self.method}()" if self.method else ""
        return f"tx nonce={self.nonce} from {address_hex(self.sender)} to {target}{call}"
