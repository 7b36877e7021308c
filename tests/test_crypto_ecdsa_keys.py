"""Unit tests for ECDSA signatures, recovery and key/address handling."""

import dataclasses

import pytest

from repro.crypto.ecdsa import Signature, SignatureError, recover, sign, verify
from repro.crypto.keccak import keccak256
from repro.crypto import keys
from repro.crypto.keys import KeyPair, PrivateKey, PublicKey, recover_address
from repro.crypto.secp256k1 import N


@pytest.fixture
def keypair():
    return KeyPair.from_seed("ecdsa-test-key")


@pytest.fixture
def digest():
    return keccak256(b"a message to be signed")


def test_sign_and_verify_roundtrip(keypair, digest):
    signature = keypair.sign(digest)
    assert keypair.verify(digest, signature)


def test_signature_is_deterministic_rfc6979(keypair, digest):
    assert keypair.sign(digest) == keypair.sign(digest)


def test_different_messages_produce_different_signatures(keypair):
    s1 = keypair.sign(keccak256(b"m1"))
    s2 = keypair.sign(keccak256(b"m2"))
    assert s1 != s2


def test_verify_rejects_wrong_message(keypair, digest):
    signature = keypair.sign(digest)
    assert not keypair.verify(keccak256(b"another message"), signature)


def test_verify_rejects_wrong_key(keypair, digest):
    other = KeyPair.from_seed("someone-else")
    signature = keypair.sign(digest)
    assert not other.verify(digest, signature)


def test_verify_rejects_high_s_signature(keypair, digest):
    """EIP-2 regression: the (r, N - s) mauling of a valid signature is a
    valid classic-ECDSA signature but must be refused by verify."""
    signature = keypair.sign(digest)
    mauled = Signature(signature.r, N - signature.s, signature.v ^ 1)
    assert mauled.s > N // 2  # sign() emits low-s, so the flip is high-s
    assert keypair.verify(digest, signature)
    assert not keypair.verify(digest, mauled)
    # ecrecover (like the precompile) still accepts either form.
    assert recover(digest, mauled) == keypair.public.point


def test_low_s_normalisation(keypair, digest):
    signature = keypair.sign(digest)
    assert signature.s <= N // 2


def test_recover_returns_signer_public_key(keypair, digest):
    signature = keypair.sign(digest)
    assert recover(digest, signature) == keypair.public.point


def test_recover_address_matches_keypair(keypair, digest):
    signature = keypair.sign(digest)
    assert recover_address(digest, signature) == keypair.address


def test_recover_address_differs_for_tampered_digest(keypair, digest):
    signature = keypair.sign(digest)
    assert recover_address(keccak256(b"tampered"), signature) != keypair.address


def test_signature_serialisation_roundtrip(keypair, digest):
    signature = keypair.sign(digest)
    raw = signature.to_bytes()
    assert len(raw) == 65
    assert Signature.from_bytes(raw) == signature


def test_signature_from_bytes_accepts_ethereum_v_offset(keypair, digest):
    signature = keypair.sign(digest)
    raw = bytearray(signature.to_bytes())
    raw[64] += 27  # Ethereum encodes v as 27/28
    assert Signature.from_bytes(bytes(raw)) == signature


def test_signature_rejects_bad_length():
    with pytest.raises(SignatureError):
        Signature.from_bytes(b"\x01" * 64)


@pytest.mark.parametrize("raw_v", [2, 3, 14, 26, 29, 255])
def test_signature_from_bytes_rejects_invalid_v(keypair, digest, raw_v):
    """Raw v bytes outside {0, 1, 27, 28} fail with a clear message instead
    of falling through to the constructor's generic range error."""
    raw = bytearray(keypair.sign(digest).to_bytes())
    raw[64] = raw_v
    with pytest.raises(SignatureError, match="recovery id byte"):
        Signature.from_bytes(bytes(raw))


@pytest.mark.parametrize("raw_v", [0, 1, 27, 28])
def test_signature_from_bytes_accepts_all_valid_v_encodings(raw_v):
    raw = (1).to_bytes(32, "big") + (1).to_bytes(32, "big") + bytes([raw_v])
    signature = Signature.from_bytes(raw)
    assert signature.v == (raw_v - 27 if raw_v >= 27 else raw_v)


def test_signature_rejects_out_of_range_components():
    with pytest.raises(SignatureError):
        Signature(0, 1, 0)
    with pytest.raises(SignatureError):
        Signature(1, N, 0)
    with pytest.raises(SignatureError):
        Signature(1, 1, 5)


def test_sign_requires_32_byte_digest(keypair):
    with pytest.raises(SignatureError):
        sign(b"short", keypair.private.secret)


def test_verify_requires_32_byte_digest(keypair, digest):
    signature = keypair.sign(digest)
    with pytest.raises(SignatureError):
        verify(b"short", signature, keypair.public.point)


def test_private_key_range_validation():
    with pytest.raises(ValueError):
        PrivateKey(0)
    with pytest.raises(ValueError):
        PrivateKey(N)


def test_public_key_serialisation_roundtrip(keypair):
    raw = keypair.public.to_bytes()
    assert len(raw) == 64
    assert PublicKey.from_bytes(raw) == keypair.public


def test_address_is_20_bytes_and_stable(keypair):
    assert len(keypair.address) == 20
    assert keypair.address == keypair.private.public_key().address()
    assert keypair.address_hex.startswith("0x")
    assert len(keypair.address_hex) == 42


def test_from_seed_is_deterministic_and_distinct():
    assert KeyPair.from_seed("a").address == KeyPair.from_seed("a").address
    assert KeyPair.from_seed("a").address != KeyPair.from_seed("b").address


def test_generated_keys_are_distinct():
    assert KeyPair.generate().address != KeyPair.generate().address


def test_private_key_bytes_roundtrip(keypair):
    raw = keypair.private.to_bytes()
    assert len(raw) == 32
    assert PrivateKey.from_bytes(raw) == keypair.private


# --- the address memo ----------------------------------------------------------------


def test_address_memo_matches_direct_derivation(keypair):
    assert keypair.address == keccak256(keypair.public.to_bytes())[-20:]


def test_address_memo_is_invisible_on_the_key_types():
    """The memo lives beside the frozen dataclasses, not in them: deriving
    an address adds no field and changes no equality, hash or repr."""
    first = KeyPair.from_seed("memo-probe")
    fresh = KeyPair.from_seed("memo-probe")
    before = (repr(first), hash(first), repr(first.public), hash(first.public))
    assert first.address == fresh.address
    assert (repr(first), hash(first), repr(first.public), hash(first.public)) == before
    assert first == fresh and first.public == fresh.public
    assert [f.name for f in dataclasses.fields(PublicKey)] == ["point"]
    assert vars(first.public) == {"point": first.public.point}
    assert repr(first.public) == f"PublicKey(point={first.public.point!r})"


def test_address_memo_evicts_past_its_bound(monkeypatch):
    """Filling the memo with more distinct points than the bound keeps it at
    the bound and evicts the oldest point.  keccak is stubbed so the fill is
    cheap; the memo is cleared on both sides so no stub address leaks."""
    monkeypatch.setattr(keys, "keccak256", lambda raw: raw[:32])
    keys._address_of.cache_clear()
    try:
        for x in range(keys.ADDRESS_MEMO_SIZE + 8):
            keys._address_of(x, 1)
        assert keys._address_of.cache_info().currsize == keys.ADDRESS_MEMO_SIZE
        misses = keys._address_of.cache_info().misses
        keys._address_of(keys.ADDRESS_MEMO_SIZE + 7, 1)  # newest: still held
        assert keys._address_of.cache_info().misses == misses
        keys._address_of(0, 1)  # oldest: evicted, derived again
        assert keys._address_of.cache_info().misses == misses + 1
    finally:
        keys._address_of.cache_clear()


def test_address_of_infinity_is_refused():
    from repro.crypto.secp256k1 import INFINITY

    with pytest.raises(ValueError):
        PublicKey(INFINITY).address()
