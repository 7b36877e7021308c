"""Unit tests for the pure-Python keccak-256 implementation."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.keccak import keccak256, keccak256_hex, keccak256_pair

# Known-answer vectors for Ethereum's keccak-256 (not NIST SHA3-256).
KNOWN_VECTORS = {
    b"": "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470",
    b"abc": "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45",
    b"hello": "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8",
    b"testing": "5f16f4c7f149ac4f9510d9cf8cf384038ad348b3bcdc01915f95de12df9d1b02",
    b"The quick brown fox jumps over the lazy dog":
        "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15",
}


@pytest.mark.parametrize("message,expected", sorted(KNOWN_VECTORS.items()))
def test_known_vectors(message, expected):
    assert keccak256(message).hex() == expected


def test_digest_length_is_32_bytes():
    assert len(keccak256(b"x")) == 32


def test_differs_from_nist_sha3_256():
    # Ethereum keccak uses the original 0x01 padding, so it must NOT match
    # hashlib's NIST SHA3-256 on non-empty input.
    assert keccak256(b"abc") != hashlib.sha3_256(b"abc").digest()


def test_deterministic():
    assert keccak256(b"same input") == keccak256(b"same input")


def test_single_bit_avalanche():
    a = keccak256(b"\x00" * 64)
    b = keccak256(b"\x00" * 63 + b"\x01")
    differing_bits = sum(bin(x ^ y).count("1") for x, y in zip(a, b))
    # Roughly half the 256 output bits should flip.
    assert differing_bits > 80


@pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 135, 136, 137, 272, 1000])
def test_all_block_boundary_lengths(length):
    # Lengths straddling the 136-byte rate must all hash without error and
    # produce distinct digests.
    digest = keccak256(b"a" * length)
    assert len(digest) == 32
    assert digest != keccak256(b"a" * (length + 1))


def test_multiblock_known_vector():
    # 200 'a' characters spans two absorb blocks.
    assert (
        keccak256(b"a" * 200).hex()
        == keccak256_hex(b"a" * 200)
    )
    assert keccak256(b"a" * 200) != keccak256(b"a" * 199)


def test_rejects_non_bytes():
    with pytest.raises(TypeError):
        keccak256("a string")  # type: ignore[arg-type]


def test_accepts_bytearray():
    assert keccak256(bytearray(b"abc")) == keccak256(b"abc")


def test_hex_helper_matches_bytes():
    assert keccak256_hex(b"xyz") == keccak256(b"xyz").hex()


# --- shared-prefix pair ----------------------------------------------------------


@given(
    prefix=st.integers(min_value=0, max_value=410).flatmap(
        lambda n: st.binary(min_size=n, max_size=n)
    ),
    suffix_len=st.sampled_from([0, 1, 65]),
    fill=st.integers(min_value=0, max_value=255),
)
@settings(max_examples=120, deadline=None)
def test_pair_matches_two_independent_digests(prefix, suffix_len, fill):
    """Prefix lengths straddle the 136-byte rate three times over; the
    suffix lengths are the unsigned, one-byte and signed-transaction cases."""
    suffix = bytes([fill]) * suffix_len
    assert keccak256_pair(prefix, suffix) == (
        keccak256(prefix), keccak256(prefix + suffix)
    )


@pytest.mark.parametrize("length", [0, 135, 136, 137, 271, 272, 273, 408])
def test_pair_at_rate_boundaries(length):
    prefix = bytes(range(256)) * 2
    prefix = prefix[:length]
    for suffix in (b"", b"\x01", b"\xee" * 65):
        assert keccak256_pair(prefix, suffix) == (
            keccak256(prefix), keccak256(prefix + suffix)
        )


def test_pair_rejects_non_bytes():
    with pytest.raises(TypeError):
        keccak256_pair("a string", b"")  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        keccak256_pair(b"", "a string")  # type: ignore[arg-type]
