"""Hash/HMAC primitives against fixed known answers and a stdlib oracle."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drbglab.prf import (
    HMAC_SHA256_RFC4231,
    Block,
    encode_bits,
    from_hex,
    hmac_block_prf,
    hmac_sha256,
    prf_small,
    sha256,
    to_hex,
)

# FIPS 180-4 known answers
SHA256_EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"

def test_sha256_known_answers():
    assert sha256(b"").hex() == SHA256_EMPTY
    assert sha256(b"abc").hex() == SHA256_ABC


@pytest.mark.parametrize("case", range(len(HMAC_SHA256_RFC4231)))
def test_hmac_rfc4231(case):
    key, message, want, truncate = HMAC_SHA256_RFC4231[case]
    got = hmac_sha256(key, message)
    if truncate is not None:
        got = got[:truncate]
    assert got.hex() == want


def test_hmac_matches_stdlib_randomized():
    """Our FIPS-198 construction against the stdlib hmac module.

    Key lengths straddle the 64-octet hash block on purpose: 63 stays
    below (zero-padded), 64 is exact, 65 forces the hash-the-key path.
    """
    rng = random.Random(0xC0FFEE)
    lengths = [0, 1, 31, 32, 33, 63, 64, 65, 100, 200]
    for key_len in lengths:
        for msg_len in (0, 1, 55, 64, 119, 300):
            key = rng.randbytes(key_len)
            msg = rng.randbytes(msg_len)
            want = stdlib_hmac.new(key, msg, hashlib.sha256).digest()
            assert hmac_sha256(key, msg) == want


def test_hex_round_trip():
    assert to_hex(b"\x00\xff\x10") == "00ff10"
    assert from_hex("00ff10") == b"\x00\xff\x10"
    assert from_hex("00FF10") == b"\x00\xff\x10"  # tolerant on input
    assert from_hex("  0a\n") == b"\x0a"


@pytest.mark.parametrize("bad", ["0", "zz", "abc", "0x00"])
def test_from_hex_rejects(bad):
    with pytest.raises(ValueError):
        from_hex(bad)


class TestBlock:
    def test_bits_msb_first(self):
        assert Block(8, 0b10000000).bits() == (1, 0, 0, 0, 0, 0, 0, 0)
        assert Block(3, 0b011).bits() == (0, 1, 1)

    def test_bits_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            eta = rng.randrange(1, 40)
            value = rng.randrange(1 << eta)
            b = Block(eta, value)
            assert Block.from_bits(b.bits()) == b

    def test_octet_round_trip(self):
        data = bytes(range(32))
        assert Block.from_octets(data).to_octets() == data
        with pytest.raises(ValueError):
            Block(3, 1).to_octets()

    def test_validation(self):
        with pytest.raises(ValueError):
            Block(0, 0)
        with pytest.raises(ValueError):
            Block(4, 16)
        with pytest.raises(ValueError):
            Block(4, -1)


@given(
    st.lists(st.integers(0, 1), max_size=64),
    st.lists(st.integers(0, 1), max_size=64),
)
def test_encode_bits_injective(a, b):
    if tuple(a) != tuple(b):
        assert encode_bits(tuple(a)) != encode_bits(tuple(b))


def test_encode_bits_layout():
    assert encode_bits(()) == b"\x00"
    assert encode_bits((1,)) == b"\x01\x01"
    assert encode_bits((1, 0, 0, 0, 0, 0, 0, 0)) == b"\x08\x80"
    # nine bits need two payload octets, right-aligned
    assert encode_bits((1,) + (0,) * 8) == b"\x09\x01\x00"


class TestPrfSmall:
    def test_deterministic_and_in_range(self):
        for eta in (1, 2, 3, 8, 13):
            key = Block(eta, (1 << eta) - 1)
            seen = set()
            for x in range(1 << min(eta, 6)):
                out = prf_small(eta, key, Block(eta, x).bits())
                assert out == prf_small(eta, key, Block(eta, x).bits())
                assert out.eta == eta
                seen.add(out.value)
            assert all(0 <= v < (1 << eta) for v in seen)

    def test_is_truncated_hmac(self):
        # first eta bits of HMAC over the length-prefixed encodings
        eta = 11
        key = Block(eta, 0x2A5 % (1 << eta))
        inp = (1, 0, 1, 1, 0)
        digest = hmac_sha256(encode_bits(key.bits()), encode_bits(inp))
        want = int.from_bytes(digest, "big") >> (256 - eta)
        assert prf_small(eta, key, inp) == Block(eta, want)

    def test_length_prefix_separates_widths(self):
        # all-zero inputs of different widths must hash differently;
        # without the length prefix they would alias
        outs = {prf_small(8, Block(8, 0), (0,) * n).value for n in range(4)}
        assert len(outs) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            prf_small(0, Block(1, 0), ())
        with pytest.raises(ValueError):
            prf_small(4, Block(3, 0), ())


class TestHmacBlockPrf:
    def test_matches_plain_hmac(self):
        key = Block.from_octets(bytes(range(32)))
        msg = bytes(range(100, 140))  # 40 octets
        out = hmac_block_prf(key, Block.from_octets(msg).bits())
        assert out.to_octets() == hmac_sha256(bytes(range(32)), msg)

    def test_empty_message(self):
        key = Block.from_octets(b"\x00" * 32)
        assert hmac_block_prf(key, ()).to_octets() == hmac_sha256(b"\x00" * 32, b"")

    def test_validation(self):
        with pytest.raises(ValueError):
            hmac_block_prf(Block(8, 0), (0,) * 8)
        with pytest.raises(ValueError):
            hmac_block_prf(Block.from_octets(b"\x00" * 32), (0,) * 7)
