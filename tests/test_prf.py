"""Hash/HMAC primitives against fixed known answers and a stdlib oracle."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from drbglab.prf import (
    HMAC_SHA256_RFC4231,
    ZERO_OCTET,
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
    def test_concatenation_msb_first(self):
        assert Block(3, 0b011) + Block(2, 0b10) == Block(5, 0b01110)
        assert Block(1, 1) + ZERO_OCTET == Block(9, 0b1_0000_0000)
        assert ZERO_OCTET == Block(8, 0)

    def test_concatenation_round_trip(self):
        rng = random.Random(7)
        for _ in range(50):
            wa, wb = rng.randrange(1, 40), rng.randrange(1, 40)
            a, b = Block(wa, rng.randrange(1 << wa)), Block(wb, rng.randrange(1 << wb))
            ab = a + b
            assert ab.eta == wa + wb
            assert Block(wa, ab.value >> wb) == a
            assert Block(wb, ab.value & ((1 << wb) - 1)) == b

    def test_equality_compares_widths(self):
        # a rekey input (eta + 8 bits) never equals a chain input, even
        # where their values agree
        assert Block(4, 0) + ZERO_OCTET != Block(4, 0)
        assert Block(8, 0) != Block(16, 0)
        assert len({Block(8, 0), Block(16, 0), Block(8, 0)}) == 2

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


blocks = st.integers(1, 300).flatmap(
    lambda w: st.builds(Block, st.just(w), st.integers(0, (1 << w) - 1))
)


@given(blocks, blocks)
def test_encode_bits_injective(a, b):
    if a != b:
        assert encode_bits(a) != encode_bits(b)


# (width, value, encoding) known answers; the length octet wraps mod 256
ENCODE_BITS_KAT = [
    (1, 0x1, "0101"),
    (8, 0xA5, "08a5"),
    (9, 0x1A5, "0901a5"),
    (256, int.from_bytes(bytes(range(32)), "big"), "00" + bytes(range(32)).hex()),
    (264, (1 << 263) | 3, "0880" + "00" * 31 + "03"),
]


def test_encode_bits_layout():
    for width, value, want in ENCODE_BITS_KAT:
        assert encode_bits(Block(width, value)).hex() == want


class TestPrfSmall:
    # known answers, so a drift in the input encoding shows: (key, outputs
    # on chain inputs 0..2^eta-1, outputs on the rekey inputs x + ZERO_OCTET)
    TABLES = {
        2: (2, [3, 2, 2, 2], [3, 0, 0, 0]),
        3: (5, [3, 4, 1, 6, 7, 5, 7, 0], [1, 5, 2, 3, 5, 7, 7, 2]),
    }
    # eta 16, key 0xBEEF: input -> (chain output, rekey output)
    ETA16 = {0x0000: (0x5430, 0x8D7D), 0x1234: (0xCCD1, 0x3634), 0xFFFF: (0x9783, 0x3629)}

    def test_known_answers(self):
        for eta, (key, chain, rekey) in self.TABLES.items():
            k = Block(eta, key)
            assert [prf_small(k, Block(eta, x)).value for x in range(1 << eta)] == chain
            assert [prf_small(k, Block(eta, x) + ZERO_OCTET).value for x in range(1 << eta)] == rekey
        k = Block(16, 0xBEEF)
        for x, (chain, rekey) in self.ETA16.items():
            assert prf_small(k, Block(16, x)) == Block(16, chain)
            assert prf_small(k, Block(16, x) + ZERO_OCTET) == Block(16, rekey)

    def test_deterministic_and_in_range(self):
        for eta in (1, 2, 3, 8, 13):
            key = Block(eta, (1 << eta) - 1)
            seen = set()
            for x in range(1 << min(eta, 6)):
                out = prf_small(key, Block(eta, x))
                assert out == prf_small(key, Block(eta, x))
                assert out.eta == eta
                seen.add(out.value)
            assert all(0 <= v < (1 << eta) for v in seen)

    def test_is_truncated_hmac(self):
        # first eta bits of HMAC over the length-prefixed encodings
        eta = 11
        key = Block(eta, 0x2A5 % (1 << eta))
        inp = Block(5, 0b10110)
        digest = hmac_sha256(encode_bits(key), encode_bits(inp))
        want = int.from_bytes(digest, "big") >> (256 - eta)
        assert prf_small(key, inp) == Block(eta, want)

    def test_length_prefix_separates_widths(self):
        # all-zero inputs of different widths must hash differently;
        # without the length prefix they would alias
        outs = {prf_small(Block(8, 0), Block(n, 0)).value for n in range(1, 4)}
        assert len(outs) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            prf_small(Block(257, 0), Block(1, 0))


class TestHmacBlockPrf:
    KEY = Block.from_octets(bytes(range(32)))
    # HMAC-SHA256 under KEY of bytes(range(100, 100 + n)), n = 32 and 33
    KAT = {
        256: "1cb9dbd028774bae7ba8e2fd9890a3d6836fb24774fc337a7d56ee8f7436d62e",
        264: "1c99c85fa0827d8d728a5ec1467510882b480dc8444108ee4bd7f8375183d941",
    }

    def test_known_answers(self):
        for width, want in self.KAT.items():
            msg = Block.from_octets(bytes(range(100, 100 + width // 8)))
            assert hmac_block_prf(self.KEY, msg).to_octets().hex() == want

    def test_matches_plain_hmac(self):
        msg = bytes(range(100, 140))  # 40 octets
        out = hmac_block_prf(self.KEY, Block.from_octets(msg))
        assert out.to_octets() == hmac_sha256(bytes(range(32)), msg)

    def test_validation(self):
        with pytest.raises(ValueError):
            hmac_block_prf(Block(8, 0), Block(8, 0))
        with pytest.raises(ValueError):
            hmac_block_prf(self.KEY, Block(7, 0))
