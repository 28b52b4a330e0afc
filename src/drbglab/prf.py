"""HMAC-SHA256 and a truncated small-block PRF.

SHA-256 itself comes from the platform (hashlib). HMAC is deliberately
built here from the raw hash, rather than taken from the stdlib hmac
module, so the FIPS 198 structure (key normalization, ipad/opad, nested
hashing) is visible and testable on its own. The stdlib implementation
serves as an independent oracle in the test suite.

``Block`` is the one bit-vector format: keys, PRF inputs and PRF
outputs are all Blocks, and a rekey input is ``v + ZERO_OCTET``.
``prf_small`` shrinks HMAC-SHA256 to a PRF keyed and answered by
``eta``-bit Blocks, so that probability experiments over the full input
space stay enumerable at small ``eta`` while exercising the real
compression function.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

SHA256_BLOCK_OCTETS = 64
SHA256_OUTPUT_OCTETS = 32

_IPAD = 0x36
_OPAD = 0x5C


def sha256(data: bytes) -> bytes:
    """SHA-256 digest (32 octets)."""
    return hashlib.sha256(data).digest()


def hmac_sha256(key: bytes, message: bytes) -> bytes:
    """HMAC-SHA256 per FIPS 198-1.

    Keys longer than the 64-octet hash block are hashed down first;
    shorter keys are zero-padded on the right to exactly one block.
    """
    if len(key) > SHA256_BLOCK_OCTETS:
        key = sha256(key)
    k0 = key.ljust(SHA256_BLOCK_OCTETS, b"\x00")
    inner = sha256(bytes(b ^ _IPAD for b in k0) + message)
    return sha256(bytes(b ^ _OPAD for b in k0) + inner)


# RFC 4231 HMAC-SHA256 test cases 1-7 as (key, data, hex digest, octets
# compared); case 5 compares the 128-bit truncation.
HMAC_SHA256_RFC4231: tuple[tuple[bytes, bytes, str, int | None], ...] = (
    (b"\x0b" * 20, b"Hi There",
     "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7", None),
    (b"Jefe", b"what do ya want for nothing?",
     "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843", None),
    (b"\xaa" * 20, b"\xdd" * 50,
     "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe", None),
    (bytes(range(1, 26)), b"\xcd" * 50,
     "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b", None),
    (b"\x0c" * 20, b"Test With Truncation", "a3b6167473100ee06e0c796c2955552b", 16),
    (b"\xaa" * 131, b"Test Using Larger Than Block-Size Key - Hash Key First",
     "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54", None),
    (b"\xaa" * 131,
     b"This is a test using a larger than block-size key and a larger than "
     b"block-size data. The key needs to be hashed before being used by the "
     b"HMAC algorithm.",
     "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2", None),
)


def to_hex(octets: bytes) -> str:
    """Lowercase hex, the only rendering used anywhere in this package."""
    return octets.hex()


def from_hex(text: str) -> bytes:
    """Decode hex (case-insensitive). Raises ValueError on odd length or bad digits."""
    text = text.strip()
    if len(text) % 2 != 0:
        raise ValueError(f"hex string has odd length {len(text)}")
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise ValueError(f"invalid hex string {text!r}: {exc}") from None


@dataclass(frozen=True)
class Block:
    """An immutable bit-vector of length ``eta``, stored as an integer.

    Bit order is MSB-first, and ``a + b`` concatenates: ``b`` follows
    ``a``. Equality compares widths too, so ``Block(8, 0)`` and
    ``Block(16, 0)`` differ.
    """

    eta: int
    value: int

    def __post_init__(self) -> None:
        if self.eta < 1:
            raise ValueError(f"block width must be >= 1, got {self.eta}")
        if not 0 <= self.value < (1 << self.eta):
            raise ValueError(f"block value {self.value} out of range for eta={self.eta}")

    def __add__(self, other: "Block") -> "Block":
        return Block(self.eta + other.eta, (self.value << other.eta) | other.value)

    def to_octets(self) -> bytes:
        if self.eta % 8 != 0:
            raise ValueError(f"eta={self.eta} is not a whole number of octets")
        return self.value.to_bytes(self.eta // 8, "big")

    @classmethod
    def from_octets(cls, octets: bytes) -> "Block":
        return cls(8 * len(octets), int.from_bytes(octets, "big"))


ZERO_OCTET = Block(8, 0)  # the 0x00 separator appended to a rekey input


def encode_bits(x: Block) -> bytes:
    """Injective octet encoding of a bit-vector.

    Layout: one length octet (width mod 256) followed by the value
    right-aligned in ceil(width/8) octets (zero bits padded on the left).
    Distinct Blocks always produce distinct octet strings: equal widths
    differ in the payload, widths that differ by less than 256 differ in
    the length octet, and widths that differ by 256 or more differ in the
    payload octet count.
    """
    return bytes([x.eta & 0xFF]) + x.value.to_bytes((x.eta + 7) // 8, "big")


@functools.lru_cache(maxsize=1 << 18)
def _prf_small_raw(eta: int, key_value: int, width: int, value: int) -> int:
    digest = hmac_sha256(encode_bits(Block(eta, key_value)), encode_bits(Block(width, value)))
    return int.from_bytes(digest, "big") >> (8 * SHA256_OUTPUT_OCTETS - eta)


def prf_small(key: Block, x: Block) -> Block:
    """The ``key.eta``-bit PRF: the first ``key.eta`` bits of HMAC-SHA256
    with ``encode_bits(key)`` as key and ``encode_bits(x)`` as message.

    The length prefix makes the PRF well defined for any input width and
    keeps a chain input (eta bits) apart from a rekey input (eta + 8
    bits) before hashing.
    """
    eta = key.eta
    if eta > 256:
        raise ValueError(f"key width must be in 1..256, got {eta}")
    return Block(eta, _prf_small_raw(eta, key.value, x.eta, x.value))


def hmac_block_prf(key: Block, x: Block) -> Block:
    """The 256-bit PRF used for cross-checking against the octet-level DRBG.

    Here the inputs are whole octets already (widths 256 and 256+8), so
    they are hashed directly without the length-prefix encoding; this is
    exactly HMAC-SHA256 on the serialized values.
    """
    if key.eta != 256:
        raise ValueError(f"hmac_block_prf needs a 256-bit key, got {key.eta}")
    return Block.from_octets(hmac_sha256(key.to_octets(), x.to_octets()))
