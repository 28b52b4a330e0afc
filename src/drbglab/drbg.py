"""HMAC-DRBG with SHA-256, byte-exact per NIST SP 800-90A.

The state machine here is pure: update/reseed/generate return fresh
states and never touch an entropy source. Entropy policy (automatic
reseeding, prediction resistance) lives in ``generate_with_entropy``,
which drives the pure machine from an ``entropy.EntropyStream``.

Error taxonomy: ``ReseedRequired`` is a recoverable signal raised by
``generate`` when the reseed counter passes the interval; it never
indicates state corruption. Entropy shortfall surfaces as
``entropy.EntropyExhausted``. No numeric parity with mbedTLS error
codes is claimed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import entropy as entropy_mod
from .prf import hmac_sha256

OUTPUT_OCTETS = 32

# Administrative limits; the output and additional-input caps are the
# mbedTLS defaults.
MAX_OUT_LEN = 1024
MAX_ADDITIONAL_INPUT = 256
MAX_RESEED_INTERVAL = 1 << 48
DEFAULT_RESEED_INTERVAL = 1 << 48


class DrbgError(Exception):
    """Base class for DRBG failures."""


class InstantiationError(DrbgError):
    """Instantiate or reseed called without entropy."""


class ReseedRequired(DrbgError):
    """The reseed counter exceeded the interval; reseed and retry."""


@dataclass
class DrbgState:
    """Working state: secrets (key, v) plus administrative fields.

    Mutable only so that zeroize can scrub the secret fields in place;
    all state transitions return new instances.
    """

    key: bytes
    v: bytes
    reseed_counter: int
    entropy_len: int
    prediction_resistance: bool
    reseed_interval: int

    def __post_init__(self) -> None:
        if len(self.key) != OUTPUT_OCTETS:
            raise ValueError(f"key must be {OUTPUT_OCTETS} octets, got {len(self.key)}")
        if len(self.v) != OUTPUT_OCTETS:
            raise ValueError(f"v must be {OUTPUT_OCTETS} octets, got {len(self.v)}")
        if not 0 < self.reseed_interval <= MAX_RESEED_INTERVAL:
            raise ValueError(
                f"reseed_interval must be in 1..2^48, got {self.reseed_interval}"
            )
        if self.entropy_len < 0:
            raise ValueError("entropy_len must be nonnegative")


@dataclass(frozen=True)
class GenerateRequest:
    out_len: int
    additional_input: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.out_len <= MAX_OUT_LEN:
            raise ValueError(f"out_len must be in 0..{MAX_OUT_LEN}, got {self.out_len}")
        if len(self.additional_input) > MAX_ADDITIONAL_INPUT:
            raise ValueError(f"additional_input exceeds {MAX_ADDITIONAL_INPUT} octets")


def update(state: DrbgState, provided_data: bytes = b"") -> DrbgState:
    """The HMAC-DRBG Update function (SP 800-90A 10.1.2.2).

    One rekey round with separator 0x00; a second round with separator
    0x01 only when provided_data is nonempty.
    """
    k = hmac_sha256(state.key, state.v + b"\x00" + provided_data)
    v = hmac_sha256(k, state.v)
    if provided_data:
        k = hmac_sha256(k, v + b"\x01" + provided_data)
        v = hmac_sha256(k, v)
    return replace(state, key=k, v=v)


def instantiate(
    entropy_input: bytes,
    nonce: bytes = b"",
    personalization: bytes = b"",
    prediction_resistance: bool = False,
    entropy_len: int | None = None,
    reseed_interval: int = DEFAULT_RESEED_INTERVAL,
) -> DrbgState:
    """Build a fresh state from seed material.

    entropy_len defaults to the length of the supplied entropy input;
    it governs how many octets generate_with_entropy pulls per reseed.
    """
    if not entropy_input:
        raise InstantiationError("entropy_input must be nonempty")
    state = DrbgState(
        key=b"\x00" * OUTPUT_OCTETS,
        v=b"\x01" * OUTPUT_OCTETS,
        reseed_counter=1,
        entropy_len=len(entropy_input) if entropy_len is None else entropy_len,
        prediction_resistance=prediction_resistance,
        reseed_interval=reseed_interval,
    )
    return update(state, entropy_input + nonce + personalization)


def reseed(
    state: DrbgState, entropy_input: bytes, additional_input: bytes = b""
) -> DrbgState:
    if not entropy_input:
        raise InstantiationError("entropy_input must be nonempty")
    new = update(state, entropy_input + additional_input)
    new.reseed_counter = 1
    return new


def generate(state: DrbgState, req: GenerateRequest) -> tuple[bytes, DrbgState]:
    """Produce req.out_len octets and the successor state.

    Raises ReseedRequired when the counter has passed the interval; the
    state is untouched in that case and remains valid.
    """
    if state.reseed_counter > state.reseed_interval:
        raise ReseedRequired(
            f"reseed_counter {state.reseed_counter} exceeds interval "
            f"{state.reseed_interval}"
        )
    working = state
    if req.additional_input:
        working = update(working, req.additional_input)
    temp = b""
    v = working.v
    while len(temp) < req.out_len:
        v = hmac_sha256(working.key, v)
        temp += v
    working = update(replace(working, v=v), req.additional_input)
    working.reseed_counter = state.reseed_counter + 1
    return temp[: req.out_len], working


def generate_with_entropy(
    stream: entropy_mod.EntropyStream, state: DrbgState, req: GenerateRequest
) -> tuple[bytes, entropy_mod.EntropyStream, DrbgState]:
    """Generate with automatic reseeding (the mbedTLS driving loop).

    When prediction resistance is on, or the counter has passed the
    interval, entropy_len octets are consumed from the stream and the
    state reseeded with the request's additional input first; the
    additional input is then considered spent and the generate itself
    runs without it. Raises entropy.EntropyExhausted when the stream
    cannot supply the reseed.
    """
    if state.prediction_resistance or state.reseed_counter > state.reseed_interval:
        seed_octets, stream = entropy_mod.take(stream, state.entropy_len)
        state = reseed(state, seed_octets, req.additional_input)
        req = replace(req, additional_input=b"")
    out, state = generate(state, req)
    return out, stream, state


def zeroize(state: DrbgState) -> None:
    """Overwrite the secret fields with zeros (best effort in Python).

    The previous key/v objects may persist until garbage collected;
    this scrubs the reachable copies and is idempotent.
    """
    state.key = b"\x00" * OUTPUT_OCTETS
    state.v = b"\x00" * OUTPUT_OCTETS
