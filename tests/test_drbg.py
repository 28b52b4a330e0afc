"""DRBG state machine: transitions recomputed with the stdlib as oracle."""

import hashlib
import hmac as stdlib_hmac
import random

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from drbglab.drbg import (
    DEFAULT_RESEED_INTERVAL,
    OUTPUT_OCTETS,
    DrbgState,
    GenerateRequest,
    InstantiationError,
    ReseedRequired,
    generate,
    generate_with_entropy,
    instantiate,
    reseed,
    update,
    zeroize,
)
from drbglab.entropy import DeterministicStream, EntropyExhausted


def H(key: bytes, msg: bytes) -> bytes:
    return stdlib_hmac.new(key, msg, hashlib.sha256).digest()


def fresh_state(key=b"\x11" * 32, v=b"\x22" * 32, **kw) -> DrbgState:
    defaults = dict(
        reseed_counter=1,
        entropy_len=32,
        prediction_resistance=False,
        reseed_interval=DEFAULT_RESEED_INTERVAL,
    )
    defaults.update(kw)
    return DrbgState(key=key, v=v, **defaults)


class TestUpdate:
    def test_without_data_single_round(self):
        st = fresh_state()
        new = update(st)
        k1 = H(st.key, st.v + b"\x00")
        assert new.key == k1
        assert new.v == H(k1, st.v)

    def test_with_data_two_rounds(self):
        st = fresh_state()
        data = b"\xab\xcd"
        new = update(st, data)
        k1 = H(st.key, st.v + b"\x00" + data)
        v1 = H(k1, st.v)
        k2 = H(k1, v1 + b"\x01" + data)
        assert new.key == k2
        assert new.v == H(k2, v1)

    def test_returns_fresh_state(self):
        st = fresh_state()
        update(st, b"x")
        assert st.key == b"\x11" * 32  # input untouched


class TestInstantiate:
    def test_seed_material_concatenation(self):
        entropy, nonce, pers = b"\xe1" * 32, b"\xe2" * 16, b"\xe3" * 5
        st = instantiate(entropy, nonce, pers)
        # derivation starts from the fixed initial state K=00.., V=01..
        k0, v0 = b"\x00" * OUTPUT_OCTETS, b"\x01" * OUTPUT_OCTETS
        seed = entropy + nonce + pers
        k1 = H(k0, v0 + b"\x00" + seed)
        v1 = H(k1, v0)
        k2 = H(k1, v1 + b"\x01" + seed)
        v2 = H(k2, v1)
        assert (st.key, st.v) == (k2, v2)
        assert st.reseed_counter == 1

    def test_empty_entropy_rejected(self):
        with pytest.raises(InstantiationError):
            instantiate(b"")

    def test_administrative_fields(self):
        st = instantiate(b"\x01" * 24, prediction_resistance=True, reseed_interval=5)
        assert st.entropy_len == 24  # defaults to the supplied length
        assert st.prediction_resistance is True
        assert st.reseed_interval == 5
        st = instantiate(b"\x01" * 48, entropy_len=32)
        assert st.entropy_len == 32


class TestGenerate:
    def test_output_is_hmac_chain(self):
        st = fresh_state()
        out, new = generate(st, GenerateRequest(out_len=80))
        v1 = H(st.key, st.v)
        v2 = H(st.key, v1)
        v3 = H(st.key, v2)
        assert out == (v1 + v2 + v3)[:80]
        # final update (no additional input: single round) from v3
        k = H(st.key, v3 + b"\x00")
        assert new.key == k
        assert new.v == H(k, v3)
        assert new.reseed_counter == 2

    def test_additional_input_updates_before_and_after(self):
        st = fresh_state()
        add = b"\x77" * 3
        out, new = generate(st, GenerateRequest(out_len=32, additional_input=add))
        pre = update(st, add)
        v1 = H(pre.key, pre.v)
        assert out == v1
        post = update(
            DrbgState(
                key=pre.key,
                v=v1,
                reseed_counter=st.reseed_counter,
                entropy_len=st.entropy_len,
                prediction_resistance=st.prediction_resistance,
                reseed_interval=st.reseed_interval,
            ),
            add,
        )
        assert (new.key, new.v) == (post.key, post.v)

    def test_zero_length_request_still_ratchets(self):
        st = fresh_state()
        out, new = generate(st, GenerateRequest(out_len=0))
        assert out == b""
        assert (new.key, new.v) != (st.key, st.v)
        assert new.reseed_counter == 2

    def test_counter_accumulates(self):
        st = fresh_state()
        for want in (2, 3, 4):
            _, st = generate(st, GenerateRequest(out_len=8))
            assert st.reseed_counter == want

    def test_reseed_required_at_interval(self):
        st = fresh_state(reseed_interval=2)
        _, st = generate(st, GenerateRequest(out_len=8))
        _, st = generate(st, GenerateRequest(out_len=8))
        assert st.reseed_counter == 3
        with pytest.raises(ReseedRequired):
            generate(st, GenerateRequest(out_len=8))
        # the state stays valid: reseeding recovers
        st = reseed(st, b"\x05" * 32)
        assert st.reseed_counter == 1
        out, _ = generate(st, GenerateRequest(out_len=8))
        assert len(out) == 8

    def test_request_caps(self):
        with pytest.raises(ValueError):
            GenerateRequest(out_len=1025)
        with pytest.raises(ValueError):
            GenerateRequest(out_len=-1)
        with pytest.raises(ValueError):
            GenerateRequest(out_len=8, additional_input=b"\x00" * 257)


class TestReseed:
    def test_mixes_entropy_and_additional(self):
        st = fresh_state(reseed_counter=40)
        new = reseed(st, b"\xaa" * 32, b"\xbb" * 4)
        want = update(st, b"\xaa" * 32 + b"\xbb" * 4)
        assert (new.key, new.v) == (want.key, want.v)
        assert new.reseed_counter == 1

    def test_empty_entropy_rejected(self):
        with pytest.raises(InstantiationError):
            reseed(fresh_state(), b"")


class TestGenerateWithEntropy:
    def test_plain_path_leaves_stream_alone(self):
        st = fresh_state()
        stream = DeterministicStream(b"\x01" * 32)
        out, stream2, st2 = generate_with_entropy(stream, st, GenerateRequest(16))
        assert len(stream2) == 32  # untouched
        want, _ = generate(st, GenerateRequest(16))
        assert out == want

    def test_prediction_resistance_reseeds_every_call(self):
        st = fresh_state(prediction_resistance=True, entropy_len=32)
        stream = DeterministicStream(b"\x0a" * 32 + b"\x0b" * 32)
        add = b"\x33" * 2
        out, stream, st = generate_with_entropy(
            stream, st, GenerateRequest(16, additional_input=add)
        )
        # reseed consumes the additional input; generate runs without it
        manual = reseed(fresh_state(prediction_resistance=True), b"\x0a" * 32, add)
        want, _ = generate(manual, GenerateRequest(16))
        assert out == want
        assert len(stream) == 32
        _, stream, st = generate_with_entropy(stream, st, GenerateRequest(16))
        assert len(stream) == 0

    def test_interval_overflow_triggers_reseed(self):
        st = fresh_state(reseed_interval=1)
        stream = DeterministicStream(b"\xcc" * 32)
        _, stream, st = generate_with_entropy(stream, st, GenerateRequest(8))
        assert len(stream) == 32  # first call within interval
        _, stream, st = generate_with_entropy(stream, st, GenerateRequest(8))
        assert len(stream) == 0  # second call had to reseed
        assert st.reseed_counter == 2

    def test_exhaustion_surfaces(self):
        st = fresh_state(prediction_resistance=True, entropy_len=32)
        with pytest.raises(EntropyExhausted):
            generate_with_entropy(
                DeterministicStream(b"\x00" * 16), st, GenerateRequest(8)
            )


def test_zeroize():
    st = fresh_state(key=b"\x55" * 32, v=b"\x66" * 32)
    zeroize(st)
    assert st.key == b"\x00" * 32
    assert st.v == b"\x00" * 32
    zeroize(st)  # idempotent
    assert st.key == b"\x00" * 32


def test_generate_known_sequence_is_reproducible():
    # fixed inputs give identical output across runs (pure functions)
    rng = random.Random(99)
    entropy = rng.randbytes(32)
    st1 = instantiate(entropy, b"\x01" * 16)
    st2 = instantiate(entropy, b"\x01" * 16)
    out1, _ = generate(st1, GenerateRequest(64))
    out2, _ = generate(st2, GenerateRequest(64))
    assert out1 == out2


def test_state_validation():
    with pytest.raises(ValueError):
        fresh_state(key=b"\x00" * 31)
    with pytest.raises(ValueError):
        fresh_state(v=b"\x00" * 33)
    with pytest.raises(ValueError):
        fresh_state(reseed_interval=0)
    with pytest.raises(ValueError):
        fresh_state(entropy_len=-1)


# ------------------------------------------------- stateful reseed checking


class ReferenceDrbg:
    """HMAC-DRBG on the stdlib hmac with the reseed policy of
    ``generate_with_entropy``: reseed first under prediction resistance
    or past the interval, spending the additional input on the reseed.
    A failed call changes nothing."""

    def __init__(self, seed: bytes, entropy: bytes, entropy_len: int, pr: bool, interval: int):
        self.key, self.v = b"\x00" * 32, b"\x01" * 32
        self.update(seed)
        self.counter, self.entropy = 1, entropy
        self.entropy_len, self.pr, self.interval = entropy_len, pr, interval

    def snapshot(self) -> tuple:
        return (self.key, self.v, self.counter, self.entropy)

    def update(self, data: bytes) -> None:
        for sep in (b"\x00", b"\x01") if data else (b"\x00",):
            self.key = H(self.key, self.v + sep + data)
            self.v = H(self.key, self.v)

    def generate(self, out_len: int, add: bytes) -> bytes:
        if self.pr or self.counter > self.interval:
            if len(self.entropy) < self.entropy_len:
                raise EntropyExhausted("reference stream ran dry")
            self.update(self.entropy[: self.entropy_len] + add)
            self.entropy = self.entropy[self.entropy_len :]
            self.counter, add = 1, b""
        if add:
            self.update(add)
        out = b""
        while len(out) < out_len:
            self.v = H(self.key, self.v)
            out += self.v
        self.update(add)
        self.counter += 1
        return out[:out_len]


# entropy of a drawn length: Hypothesis keeps drawn byte strings short,
# which would leave the stream dry before most reseeds
OCTETS = st.integers(0, 200).map(lambda n: bytes(i * 37 % 256 for i in range(n)))


class ReseedMachine(RuleBasedStateMachine):
    """generate_with_entropy against the reference, call by call, over
    prediction resistance, intervals of 1-3, additional input and a
    finite entropy stream that runs dry and is topped up."""

    @initialize(
        seed=st.binary(min_size=1, max_size=40),
        entropy=OCTETS,
        entropy_len=st.integers(1, 40),
        pr=st.booleans(),
        interval=st.integers(1, 3),
    )
    def start(self, seed, entropy, entropy_len, pr, interval):
        self.state = instantiate(
            seed, prediction_resistance=pr, entropy_len=entropy_len, reseed_interval=interval
        )
        self.stream = DeterministicStream(entropy)
        self.ref = ReferenceDrbg(seed, entropy, entropy_len, pr, interval)

    def snapshot(self) -> tuple:
        return (self.state.key, self.state.v, self.state.reseed_counter, self.stream.remaining)

    @rule(out_len=st.integers(0, 80), add=st.binary(max_size=40))
    def generate(self, out_len, add):
        before, ref_before = self.snapshot(), self.ref.snapshot()
        try:
            out, self.stream, self.state = generate_with_entropy(
                self.stream, self.state, GenerateRequest(out_len, add)
            )
        except EntropyExhausted:
            with pytest.raises(EntropyExhausted):
                self.ref.generate(out_len, add)
            assert self.snapshot() == before and self.ref.snapshot() == ref_before
            return
        assert out == self.ref.generate(out_len, add)

    @rule(extra=OCTETS)
    def top_up(self, extra):
        self.stream = DeterministicStream(self.stream.remaining + extra)
        self.ref.entropy += extra

    @invariant()
    def states_agree(self):
        assert self.snapshot() == self.ref.snapshot()


TestReseedMachine = ReseedMachine.TestCase
TestReseedMachine.settings = settings(max_examples=60, stateful_step_count=15, deadline=None)
