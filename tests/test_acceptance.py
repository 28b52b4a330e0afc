"""Acceptance battery: the package's headline guarantees.

One test per criterion, each printing a single machine-readable
pass/fail line (visible under ``pytest -s`` or in captured output).
Criteria with stated time budgets are timed against them.
"""

import random
import time
from fractions import Fraction
from importlib import resources

from drbglab import cavp
from drbglab.bounds import BoundInputs, total_bound
from drbglab.cli import main
from drbglab.drbg import DEFAULT_RESEED_INTERVAL, DrbgState, GenerateRequest, generate
from drbglab.games import (
    EQUALITY_LEMMAS,
    HybridParams,
    KV,
    calibration_games,
    collision_detector,
    generate_spec,
    main_theorem_check,
    run_all_lemmas,
)
from drbglab.prf import HMAC_SHA256_RFC4231, Block, hmac_block_prf, hmac_sha256
from drbglab.prob import estimate_pr_true


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num} [{name}]: {verdict}{extra}")
    assert ok, f"criterion {num} [{name}] failed {extra}"


def test_criterion_1_vector_file_byte_exact():
    """Every bundled SHA-256 no-reseed response case, byte-exact, < 1 s."""
    started = time.monotonic()
    text = resources.files("drbglab").joinpath(
        "vectors/hmac_drbg_no_reseed.rsp"
    ).read_text("ascii")
    summary = cavp.run_file(cavp.parse(text), mechanism="SHA-256")
    elapsed = time.monotonic() - started
    ok = summary.failed == 0 and summary.passed == 60 and elapsed < 1.0
    report(
        1,
        "cavp_no_reseed_sha256",
        ok,
        f"{summary.passed} passed, {summary.failed} failed, {elapsed:.2f}s",
    )


def test_criterion_2_hmac_reference_vectors():
    """All seven published HMAC-SHA256 test vectors, exact."""
    cases = HMAC_SHA256_RFC4231
    failures = 0
    for key, message, want, truncate in cases:
        got = hmac_sha256(key, message)
        if truncate is not None:
            got = got[:truncate]
        failures += got.hex() != want
    report(2, "hmac_sha256_rfc4231", failures == 0, f"{len(cases) - failures}/{len(cases)} exact")


def test_criterion_3_lemma_grid_exact():
    """All lemmas at every eta in 1..3, num_calls in 1..3,
    blocks_per_call in 1..2, every admissible hybrid index: equalities
    exact, inequalities hold, the whole grid under five minutes."""
    started = time.monotonic()
    checks = []
    for eta in (1, 2, 3):
        for num_calls in (1, 2, 3):
            for blocks_per_call in (1, 2):
                p = HybridParams(eta, num_calls, blocks_per_call)
                checks.extend(run_all_lemmas(p))
    elapsed = time.monotonic() - started
    failures = [c for c in checks if not c.passed]
    inexact = [c for c in checks if c.mode != "exact"]
    ok = not failures and not inexact and len(checks) == 306 and elapsed < 300.0
    report(
        3,
        "lemma_grid",
        ok,
        f"{len(checks)} checks, {len(failures)} failures, "
        f"{len(inexact)} inexact, {elapsed:.1f}s",
    )
    for c in failures:
        print("  " + c.line())


def test_criterion_4_main_theorem_exact_rationals():
    """The end-to-end bound at eta=2, 2 calls, 2 blocks per call with
    the collision distinguisher: advantage <= num_calls * (prf_gap +
    collision term), every quantity an exact rational."""
    p = HybridParams(2, 2, 2, adversary=collision_detector)
    rep = main_theorem_check(p)
    quantities = (rep.lhs, rep.prf_gap, rep.collisions, rep.rhs)
    all_exact = all(q.exact and isinstance(q.mid, Fraction) for q in quantities)
    ok = rep.check.passed and all_exact
    report(
        4,
        "main_theorem_small",
        ok,
        f"lhs={rep.lhs} <= rhs={rep.rhs}",
    )


def test_criterion_5_bound_reference_point(capsys):
    """The bound command at t=78, 2^48 calls, 10 blocks per call,
    eta=128: log2 of the total within 0.1 of -52, and the PRF term
    printed exactly as 2^-100 + 2^-177."""
    code = main([
        "bound", "--t", "78", "--num-calls", str(1 << 48),
        "--blocks-per-call", "10", "--eta", "128",
    ])
    out = capsys.readouterr().out.splitlines()
    record = dict(l.split("=", 1) for l in out if "=" in l and not l.startswith("note"))
    log2 = float(record["total_log2"])
    ok = (
        code == 0
        and record["prf_advantage"] == "2^-100 + 2^-177"
        and abs(log2 + 52.0) <= 0.1
    )
    # the same number straight from the library, for the printed detail
    direct = total_bound(BoundInputs(78, 1 << 48, 10, 128)).log2
    with capsys.disabled():
        report(5, "bound_reference_point", ok, f"total_log2={log2} (library: {direct})")


def test_criterion_6_game_generator_matches_drbg():
    """generate at block width 256 with the HMAC PRF reproduces the
    real generator byte-exactly — outputs and successor states — on
    1000 states (fresh random or chained from the previous call),
    1..8 blocks per call."""
    rng = random.Random(0xD5B6)
    p = HybridParams(256, 1, 1, prf=hmac_block_prf)
    mismatches = 0
    state_bytes = (rng.randbytes(32), rng.randbytes(32))
    for trial in range(1000):
        if trial and rng.random() < 0.5:
            state_bytes = (new_state.key, new_state.v)  # chain the successor
        else:
            state_bytes = (rng.randbytes(32), rng.randbytes(32))
        key, v = state_bytes
        n = rng.randint(1, 8)

        st = DrbgState(
            key=key, v=v, reseed_counter=1, entropy_len=32,
            prediction_resistance=False, reseed_interval=DEFAULT_RESEED_INTERVAL,
        )
        out, new_state = generate(st, GenerateRequest(32 * n))

        blocks, kv2 = generate_spec(
            p, KV(Block.from_octets(key), Block.from_octets(v)), n
        ).value
        game_out = b"".join(b.to_octets() for b in blocks)
        same = (
            game_out == out
            and kv2.k.to_octets() == new_state.key
            and kv2.v.to_octets() == new_state.v
        )
        mismatches += not same
    report(6, "generator_equivalence_1000", mismatches == 0, f"{mismatches} mismatches")


def test_criterion_7_monte_carlo_calibration():
    """Across twenty enumerable games, the 99% interval at 10^5 trials
    (fixed seeds) must contain the exact win probability in at least
    eighteen."""
    games = calibration_games()
    contained = 0
    worst = ""
    for index, (name, comp, exact) in enumerate(games):
        est = estimate_pr_true(comp, trials=100_000, seed=0xCA11 + index)
        if est.contains(exact):
            contained += 1
        else:
            worst += f" [{name}: exact={exact} est={est.estimate:.5f}]"
    ok = contained >= 18
    report(7, "monte_carlo_calibration", ok, f"{contained}/20 intervals cover{worst}")
