"""Self-checks of the benchmark: every injected fault must be counted as a
failed operation, and short runs must print every declared metric.

    python3 -m pytest -q perfbench

Takes a few minutes, most of it in the full short runs.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import DEFAULT_SEED, Conformance, DrbgStream, LemmaGrid, Run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())


def failed_share(run: Run) -> float:
    return run.failed / run.attempted


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


# ------------------------------------------------------------------ faults


def test_flipped_output_byte_fails(monkeypatch):
    from drbglab import drbg

    clean = Run(1, PINS)
    DrbgStream(clean, "fault", batches=1).step()
    assert clean.failed == 0 and clean.attempted == workloads.BATCH_REQUESTS

    real = drbg.generate
    calls = []

    def flip_once(state, req):
        out, state = real(state, req)
        calls.append(1)
        if len(calls) == 7:
            out = bytes([out[0] ^ 0x01]) + out[1:]
        return out, state

    monkeypatch.setattr(drbg, "generate", flip_once)
    faulty = Run(1, PINS)
    DrbgStream(faulty, "fault", batches=1).step()
    assert faulty.failed == 1 and failed_share(faulty) > 0


def _bumped(text: str) -> str:
    """A rendered rational (n, n/d or n/2^k) plus 2^-16."""
    num, _, den = text.partition("/")
    base, _, exp = (den or "1").partition("^")
    return str(Fraction(int(num), int(base) ** int(exp or 1)) + Fraction(1, 2**16))


def test_perturbed_pinned_fraction_fails():
    point = (2, 1, 1)
    clean = Run(1, PINS)
    LemmaGrid(clean, "fault", (point,), passes=1).step()
    assert clean.failed == 0 and clean.attempted > 0

    pins = copy.deepcopy(PINS)
    record = pins["lemma_grid"]["2,1,1"][0]
    record[3] = _bumped(record[3])
    faulty = Run(1, pins)
    LemmaGrid(faulty, "fault", (point,), passes=1).step()
    assert faulty.failed == 1 and failed_share(faulty) > 0


def test_perturbed_hit_count_fails():
    clean = Run(DEFAULT_SEED, PINS)
    activity = workloads.companion("monte_carlo", clean)
    activity.step()
    assert clean.failed == 0 and clean.attempted > 20

    pins = copy.deepcopy(PINS)
    pins["monte_carlo"][activity.pin_key(0)]["calibration"][3] += 1
    faulty = Run(DEFAULT_SEED, pins)
    workloads.companion("monte_carlo", faulty).step()
    assert faulty.failed == 1 and failed_share(faulty) > 0


def test_selftest_break_hmac_hook_fails(monkeypatch):
    from drbglab import cli

    clean = Run(1, PINS)
    Conformance(clean, "fault", passes=1).step()
    assert clean.failed == 0 and clean.attempted == 3 * (1 + 60) + 1

    monkeypatch.setenv(cli.BREAK_HMAC_ENV, "1")
    faulty = Run(1, PINS)
    Conformance(faulty, "fault", passes=1).step()
    assert faulty.failed == 1 and failed_share(faulty) > 0


def test_cavp_totals_count_every_shortfall():
    run = Run(1, PINS)
    conformance = Conformance(run, "fault", passes=1)
    conformance._check_cavp("f.rsp", 0, "total: 60 passed, 0 failed, 0 skipped\n")
    assert run.failed == 0 and run.attempted == 61
    conformance._check_cavp("f.rsp", 1, "total: 60 passed, 2 failed, 0 skipped\n")
    assert run.failed == 3  # the exit code and both failed cases
    conformance._check_cavp("f.rsp", 0, "total: 57 passed, 0 failed, 3 skipped\n")
    assert run.failed == 6


# ------------------------------------------------------------------ runs


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_run_prints_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    if workload == "drbg_stream":
        # the companions import scipy in their own process, not in this one
        assert result["metrics"]["peak_rss_MB"]["value"] < 60


def test_traced_run_counts_repeat():
    runs = []
    for _ in range(2):
        proc = bench("--workload", "drbg_stream", "--seed", "4", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        runs.append(last_json(proc.stdout))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for result in runs:
        assert result["correct"]
        assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    counts = [
        {name: m["value"] for name, m in r["metrics"].items() if m["unit"] in ("count", "octets")}
        for r in runs
    ]
    assert counts[0] == counts[1] and counts[0]["prf.hmac_sha256.calls"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = bench("--workload", "drbg_stream", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
