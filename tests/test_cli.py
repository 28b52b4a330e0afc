"""End-to-end runs of every subcommand through cli.main."""

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import drbglab
from drbglab import cavp
from drbglab.cli import (
    BREAK_HMAC_ENV,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESEED_REQUIRED,
    EXIT_USAGE,
    main,
)
from drbglab.games import ALL_CHECKS


def vector_path(name: str) -> str:
    return str(resources.files("drbglab").joinpath(f"vectors/{name}"))


def sha256_group(name: str) -> cavp.CavpGroup:
    parsed = cavp.parse_path(vector_path(name))
    return next(g for g in parsed.groups if g.mechanism == "SHA-256")


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestGen:
    def test_matches_vector_file_case(self, capsys):
        group = sha256_group("hmac_drbg_no_reseed.rsp")
        case = group.cases[0]
        code, out, _ = run(capsys, [
            "gen",
            "--entropy", case.entropy_input.hex(),
            "--nonce", case.nonce.hex(),
            "--personalization", case.personalization.hex(),
            "--out-len", str(len(case.returned_bits)),
            "--count", "2",
        ])
        assert code == EXIT_OK
        assert len(out) == 2
        assert out[1] == case.returned_bits.hex()

    def test_additional_input_flags_feed_each_call(self, capsys):
        parsed = cavp.parse_path(vector_path("hmac_drbg_no_reseed.rsp"))
        group = next(
            g
            for g in parsed.groups
            if g.mechanism == "SHA-256" and g.length("AdditionalInputLen") > 0
        )
        case = group.cases[0]
        argv = [
            "gen",
            "--entropy", case.entropy_input.hex(),
            "--nonce", case.nonce.hex(),
            "--personalization", case.personalization.hex(),
            "--out-len", str(len(case.returned_bits)),
            "--count", "2",
        ]
        for add in case.additional_inputs:
            argv += ["--additional", add.hex()]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out[1] == case.returned_bits.hex()

    def test_prediction_resistance_reseeds_from_stream(self, capsys):
        group = sha256_group("hmac_drbg_pr_true.rsp")
        case = group.cases[0]
        stream = case.entropy_input + b"".join(case.entropy_inputs_pr)
        argv = [
            "gen", "--pr",
            "--entropy", stream.hex(),
            "--nonce", case.nonce.hex(),
            "--personalization", case.personalization.hex(),
            "--out-len", str(len(case.returned_bits)),
            "--count", "2",
        ]
        for add in case.additional_inputs:
            argv += ["--additional", add.hex()]
        code, out, _ = run(capsys, argv)
        assert code == EXIT_OK
        assert out[1] == case.returned_bits.hex()

    def test_deterministic_for_fixed_flags(self, capsys):
        argv = ["gen", "--entropy", "ab" * 32, "--out-len", "16", "--count", "3"]
        first = run(capsys, argv)
        second = run(capsys, argv)
        assert first == second
        assert len(set(first[1])) == 3  # successive calls differ

    def test_out_len_zero_prints_empty_line(self, capsys):
        code, out, _ = run(capsys, ["gen", "--entropy", "00" * 32, "--out-len", "0"])
        assert code == EXIT_OK and out == [""]

    def test_reseed_interval_exhaustion(self, capsys):
        code, out, err = run(capsys, [
            "gen", "--entropy", "00" * 32, "--out-len", "8",
            "--count", "2", "--reseed-interval", "1",
        ])
        assert code == EXIT_RESEED_REQUIRED
        assert len(out) == 1  # the first call still printed
        assert err.startswith("error:")

    def test_entropy_too_short(self, capsys):
        code, _, err = run(capsys, ["gen", "--entropy", "0011", "--out-len", "8"])
        assert code == EXIT_USAGE and "error:" in err

    def test_pr_stream_exhaustion(self, capsys):
        code, _, err = run(capsys, [
            "gen", "--pr", "--entropy", "00" * 32, "--out-len", "8",
        ])
        assert code == EXIT_USAGE and "error:" in err

    def test_bad_hex_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--entropy", "zz", "--out-len", "8"])
        assert exc.value.code == 2
        assert "invalid hex" in capsys.readouterr().err

    def test_entropy_and_system_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--entropy", "00" * 32, "--system", "--out-len", "8"])
        assert exc.value.code == 2

    def test_system_entropy(self, capsys):
        code, out, _ = run(capsys, ["gen", "--system", "--out-len", "12"])
        assert code == EXIT_OK
        assert len(out) == 1 and len(bytes.fromhex(out[0])) == 12


class TestCavp:
    def test_bundled_file_all_pass(self, capsys):
        code, out, _ = run(capsys, [
            "cavp", vector_path("hmac_drbg_no_reseed.rsp"), "--mechanism", "SHA-256",
        ])
        assert code == EXIT_OK
        assert out[-1] == "total: 60 passed, 0 failed, 210 skipped"

    def test_failing_file(self, tmp_path, capsys):
        # well-formed single-case file whose ReturnedBits are wrong
        entropy, nonce = bytes(range(32)), bytes(range(16))
        text = (
            "[SHA-256]\n"
            "[PredictionResistance = False]\n"
            "[EntropyInputLen = 256]\n"
            "[NonceLen = 128]\n"
            "[PersonalizationStringLen = 0]\n"
            "[AdditionalInputLen = 0]\n"
            "[ReturnedBitsLen = 256]\n\n"
            "COUNT = 0\n"
            f"EntropyInput = {entropy.hex()}\n"
            f"Nonce = {nonce.hex()}\n"
            "PersonalizationString = \n"
            "AdditionalInput = \n"
            "AdditionalInput = \n"
            f"ReturnedBits = {'00' * 32}\n"
        )
        path = tmp_path / "bad.rsp"
        path.write_text(text)
        code, out, _ = run(capsys, ["cavp", str(path), "--report", "-"])
        assert code == EXIT_CHECK_FAILED
        assert any("result=fail" in line for line in out)
        assert out[-1] == "total: 0 passed, 1 failed, 0 skipped"

    def test_report_written_to_file(self, tmp_path, capsys):
        report = tmp_path / "report.txt"
        code, _, _ = run(capsys, [
            "cavp", vector_path("hmac_drbg_no_reseed.rsp"),
            "--mechanism", "SHA-256", "--report", str(report),
        ])
        assert code == EXIT_OK
        lines = report.read_text().splitlines()
        assert sum(1 for l in lines if "result=pass" in l) == 60

    def test_unparsable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.rsp"
        path.write_text("COUNT = 0\nEntropyInput = 00\n")
        code, _, err = run(capsys, ["cavp", str(path)])
        assert code == EXIT_USAGE
        assert str(path) in err and "line" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["cavp", "/no/such/file.rsp"])
        assert code == EXIT_USAGE and "error:" in err


class TestGame:
    def test_single_lemma_record(self, capsys):
        code, out, _ = run(capsys, ["game", "--lemma", "G_real_is_first_hybrid"])
        assert code == EXIT_OK
        assert out[0].startswith(
            "lemma=G_real_is_first_hybrid i=- mode=exact result=pass lhs="
        )
        assert " rel=== rhs=" in out[0]
        assert out[-1].startswith("checks=1 failures=0 mode=exact")

    def test_all_lemmas_default_params(self, capsys):
        code, out, _ = run(capsys, ["game"])
        assert code == EXIT_OK
        # 17 lemma instances at two calls, plus the main theorem
        assert out[-1].startswith("checks=18 failures=0 mode=exact eta=2")
        assert sum(1 for l in out if "result=pass" in l) == 18

    def test_indexed_lemma_lists_each_index(self, capsys):
        code, out, _ = run(capsys, [
            "game", "--lemma", "Gi_prog_equiv_prf_oracle", "--num-calls", "3",
        ])
        assert code == EXIT_OK
        assert [l.split()[1] for l in out[:-1]] == ["i=0", "i=1", "i=2", "i=3"]

    def test_wide_blocks_switch_to_monte_carlo(self, capsys):
        code, out, _ = run(capsys, [
            "game", "--lemma", "hybrid_argument", "--eta", "16",
            "--trials", "500", "--seed", "1",
        ])
        assert code == EXIT_OK
        assert "mode=monte-carlo" in out[-1]

    def test_unknown_lemma_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["game", "--lemma", "no_such_lemma"])
        assert exc.value.code == 2

    def test_bad_params(self, capsys):
        for argv in (
            ["game", "--eta", "0"],
            ["game", "--eta", "300"],
            ["game", "--eta", "16", "--trials", "50"],
        ):
            code, out, err = run(capsys, argv)
            assert code == EXIT_USAGE and out == [], argv
            assert err.startswith("error:") and err.count("\n") == 1, argv


class TestBound:
    def test_reference_output(self, capsys):
        code, out, _ = run(capsys, ["bound"])
        assert code == EXIT_OK
        record = dict(l.split("=", 1) for l in out if "=" in l and not l.startswith("note"))
        assert record["t"] == "78"
        assert record["num_calls"] == str(1 << 48)
        assert record["prf_advantage"] == "2^-100 + 2^-177"
        assert record["collision_term"] == "121/2^128"
        assert record["vacuous"] == "false"
        assert abs(float(record["total_log2"]) + 52.0) <= 0.1

    def test_narrow_eta_note(self, capsys):
        _, out, _ = run(capsys, ["bound"])
        note = next(l for l in out if l.startswith("note:"))
        assert "eta=128" in note and "121/2^256" in note

    def test_full_width_no_note(self, capsys):
        code, out, _ = run(capsys, ["bound", "--eta", "256"])
        assert code == EXIT_OK
        assert not any(l.startswith("note:") for l in out)

    def test_vacuous_adversary_budget(self, capsys):
        code, out, _ = run(capsys, ["bound", "--t", "130", "--num-calls", "1"])
        assert code == EXIT_OK
        record = dict(l.split("=", 1) for l in out if "=" in l and not l.startswith("note"))
        assert record["vacuous"] == "true"
        assert any("vacuous" in l for l in out if l.startswith("note:"))

    def test_invalid_t(self, capsys):
        code, _, err = run(capsys, ["bound", "--t", "256"])
        assert code == EXIT_USAGE and "error:" in err


class TestSelftest:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, ["selftest"])
        assert code == EXIT_OK
        checks = [l for l in out if l.startswith("check=")]
        assert len(checks) == 5
        assert all(l.endswith("result=pass") for l in checks)
        assert out[-1].startswith("selftest=pass elapsed=")

    def test_fault_injection_hook(self, capsys, monkeypatch):
        monkeypatch.setenv(BREAK_HMAC_ENV, "1")
        code, out, _ = run(capsys, ["selftest"])
        assert code == EXIT_CHECK_FAILED
        assert "check=hmac_sha256_rfc_vectors result=fail" in out
        assert "check=sha256_known_answers result=pass" in out
        assert out[-1].startswith("selftest=fail")


def test_no_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_import_loads_no_scipy_or_numpy():
    probe = "import sys, drbglab.cli; print('\\n'.join(sys.modules))"
    paths = [str(Path(drbglab.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    top_level = {name.split(".")[0] for name in proc.stdout.split()}
    assert "drbglab" in top_level and not top_level & {"scipy", "numpy"}


# --------------------------------------------------------- the exit-code contract
#
# 0 ok, 1 a check failed, 2 usage, parse or input error, 3 reseed
# required: for every input, with exactly one ``error:`` line on 2 and 3
# and never a traceback, so a crash cannot pass for a failed check.

BUNDLED = ("hmac_drbg_no_reseed.rsp", "hmac_drbg_pr_false.rsp", "hmac_drbg_pr_true.rsp")
RSP_LINES = {
    name: resources.files("drbglab").joinpath(f"vectors/{name}").read_bytes().splitlines(True)
    for name in BUNDLED
}


def first_sha256(name: str, field: str) -> int:
    """Index of the first ``field`` line in a bundled file's SHA-256 groups."""
    lines = RSP_LINES[name]
    start = lines.index(b"[SHA-256]\n")
    return next(i for i in range(start, len(lines)) if lines[i].startswith(field.encode()))


def with_line(name: str, lineno: int, edit) -> bytes:
    """A bundled file whose line ``lineno`` becomes ``edit(line)``."""
    lines, at = RSP_LINES[name], lineno - 1
    return b"".join(lines[:at] + [edit(lines[at])] + lines[at + 1:])


def with_first(name: str, field: str, edit) -> bytes:
    """A bundled file whose first ``field`` line of its SHA-256 groups
    becomes ``edit(line)``."""
    return with_line(name, first_sha256(name, field) + 1, edit)


def without_first(name: str, field: str) -> bytes:
    """A bundled file minus the first ``field`` line of its SHA-256 groups."""
    return with_first(name, field, lambda line: b"")


def line_of(name: str, field: str) -> int:
    """The line number of the first ``field`` line of a bundled file's SHA-256 groups."""
    return first_sha256(name, field) + 1


def count_line(name: str, field: str) -> int:
    """The line number of the COUNT that opens the case ``without_first`` cuts."""
    lines = RSP_LINES[name]
    return max(i for i in range(first_sha256(name, field)) if lines[i].startswith(b"COUNT")) + 1


def written(path: Path, data: bytes) -> str:
    path.write_bytes(data)
    return str(path)


# name: (argv in a scratch directory, what the error line must name)
PROBES = {
    "binary-file": (lambda tmp: [
        "cavp", written(tmp / "random.rsp", random.Random(0).randbytes(200))], "not UTF-8"),
    "one-additional-input": (lambda tmp: [
        "cavp", written(tmp / "a.rsp", without_first(BUNDLED[0], "AdditionalInput ="))],
        "1 AdditionalInput"),
    "one-entropy-input-pr": (lambda tmp: [
        "cavp", written(tmp / "pr.rsp", without_first(BUNDLED[2], "EntropyInputPR ="))],
        "1 EntropyInputPR"),
    "no-entropy-input": (lambda tmp: [
        "cavp", written(tmp / "e.rsp", without_first(BUNDLED[0], "EntropyInput ="))],
        f"e.rsp: line {count_line(BUNDLED[0], 'EntropyInput =')}: case 0 has 0 EntropyInput"),
    "no-returned-bits": (lambda tmp: [
        "cavp", written(tmp / "r.rsp", without_first(BUNDLED[1], "ReturnedBits ="))],
        f"r.rsp: line {count_line(BUNDLED[1], 'ReturnedBits =')}: case 0 has 0 ReturnedBits"),
    "second-nonce": (lambda tmp: [
        "cavp", written(tmp / "n.rsp", with_first(BUNDLED[0], "Nonce =", lambda l: l + l))],
        f"n.rsp: line {count_line(BUNDLED[0], 'Nonce =')}: case 0 has 2 Nonce values; want 1"),
    "misspelled-nonce": (lambda tmp: [
        "cavp", written(tmp / "s.rsp", with_first(
            BUNDLED[0], "Nonce =", lambda l: l.replace(b"Nonce", b"Nonse")))],
        f"s.rsp: line {line_of(BUNDLED[0], 'Nonce =')}: unknown field 'Nonse'"),
    "unknown-field": (lambda tmp: [
        "cavp", written(tmp / "u.rsp", with_first(
            BUNDLED[0], "Nonce =", lambda l: l + b"Bogus = 00\n"))],
        f"u.rsp: line {line_of(BUNDLED[0], 'Nonce =') + 1}: unknown field 'Bogus'"),
    "entropy-input-pr-without-pr": (lambda tmp: [
        "cavp", written(tmp / "p.rsp", with_first(
            BUNDLED[0], "EntropyInput =",
            lambda l: l + l.replace(b"EntropyInput", b"EntropyInputPR")))],
        f"p.rsp: line {count_line(BUNDLED[0], 'EntropyInput =')}: "
        "case 0 has 1 EntropyInputPR values; want 0"),
    "prediction-resistance-typo": (lambda tmp: [
        "cavp", written(tmp / "t.rsp", with_first(
            BUNDLED[2], "[PredictionResistance", lambda l: l.replace(b"True", b"Ture")))],
        f"t.rsp: line {line_of(BUNDLED[2], '[PredictionResistance')}: "
        "PredictionResistance 'Ture' is not True or False"),
    "non-integer-length": (lambda tmp: [
        "cavp", written(tmp / "l.rsp", with_line(
            BUNDLED[0], 7, lambda l: l.replace(b"64]", b"6x4]")))],
        "l.rsp: line 7: non-integer length NonceLen = '6x4'"),
    "no-case-ran": (lambda tmp: [
        "cavp", vector_path(BUNDLED[0]), "--mechanism", "sha-256"],
        "mechanism sha-256; the file's mechanisms are SHA-1, SHA-224, SHA-256, SHA-384, SHA-512"),
    "negative-count": (lambda tmp: [
        "gen", "--entropy", "00" * 32, "--out-len", "8", "--count", "-1"], "--count must be >= 0"),
    "empty-entropy": (lambda tmp: [
        "gen", "--entropy", "", "--entropy-len", "0", "--out-len", "8"], "nonempty"),
    "system-zero-entropy-len": (lambda tmp: [
        "gen", "--system", "--entropy-len", "0", "--out-len", "8"], "nonempty"),
    "unwritable-report": (lambda tmp: [
        "cavp", vector_path(BUNDLED[0]), "--report", str(tmp / "no-such-dir" / "report")],
        "No such file"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_is_one_line_usage_error(probe, tmp_path, capsys):
    argv, names = PROBES[probe]
    code, _, err = run(capsys, argv(tmp_path))
    assert code == EXIT_USAGE
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert names in err


def contained_run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
    return code, err.getvalue()


def assert_contract(code: int, err: str) -> None:
    assert code in (EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE, EXIT_RESEED_REQUIRED)
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == (1 if code in (EXIT_USAGE, EXIT_RESEED_REQUIRED) else 0), err


def flag(name: str, values: st.SearchStrategy) -> st.SearchStrategy:
    """``[]`` or ``[name, str(value)]``: the flag left out or given."""
    return st.one_of(st.just([]), values.map(lambda v: [name, str(v)]))


def command(name: str, *parts: st.SearchStrategy) -> st.SearchStrategy:
    return st.tuples(*parts).map(lambda ps: [name, *itertools.chain.from_iterable(ps)])


HEX = st.binary(max_size=48).map(bytes.hex)

ARGV = st.one_of(
    command(
        "gen",
        st.one_of(st.just(["--system"]), HEX.map(lambda h: ["--entropy", h])),
        flag("--entropy-len", st.integers(-1, 64)),
        flag("--nonce", HEX),
        st.lists(st.binary(max_size=260).map(bytes.hex), max_size=3).map(
            lambda xs: [a for x in xs for a in ("--additional", x)]),
        flag("--out-len", st.integers(-1, 1100)),
        flag("--count", st.integers(-1, 3)),
        st.sampled_from([[], ["--pr"]]),
        flag("--reseed-interval", st.sampled_from([-1, 0, 1, 2, 1 << 48, (1 << 48) + 1])),
    ),
    command(
        "game",
        flag("--lemma", st.sampled_from(("all",) + ALL_CHECKS)),
        flag("--eta", st.sampled_from([-1, 0, 1, 2, 3, 16, 300])),
        flag("--num-calls", st.integers(-1, 2)),
        flag("--blocks-per-call", st.integers(-1, 2)),
        flag("--adversary", st.sampled_from(["collision", "first-bit", "constant-true"])),
        st.sampled_from([-1, 50, 100]).map(lambda t: ["--trials", str(t)]),
    ),
    command(
        "bound",
        flag("--t", st.integers(-1, 300)),
        flag("--num-calls", st.integers(-1, 1 << 64)),
        flag("--blocks-per-call", st.integers(-1, 1 << 20)),
        flag("--eta", st.integers(-1, 600)),
    ),
    st.lists(st.sampled_from(["gen", "cavp", "bound", "--eta", "--t", "--out-len",
                              "--entropy", "--count", "-1", "0", "2", "zz", ""]), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_exit_contract_for_fuzzed_argv(argv):
    assert_contract(*contained_run(argv))


@st.composite
def mutated_rsp(draw) -> bytes:
    """A bundled response file with one to three line edits, half of them
    inside the runnable SHA-256 groups."""
    lines = list(RSP_LINES[draw(st.sampled_from(BUNDLED))])
    sha256 = lines.index(b"[SHA-256]\n")
    for _ in range(draw(st.integers(1, 3))):
        lo = draw(st.sampled_from([0, sha256]))
        i = draw(st.integers(lo, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "copy", "cut", "bytes"]))
        if edit == "drop":
            del lines[i]
        elif edit == "copy":
            lines[i] = lines[draw(st.integers(lo, len(lines) - 1))]
        elif edit == "cut":
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
        else:
            lines[i] = draw(st.binary(max_size=40)) + b"\n"
    return b"".join(lines)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_rsp(), st.sampled_from([[], ["--mechanism", "SHA-256"], ["--report", "-"]]))
def test_exit_contract_for_mutated_response_files(text, extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = written(Path(tmp) / "mutated.rsp", text)
        assert_contract(*contained_run(["cavp", path, *extra]))
