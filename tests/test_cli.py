"""End-to-end runs of every subcommand through cli.main."""

from importlib import resources

import pytest

from drbglab import cavp
from drbglab.cli import (
    BREAK_HMAC_ENV,
    EXIT_CHECK_FAILED,
    EXIT_OK,
    EXIT_RESEED_REQUIRED,
    EXIT_USAGE,
    main,
)


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
