"""Response-file grammar, validation errors, and the bundled vector runs."""

import hashlib
import hmac as stdlib_hmac
from importlib import resources

import pytest

from drbglab import cavp

VECTOR_FILES = {
    "hmac_drbg_no_reseed.rsp": (18, 270),
    "hmac_drbg_pr_false.rsp": (20, 300),
    "hmac_drbg_pr_true.rsp": (20, 300),
}


def vector_text(name: str) -> str:
    return resources.files("drbglab").joinpath(f"vectors/{name}").read_text("ascii")


# --- an independent reference implementation (stdlib hmac only) ----------


def _ref_no_reseed(entropy, nonce, pers, adds, out_octets):
    H = lambda k, m: stdlib_hmac.new(k, m, hashlib.sha256).digest()
    K, V = b"\x00" * 32, b"\x01" * 32

    def upd(data):
        nonlocal K, V
        K = H(K, V + b"\x00" + data)
        V = H(K, V)
        if data:
            K = H(K, V + b"\x01" + data)
            V = H(K, V)

    upd(entropy + nonce + pers)
    out = b""
    for add in adds:
        if add:
            upd(add)
        temp = b""
        while len(temp) < out_octets:
            V = H(K, V)
            temp += V
        out = temp[:out_octets]
        upd(add)
    return out


def _synthetic_file(flip_octet: int | None = None) -> str:
    entropy = bytes(range(32))
    nonce = bytes(range(100, 116))
    adds = [b"", b""]
    bits = _ref_no_reseed(entropy, nonce, b"", adds, 128)
    if flip_octet is not None:
        bits = bytearray(bits)
        bits[flip_octet] ^= 0x01
        bits = bytes(bits)
    return (
        "# synthetic single-case file\n"
        "[SHA-256]\n"
        "[PredictionResistance = False]\n"
        "[EntropyInputLen = 256]\n"
        "[NonceLen = 128]\n"
        "[PersonalizationStringLen = 0]\n"
        "[AdditionalInputLen = 0]\n"
        "[ReturnedBitsLen = 1024]\n"
        "\n"
        "COUNT = 0\n"
        f"EntropyInput = {entropy.hex()}\n"
        f"Nonce = {nonce.hex()}\n"
        "PersonalizationString = \n"
        "AdditionalInput = \n"
        "AdditionalInput = \n"
        f"ReturnedBits = {bits.hex()}\n"
    )


class TestParse:
    def test_synthetic_structure(self):
        f = cavp.parse(_synthetic_file())
        assert len(f.groups) == 1
        g = f.groups[0]
        assert g.mechanism == "SHA-256"
        assert g.prediction_resistance is False
        assert g.length("EntropyInputLen") == 256
        assert len(g.cases) == 1
        case = g.cases[0]
        assert case.count == 0
        assert case.entropy_input == bytes(range(32))
        assert case.nonce == bytes(range(100, 116))
        assert case.personalization == b""
        assert case.additional_inputs == (b"", b"")
        assert len(case.returned_bits) == 128

    @pytest.mark.parametrize("name", sorted(VECTOR_FILES))
    def test_bundled_files(self, name):
        f = cavp.parse(vector_text(name))
        want_groups, want_cases = VECTOR_FILES[name]
        assert len(f.groups) == want_groups
        assert f.case_total == want_cases
        for g in f.groups:
            assert len(g.cases) == 15
            assert [c.count for c in g.cases] == list(range(15))

    @pytest.mark.parametrize("name", sorted(VECTOR_FILES))
    def test_round_trip(self, name):
        f = cavp.parse(vector_text(name))
        assert cavp.parse(cavp.serialize(f)) == f

    def test_comments_and_blanks_ignored(self):
        text = "# hello\n\n" + _synthetic_file() + "\n# trailing\n"
        assert cavp.parse(text).case_total == 1


class TestParseErrors:
    def expect(self, mangle, message):
        text = _synthetic_file()
        with pytest.raises(cavp.CavpParseError) as err:
            cavp.parse(mangle(text))
        assert message in str(err.value)
        assert "line " in str(err.value)

    def test_duplicate_count(self):
        self.expect(
            lambda t: t + "COUNT = 0\nEntropyInput = " + "00" * 32 + "\n",
            "duplicate COUNT 0",
        )

    def test_non_consecutive_count(self):
        self.expect(
            lambda t: t + "COUNT = 5\n",
            "non-consecutive COUNT 5 (expected 1)",
        )

    def test_field_outside_case(self):
        self.expect(
            lambda t: t.replace("COUNT = 0\n", ""),
            "outside a COUNT block",
        )

    def test_declared_length_enforced(self):
        self.expect(
            lambda t: t.replace(f"Nonce = {bytes(range(100, 116)).hex()}", "Nonce = 00"),
            "Nonce is 8 bits but NonceLen = 128",
        )

    def test_bad_hex(self):
        self.expect(
            lambda t: t.replace("EntropyInput = ", "EntropyInput = zz", 1),
            "line 11",
        )

    def test_missing_length_header(self):
        # an error about the header run names the run's first line
        self.expect(
            lambda t: t.replace("[NonceLen = 128]\n", ""),
            "line 2: group header missing lengths: NonceLen",
        )

    def test_header_without_mechanism(self):
        text = _synthetic_file().replace("[SHA-256]\n", "")
        with pytest.raises(cavp.CavpParseError) as err:
            cavp.parse(text)
        assert str(err.value).startswith("line 2: group header has no mechanism tag")

    def test_non_integer_length_at_its_line(self):
        self.expect(
            lambda t: t.replace("[NonceLen = 128]", "[NonceLen = 1x8]"),
            "line 5: non-integer length NonceLen = '1x8'",
        )

    def test_malformed_line(self):
        self.expect(lambda t: t + "garbage\n", "malformed line")

    def test_unknown_field_at_its_line(self):
        self.expect(lambda t: t.replace("Nonce =", "Nonse ="), "line 12: unknown field 'Nonse'")

    def test_repeated_field_at_count_line(self):
        nonce = f"Nonce = {bytes(range(100, 116)).hex()}\n"
        self.expect(
            lambda t: t.replace(nonce, nonce * 2), "line 10: case 0 has 2 Nonce values; want 1"
        )

    def test_missing_field_at_count_line(self):
        self.expect(
            lambda t: t.replace("PersonalizationString = \n", ""),
            "line 10: case 0 has 0 PersonalizationString values; want 1",
        )

    def test_entropy_input_pr_only_with_prediction_resistance(self):
        self.expect(
            lambda t: t + "EntropyInputPR = " + "00" * 32 + "\n",
            "line 10: case 0 has 1 EntropyInputPR values; want 0",
        )

    def test_additional_input_reseed_needs_entropy_input_reseed(self):
        self.expect(
            lambda t: t + "AdditionalInputReseed = \n",
            "line 10: case 0 has 1 AdditionalInputReseed values; want 0",
        )

    def test_prediction_resistance_is_true_or_false(self):
        self.expect(
            lambda t: t.replace("= False]", "= Ture]"),
            "line 3: PredictionResistance 'Ture' is not True or False",
        )
        text = _synthetic_file().replace("= False]", "= FALSE]")
        assert cavp.parse(text).groups[0].prediction_resistance is False

    def test_line_numbers_are_exact(self):
        # the flipped nonce sits on line 12 of the synthetic file
        with pytest.raises(cavp.CavpParseError) as err:
            cavp.parse(_synthetic_file().replace(
                f"Nonce = {bytes(range(100, 116)).hex()}", "Nonce = 0011"))
        assert str(err.value).startswith("line 12:")


class TestRun:
    def test_synthetic_passes(self):
        summary = cavp.run_file(cavp.parse(_synthetic_file()))
        assert summary.passed == 1
        assert summary.failed == 0
        result = summary.groups[0].results[0]
        assert result.passed and result.divergence is None

    @pytest.mark.parametrize("octet", [0, 1, 67, 127])
    def test_flipped_octet_reports_divergence(self, octet):
        summary = cavp.run_file(cavp.parse(_synthetic_file(flip_octet=octet)))
        assert summary.failed == 1
        result = summary.groups[0].results[0]
        assert not result.passed
        assert result.divergence == octet

    @pytest.mark.parametrize("name", sorted(VECTOR_FILES))
    def test_bundled_sha256_all_pass(self, name):
        summary = cavp.run_file(cavp.parse(vector_text(name)), mechanism="SHA-256")
        assert summary.passed == 60
        assert summary.failed == 0
        want_groups, want_cases = VECTOR_FILES[name]
        assert summary.skipped == want_cases - 60

    def test_unsupported_mechanisms_skipped_without_filter(self):
        summary = cavp.run_file(cavp.parse(vector_text("hmac_drbg_no_reseed.rsp")))
        assert summary.passed == 60  # SHA-256 runs
        assert summary.failed == 0
        assert summary.skipped == 210  # SHA-1/224/384/512 skipped

    def test_filter_to_absent_mechanism_skips_all(self):
        summary = cavp.run_file(cavp.parse(_synthetic_file()), mechanism="SHA-512")
        assert summary.passed == 0 and summary.failed == 0 and summary.skipped == 1


class TestReports:
    def test_report_lines_one_per_case(self):
        summary = cavp.run_file(cavp.parse(_synthetic_file()))
        lines = cavp.report_lines(summary)
        assert len(lines) == 1
        assert lines[0].startswith("mechanism=SHA-256 pr=false ")
        assert "count=0 result=pass divergence=-" in lines[0]

    def test_report_marks_divergence(self):
        summary = cavp.run_file(cavp.parse(_synthetic_file(flip_octet=67)))
        (line,) = cavp.report_lines(summary)
        assert "result=fail divergence=67" in line

    def test_summary_lines_have_totals(self):
        summary = cavp.run_file(cavp.parse(vector_text("hmac_drbg_no_reseed.rsp")))
        lines = cavp.summary_lines(summary)
        assert lines[-1] == "total: 60 passed, 0 failed, 210 skipped"


def test_pr_true_semantics_against_reference():
    """One prediction-resistance case replayed on an independent reference."""
    f = cavp.parse(vector_text("hmac_drbg_pr_true.rsp"))
    group = next(g for g in f.groups if g.mechanism == "SHA-256")
    case = group.cases[0]
    H = lambda k, m: stdlib_hmac.new(k, m, hashlib.sha256).digest()
    K, V = b"\x00" * 32, b"\x01" * 32

    def upd(data):
        nonlocal K, V
        K = H(K, V + b"\x00" + data)
        V = H(K, V)
        if data:
            K = H(K, V + b"\x01" + data)
            V = H(K, V)

    upd(case.entropy_input + case.nonce + case.personalization)
    out = b""
    for add, pr_entropy in zip(case.additional_inputs, case.entropy_inputs_pr):
        upd(pr_entropy + add)  # reseed with the per-call entropy
        temp = b""
        while len(temp) < len(case.returned_bits):
            V = H(K, V)
            temp += V
        out = temp[: len(case.returned_bits)]
        upd(b"")
    assert out == case.returned_bits
