"""Parser and conformance harness for NIST CAVP HMAC_DRBG response files.

Grammar handled (the ``.rsp`` layout of the CAVP DRBG distribution):
``# comment`` lines, ``[Tag]`` / ``[Key = Value]`` bracket headers that
open a parameter group, ``Key = hexvalue`` fields, and blank-line
separated ``COUNT`` blocks. Every case runs through the DRBG with the
standard response-file protocol: instantiate, optionally reseed, then
two generate calls of ReturnedBitsLen/8 octets whose first output is
discarded and whose second must equal ReturnedBits octet-for-octet.
Prediction-resistance groups feed each call's EntropyInputPR through
the auto-reseeding path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import drbg
from .entropy import DeterministicStream
from .prf import from_hex, to_hex

SUPPORTED_MECHANISM = "SHA-256"

_LEN_KEYS = {
    "EntropyInputLen",
    "NonceLen",
    "PersonalizationStringLen",
    "AdditionalInputLen",
    "ReturnedBitsLen",
}

# Which declared bit length constrains each case field.
_FIELD_LEN_KEY = {
    "EntropyInput": "EntropyInputLen",
    "EntropyInputReseed": "EntropyInputLen",
    "EntropyInputPR": "EntropyInputLen",
    "Nonce": "NonceLen",
    "PersonalizationString": "PersonalizationStringLen",
    "AdditionalInput": "AdditionalInputLen",
    "AdditionalInputReseed": "AdditionalInputLen",
    "ReturnedBits": "ReturnedBitsLen",
}


class CavpParseError(Exception):
    """Malformed response file; message carries the 1-based line number,
    after the file name when the file was read by ``parse_path``."""

    def __init__(self, lineno: int, message: str, path: str | None = None) -> None:
        super().__init__(f"{path + ': ' if path else ''}line {lineno}: {message}")
        self.lineno, self.message = lineno, message


class UnsupportedMechanism(Exception):
    """run_case was handed a group for a mechanism this harness cannot run."""


@dataclass(frozen=True)
class CavpCase:
    count: int
    fields: tuple[tuple[str, bytes], ...]

    def _all(self, name: str) -> list[bytes]:
        return [v for (k, v) in self.fields if k == name]

    def _one(self, name: str, default: bytes | None = None) -> bytes:
        values = self._all(name)
        if not values:
            if default is None:
                raise KeyError(f"case {self.count} has no {name} field")
            return default
        return values[0]

    @property
    def entropy_input(self) -> bytes:
        return self._one("EntropyInput")

    @property
    def nonce(self) -> bytes:
        return self._one("Nonce", b"")

    @property
    def personalization(self) -> bytes:
        return self._one("PersonalizationString", b"")

    @property
    def additional_inputs(self) -> list[bytes]:
        return self._all("AdditionalInput")

    @property
    def entropy_input_reseed(self) -> bytes | None:
        values = self._all("EntropyInputReseed")
        return values[0] if values else None

    @property
    def additional_input_reseed(self) -> bytes:
        return self._one("AdditionalInputReseed", b"")

    @property
    def entropy_inputs_pr(self) -> list[bytes]:
        return self._all("EntropyInputPR")

    @property
    def returned_bits(self) -> bytes:
        return self._one("ReturnedBits")


@dataclass
class CavpGroup:
    mechanism: str
    headers: tuple[tuple[str, str | None], ...]
    prediction_resistance: bool
    lengths: dict[str, int]
    cases: list[CavpCase] = field(default_factory=list)

    def length(self, key: str) -> int:
        return self.lengths[key]


@dataclass
class CavpFile:
    groups: list[CavpGroup]

    @property
    def case_total(self) -> int:
        return sum(len(g.cases) for g in self.groups)


def _parse_header(content: str, lineno: int) -> tuple[str, str | None]:
    if "=" in content:
        key, _, value = content.partition("=")
        return key.strip(), value.strip()
    tag = content.strip()
    if not tag:
        raise CavpParseError(lineno, "empty bracket header")
    return tag, None


# How many of each field a case needs for run_case to run it.
_CASE_SHAPE = (("EntropyInput", 1), ("ReturnedBits", 1), ("AdditionalInput", 2))
_PR_CASE_SHAPE = _CASE_SHAPE + (("EntropyInputPR", 2),)


def _shape_problem(group: CavpGroup, names: list[str]) -> str | None:
    """What is wrong with the field counts of a case, or None."""
    for name, want in _PR_CASE_SHAPE if group.prediction_resistance else _CASE_SHAPE:
        got = names.count(name)
        if got != want:
            return f"{got} {name} values; want {want}"
    return None


def parse(text: str) -> CavpFile:
    """Parse response-file text into groups of cases, validating lengths
    and that each case has the fields ``run_case`` needs."""
    groups: list[CavpGroup] = []
    header_run: list[tuple[str, str | None]] = []
    mechanism: str | None = None
    current_group: CavpGroup | None = None
    case_fields: list[tuple[str, bytes]] | None = None
    case_count = case_line = -1

    def close_case() -> None:
        nonlocal case_fields
        if case_fields is not None:
            assert current_group is not None
            problem = _shape_problem(current_group, [k for (k, _) in case_fields])
            if problem:
                raise CavpParseError(case_line, f"case {case_count} has {problem}")
            current_group.cases.append(CavpCase(case_count, tuple(case_fields)))
            case_fields = None

    def open_group(lineno: int) -> None:
        nonlocal current_group, header_run, mechanism
        tags = [k for (k, v) in header_run if v is None]
        if tags:
            mechanism = tags[0]
        if mechanism is None:
            raise CavpParseError(lineno, "group header has no mechanism tag")
        lengths: dict[str, int] = {}
        pr = False
        for key, value in header_run:
            if value is None:
                continue
            if key in _LEN_KEYS:
                try:
                    lengths[key] = int(value)
                except ValueError:
                    raise CavpParseError(lineno, f"non-integer length {key} = {value!r}")
            elif key == "PredictionResistance":
                pr = value.lower() == "true"
        missing = _LEN_KEYS - lengths.keys()
        if missing:
            raise CavpParseError(
                lineno, f"group header missing lengths: {', '.join(sorted(missing))}"
            )
        current_group = CavpGroup(mechanism, tuple(header_run), pr, lengths)
        groups.append(current_group)
        header_run = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise CavpParseError(lineno, f"unterminated bracket header {line!r}")
            close_case()
            header_run.append(_parse_header(line[1:-1], lineno))
            continue
        if "=" not in line:
            raise CavpParseError(lineno, f"malformed line {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if header_run:
            open_group(lineno)
        if key == "COUNT":
            if current_group is None:
                raise CavpParseError(lineno, "COUNT before any group header")
            close_case()
            try:
                count = int(value)
            except ValueError:
                raise CavpParseError(lineno, f"non-integer COUNT {value!r}")
            expected = len(current_group.cases)
            if any(c.count == count for c in current_group.cases):
                raise CavpParseError(lineno, f"duplicate COUNT {count}")
            if count != expected:
                raise CavpParseError(
                    lineno, f"non-consecutive COUNT {count} (expected {expected})"
                )
            case_count, case_line = count, lineno
            case_fields = []
            continue
        if case_fields is None:
            raise CavpParseError(lineno, f"field {key!r} outside a COUNT block")
        try:
            octets = from_hex(value) if value else b""
        except ValueError as exc:
            raise CavpParseError(lineno, str(exc))
        len_key = _FIELD_LEN_KEY.get(key)
        if len_key is not None:
            declared = current_group.lengths[len_key]
            if len(octets) * 8 != declared:
                raise CavpParseError(
                    lineno,
                    f"{key} is {len(octets) * 8} bits but {len_key} = {declared}",
                )
        case_fields.append((key, octets))
    close_case()
    if header_run:
        # trailing headers with no cases still declare a (possibly empty) group
        open_group(len(text.splitlines()) or 1)
    return CavpFile(groups)


def parse_path(path: str) -> CavpFile:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        lineno, message = data.count(b"\n", 0, exc.start) + 1, f"not UTF-8 text: {exc.reason}"
    except CavpParseError as exc:
        lineno, message = exc.lineno, exc.message
    raise CavpParseError(lineno, message, path)


def serialize(file: CavpFile) -> str:
    """Canonical text form; whitespace normalized, every value bit-exact."""
    lines: list[str] = []
    for group in file.groups:
        for key, value in group.headers:
            lines.append(f"[{key}]" if value is None else f"[{key} = {value}]")
        lines.append("")
        for case in group.cases:
            lines.append(f"COUNT = {case.count}")
            for name, octets in case.fields:
                lines.append(f"{name} = {to_hex(octets)}")
            lines.append("")
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass(frozen=True)
class CaseResult:
    count: int
    passed: bool
    expected: bytes
    actual: bytes

    @property
    def divergence(self) -> int | None:
        """Index of the first differing octet, None when outputs match."""
        if self.passed:
            return None
        for i, (a, b) in enumerate(zip(self.actual, self.expected)):
            if a != b:
                return i
        return min(len(self.actual), len(self.expected))


def run_case(group: CavpGroup, case: CavpCase) -> CaseResult:
    if group.mechanism != SUPPORTED_MECHANISM:
        raise UnsupportedMechanism(group.mechanism)
    out_len = group.length("ReturnedBitsLen") // 8
    state = drbg.instantiate(
        case.entropy_input,
        case.nonce,
        case.personalization,
        prediction_resistance=group.prediction_resistance,
        entropy_len=group.length("EntropyInputLen") // 8,
    )
    if case.entropy_input_reseed is not None:
        state = drbg.reseed(state, case.entropy_input_reseed, case.additional_input_reseed)
    adds, pr_entropy = case.additional_inputs, case.entropy_inputs_pr
    out = b""
    for call in range(2):
        req = drbg.GenerateRequest(out_len, adds[call])
        if group.prediction_resistance:
            stream = DeterministicStream(pr_entropy[call])
            out, _, state = drbg.generate_with_entropy(stream, state, req)
        else:
            out, state = drbg.generate(state, req)
    return CaseResult(case.count, out == case.returned_bits, case.returned_bits, out)


@dataclass
class GroupResult:
    group: CavpGroup
    skipped: bool
    skip_reason: str | None
    results: list[CaseResult]

    @property
    def passed(self) -> int:
        return sum(r.passed for r in self.results)

    @property
    def failed(self) -> int:
        return sum(not r.passed for r in self.results)


@dataclass
class Summary:
    groups: list[GroupResult]

    @property
    def passed(self) -> int:
        return sum(g.passed for g in self.groups)

    @property
    def failed(self) -> int:
        return sum(g.failed for g in self.groups)

    @property
    def skipped(self) -> int:
        return sum(len(g.group.cases) for g in self.groups if g.skipped)


def run_file(file: CavpFile, mechanism: str | None = None) -> Summary:
    """Run every case; groups outside the supported mechanism are skipped.

    mechanism, when given, additionally narrows which groups run (others
    are skipped as filtered).
    """
    out: list[GroupResult] = []
    for group in file.groups:
        if mechanism is not None and group.mechanism != mechanism:
            out.append(GroupResult(group, True, f"filtered (mechanism {group.mechanism})", []))
            continue
        if group.mechanism != SUPPORTED_MECHANISM:
            out.append(
                GroupResult(group, True, f"unsupported mechanism {group.mechanism}", [])
            )
            continue
        results = [run_case(group, case) for case in group.cases]
        out.append(GroupResult(group, False, None, results))
    return Summary(out)


def _group_label(group: CavpGroup) -> str:
    return (
        f"mechanism={group.mechanism}"
        f" pr={'true' if group.prediction_resistance else 'false'}"
        f" entropy={group.length('EntropyInputLen')}"
        f" nonce={group.length('NonceLen')}"
        f" pers={group.length('PersonalizationStringLen')}"
        f" add={group.length('AdditionalInputLen')}"
        f" bits={group.length('ReturnedBitsLen')}"
    )


def report_lines(summary: Summary) -> list[str]:
    """Machine-readable report: one key=value record per case."""
    lines = []
    for gr in summary.groups:
        label = _group_label(gr.group)
        if gr.skipped:
            for case in gr.group.cases:
                lines.append(f"{label} count={case.count} result=skip")
            continue
        for r in gr.results:
            divergence = "-" if r.divergence is None else str(r.divergence)
            lines.append(
                f"{label} count={r.count} "
                f"result={'pass' if r.passed else 'fail'} divergence={divergence}"
            )
    return lines


def summary_lines(summary: Summary) -> list[str]:
    """Human-oriented per-group summary plus a totals line."""
    lines = []
    for gr in summary.groups:
        label = _group_label(gr.group)
        if gr.skipped:
            lines.append(f"{label}: skipped ({gr.skip_reason})")
        else:
            lines.append(f"{label}: {gr.passed} passed, {gr.failed} failed")
    lines.append(
        f"total: {summary.passed} passed, {summary.failed} failed, "
        f"{summary.skipped} skipped"
    )
    return lines
