"""Parser and conformance harness for NIST CAVP HMAC_DRBG response files.

Grammar handled (the ``.rsp`` layout of the CAVP DRBG distribution):
``# comment`` lines, ``[Tag]`` / ``[Key = Value]`` bracket headers that
open a parameter group, ``Key = hexvalue`` fields, and blank-line
separated ``COUNT`` blocks. Each case field has the bit length its group
declares and the count ``_FIELDS`` gives it; an unknown, repeated,
missing or misplaced field is a parse error, and so is a
PredictionResistance header other than True or False. Every case runs
through the DRBG with the standard response-file protocol: instantiate,
optionally reseed, then two generate calls of ReturnedBitsLen/8 octets
whose first output is discarded and whose second must equal
ReturnedBits octet-for-octet. In prediction-resistance groups each call
reseeds from the case's next EntropyInputPR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import drbg
from .entropy import DeterministicStream
from .prf import from_hex, to_hex

SUPPORTED_MECHANISM = "SHA-256"

# Every case field in response-file order, which CavpCase's attributes follow:
# its header length key and its values per case. EntropyInputPR is for
# prediction-resistance groups only, the reseed pair for reseeding cases.
_FIELDS = {
    "EntropyInput": ("EntropyInputLen", 1),
    "Nonce": ("NonceLen", 1),
    "PersonalizationString": ("PersonalizationStringLen", 1),
    "EntropyInputReseed": ("EntropyInputLen", 1),
    "AdditionalInputReseed": ("AdditionalInputLen", 1),
    "AdditionalInput": ("AdditionalInputLen", 2),
    "EntropyInputPR": ("EntropyInputLen", 2),
    "ReturnedBits": ("ReturnedBitsLen", 1),
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
    """One COUNT block, its fields in ``_FIELDS`` order. A case without a
    reseed has None for both reseed fields, and entropy_inputs_pr is empty
    outside prediction-resistance groups."""

    count: int
    entropy_input: bytes
    nonce: bytes
    personalization: bytes
    entropy_input_reseed: bytes | None
    additional_input_reseed: bytes | None
    additional_inputs: tuple[bytes, ...]
    entropy_inputs_pr: tuple[bytes, ...]
    returned_bits: bytes


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
        key, value = key.strip(), value.strip()
        if key == "PredictionResistance" and value.lower() not in ("true", "false"):
            raise CavpParseError(lineno, f"PredictionResistance {value!r} is not True or False")
        return key, value
    tag = content.strip()
    if not tag:
        raise CavpParseError(lineno, "empty bracket header")
    return tag, None


def parse(text: str) -> CavpFile:
    """Parse response-file text into groups of cases, validating each
    field's name, count and declared length."""
    groups: list[CavpGroup] = []
    header_run: list[tuple[int, tuple[str, str | None]]] = []  # (line, (key, value))
    mechanism: str | None = None
    current_group: CavpGroup | None = None
    case_values: dict[str, list[bytes]] | None = None
    case_count = case_line = -1
    field_bits: dict[str, int] = {}  # each field's declared bit length in the open group

    def close_case() -> None:
        """Build the open case, checking how many values each field has."""
        nonlocal case_values
        if case_values is None:
            return
        assert current_group is not None
        reseeds = 1 if "EntropyInputReseed" in case_values else 0
        wants = {"EntropyInputReseed": reseeds, "AdditionalInputReseed": reseeds}
        wants["EntropyInputPR"] = 2 if current_group.prediction_resistance else 0
        record = []
        for name, (_, per_case) in _FIELDS.items():
            got = case_values.get(name, ())
            want = wants.get(name, per_case)
            if len(got) != want:
                problem = f"case {case_count} has {len(got)} {name} values; want {want}"
                raise CavpParseError(case_line, problem)
            record.append(tuple(got) if per_case == 2 else got[0] if got else None)
        current_group.cases.append(CavpCase(case_count, *record))
        case_values = None

    def open_group() -> None:
        """Open a group from the header run; an error about the run as a
        whole names its first line, one about a header names that header's."""
        nonlocal current_group, header_run, mechanism, field_bits
        first_line = header_run[0][0]
        tags = [k for (_, (k, v)) in header_run if v is None]
        if tags:
            mechanism = tags[0]
        if mechanism is None:
            raise CavpParseError(first_line, "group header has no mechanism tag")
        len_keys = {len_key for len_key, _ in _FIELDS.values()}
        lengths: dict[str, int] = {}
        pr = False
        for lineno, (key, value) in header_run:
            if value is None:
                continue
            if key in len_keys:
                try:
                    lengths[key] = int(value)
                except ValueError:
                    raise CavpParseError(lineno, f"non-integer length {key} = {value!r}")
            elif key == "PredictionResistance":
                pr = value.lower() == "true"
        missing = len_keys - lengths.keys()
        if missing:
            raise CavpParseError(
                first_line, f"group header missing lengths: {', '.join(sorted(missing))}"
            )
        headers = tuple([header for _, header in header_run])
        current_group = CavpGroup(mechanism, headers, pr, lengths)
        field_bits = {name: lengths[len_key] for name, (len_key, _) in _FIELDS.items()}
        groups.append(current_group)
        header_run = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                raise CavpParseError(lineno, f"unterminated bracket header {line!r}")
            close_case()
            header_run.append((lineno, _parse_header(line[1:-1], lineno)))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise CavpParseError(lineno, f"malformed line {line!r}")
        key = key.strip()
        value = value.strip()
        if header_run:
            open_group()
        if key == "COUNT":
            if current_group is None:
                raise CavpParseError(lineno, "COUNT before any group header")
            close_case()
            try:
                count = int(value)
            except ValueError:
                raise CavpParseError(lineno, f"non-integer COUNT {value!r}")
            expected = len(current_group.cases)
            if 0 <= count < expected:  # the group's counts so far are 0..expected-1
                raise CavpParseError(lineno, f"duplicate COUNT {count}")
            if count != expected:
                raise CavpParseError(
                    lineno, f"non-consecutive COUNT {count} (expected {expected})"
                )
            case_count, case_line = count, lineno
            case_values = {}
            continue
        if case_values is None:
            raise CavpParseError(lineno, f"field {key!r} outside a COUNT block")
        declared = field_bits.get(key)
        if declared is None:
            raise CavpParseError(lineno, f"unknown field {key!r}")
        try:
            octets = from_hex(value) if value else b""
        except ValueError as exc:
            raise CavpParseError(lineno, str(exc))
        if len(octets) * 8 != declared:
            raise CavpParseError(
                lineno,
                f"{key} is {len(octets) * 8} bits but {_FIELDS[key][0]} = {declared}",
            )
        case_values.setdefault(key, []).append(octets)
    close_case()
    if header_run:
        # trailing headers with no cases still declare a (possibly empty) group
        open_group()
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
            fields = [
                ("EntropyInput", case.entropy_input),
                ("Nonce", case.nonce),
                ("PersonalizationString", case.personalization),
            ]
            if case.entropy_input_reseed is not None:
                fields.append(("EntropyInputReseed", case.entropy_input_reseed))
                fields.append(("AdditionalInputReseed", case.additional_input_reseed))
            for call, add in enumerate(case.additional_inputs):
                fields.append(("AdditionalInput", add))
                fields += [("EntropyInputPR", e) for e in case.entropy_inputs_pr[call : call + 1]]
            fields.append(("ReturnedBits", case.returned_bits))
            lines.append(f"COUNT = {case.count}")
            lines += [f"{name} = {to_hex(octets)}" for name, octets in fields]
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
    # only a prediction-resistance state draws, one EntropyInputPR per call
    stream = DeterministicStream(b"".join(case.entropy_inputs_pr))
    out = b""
    for add in case.additional_inputs:
        out, stream, state = drbg.generate_with_entropy(
            stream, state, drbg.GenerateRequest(out_len, add)
        )
    return CaseResult(case.count, out == case.returned_bits, case.returned_bits, out)


@dataclass
class GroupResult:
    group: CavpGroup
    skip_reason: str | None
    results: list[CaseResult]

    @property
    def skipped(self) -> bool:
        return self.skip_reason is not None

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
        reason = None
        if mechanism is not None and group.mechanism != mechanism:
            reason = f"filtered (mechanism {group.mechanism})"
        elif group.mechanism != SUPPORTED_MECHANISM:
            reason = f"unsupported mechanism {group.mechanism}"
        results = [] if reason else [run_case(group, case) for case in group.cases]
        out.append(GroupResult(group, reason, results))
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
