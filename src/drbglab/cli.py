"""Batch command-line front end.

Subcommands: ``gen`` drives the generator from hex or system entropy,
``cavp`` validates against response-vector files, ``game`` checks the
pseudorandomness lemmas, ``bound`` evaluates the concrete security
bound, and ``selftest`` runs a quick correctness battery.

Exit codes: 0 all requested checks passed; 1 a check failed; 2 usage,
parse or any other input error; 3 the generator demanded a reseed. All
errors are mapped in ``main``, one ``error:`` line each. All hex I/O is
lowercase without prefixes. Machine-readable output is one key=value
record per line; ordering is deterministic for fixed flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import cavp
from .bounds import (
    BoundInputs,
    format_rational,
    pr_collisions,
    prf_advantage_hmac,
    total_bound,
)
from .drbg import (
    DEFAULT_RESEED_INTERVAL,
    GenerateRequest,
    ReseedRequired,
    generate,
    generate_with_entropy,
    instantiate,
)
from .entropy import DeterministicStream, SystemStream, take
from .games import (
    ALL_CHECKS,
    DEFAULT_SEED,
    DEFAULT_TRIALS,
    GameEvaluator,
    HybridParams,
    LemmaCheck,
    check_lemma,
    collision_detector,
    constant,
    first_bit,
    main_theorem_check,
    run_all_lemmas,
)
from .prf import HMAC_SHA256_RFC4231, hmac_sha256, sha256

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_RESEED_REQUIRED = 3

_ADVERSARIES = {
    "collision": collision_detector,
    "first-bit": first_bit,
    "constant-true": constant(True),
    "constant-false": constant(False),
}


def _hex_arg(text: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid hex {text!r}: {exc}") from exc


# ----------------------------------------------------------------------- gen


def cmd_gen(args: argparse.Namespace) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be >= 0, got {args.count}")
    if args.system:
        stream = SystemStream()
    else:
        stream = DeterministicStream(args.entropy)
    additional: list[bytes] = args.additional or []
    seed_octets, stream = take(stream, args.entropy_len)
    state = instantiate(
        seed_octets,
        nonce=args.nonce,
        personalization=args.personalization,
        prediction_resistance=args.pr,
        entropy_len=args.entropy_len,
        reseed_interval=args.reseed_interval,
    )
    for call in range(args.count):
        req = GenerateRequest(
            args.out_len,
            additional[call] if call < len(additional) else b"",
        )
        if args.pr:
            out, stream, state = generate_with_entropy(stream, state, req)
        else:
            out, state = generate(state, req)
        print(out.hex())
    return EXIT_OK


# ---------------------------------------------------------------------- cavp


def cmd_cavp(args: argparse.Namespace) -> int:
    parsed = cavp.parse_path(args.path)
    summary = cavp.run_file(parsed, mechanism=args.mechanism)
    if summary.passed + summary.failed == 0:
        # a run that checked nothing must not pass
        found = ", ".join(dict.fromkeys(g.mechanism for g in parsed.groups)) or "none"
        wanted = args.mechanism or cavp.SUPPORTED_MECHANISM
        raise ValueError(
            f"{args.path}: no case ran for mechanism {wanted}; "
            f"the file's mechanisms are {found}"
        )
    if args.report:
        lines = cavp.report_lines(summary)
        if args.report == "-":
            for line in lines:
                print(line)
        else:
            with open(args.report, "w", encoding="ascii") as fh:
                fh.write("\n".join(lines) + "\n")
    for line in cavp.summary_lines(summary):
        print(line)
    return EXIT_OK if summary.failed == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------- game


def _squash(text: str) -> str:
    """Whitespace-free rendering for key=value record fields."""
    return "".join(text.split())


def _check_record(check: LemmaCheck) -> str:
    where = "-" if check.i is None else str(check.i)
    verdict = "pass" if check.passed else "fail"
    return (
        f"lemma={check.lemma} i={where} mode={check.mode} result={verdict} "
        f"lhs={_squash(check.lhs)} rel={check.relation} rhs={_squash(check.rhs)}"
    )


def cmd_game(args: argparse.Namespace) -> int:
    adversary = _ADVERSARIES[args.adversary]
    params = HybridParams(args.eta, args.num_calls, args.blocks_per_call, adversary=adversary)
    evaluator = GameEvaluator(params, trials=args.trials, seed=args.seed)
    checks: list[LemmaCheck] = []
    if args.lemma == "all":
        checks.extend(run_all_lemmas(params, evaluator=evaluator))
        checks.append(main_theorem_check(params, evaluator=evaluator).check)
    else:
        checks.extend(check_lemma(params, args.lemma, evaluator=evaluator))
    for check in checks:
        print(_check_record(check))
    failures = sum(1 for c in checks if not c.passed)
    print(
        f"checks={len(checks)} failures={failures} mode={evaluator.mode} "
        f"eta={args.eta} num_calls={args.num_calls} "
        f"blocks_per_call={args.blocks_per_call} adversary={args.adversary}"
    )
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# --------------------------------------------------------------------- bound


def cmd_bound(args: argparse.Namespace) -> int:
    inputs = BoundInputs(args.t, args.num_calls, args.blocks_per_call, args.eta)
    advantage = prf_advantage_hmac(inputs.t)
    collisions = pr_collisions(inputs.blocks_per_call, inputs.eta)
    total = total_bound(inputs)
    print(f"t={inputs.t}")
    print(f"num_calls={inputs.num_calls}")
    print(f"blocks_per_call={inputs.blocks_per_call}")
    print(f"eta={inputs.eta}")
    print(f"prf_advantage={advantage.expression}")
    print(f"prf_advantage_log2={advantage.log2:.6f}")
    print(f"collision_term={format_rational(collisions)}")
    print(f"per_call={format_rational(advantage.value + collisions)}")
    print(f"total={format_rational(total.value)}")
    print(f"total_log2={total.log2!r}")
    print(f"vacuous={'true' if total.vacuous else 'false'}")
    if advantage.vacuous:
        print("note: the prf advantage term is >= 1 at this t; the bound is vacuous")
    if inputs.eta < 256:
        print(
            "note: the collision term uses eta="
            f"{inputs.eta} although HMAC-SHA256 output blocks carry 256 bits; "
            "with eta=256 the collision term would be "
            f"{format_rational(pr_collisions(inputs.blocks_per_call, 256))}"
        )
    return EXIT_OK


# ------------------------------------------------------------------ selftest

_SHA256_KNOWN = (
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
)

BREAK_HMAC_ENV = "DRBGLAB_SELFTEST_BREAK_HMAC"


def _bundled_vector_text(name: str) -> str:
    from importlib import resources

    return resources.files("drbglab").joinpath(f"vectors/{name}").read_text("ascii")


def cmd_selftest(args: argparse.Namespace) -> int:
    started = time.monotonic()
    hmac_fn = hmac_sha256
    if os.environ.get(BREAK_HMAC_ENV):
        # fault-injection hook: corrupt the digest so the battery must fail
        def hmac_fn(key: bytes, message: bytes) -> bytes:  # type: ignore[misc]
            digest = hmac_sha256(key, message)
            return digest[:-1] + bytes([digest[-1] ^ 0x01])

    results: list[tuple[str, bool]] = []

    ok = all(sha256(msg).hex() == want for msg, want in _SHA256_KNOWN)
    results.append(("sha256_known_answers", ok))

    ok = True
    for key, message, want, truncate in HMAC_SHA256_RFC4231:
        got = hmac_fn(key, message)
        if truncate is not None:
            got = got[:truncate]
        if got.hex() != want:
            ok = False
    results.append(("hmac_sha256_rfc_vectors", ok))

    try:
        parsed = cavp.parse(_bundled_vector_text("hmac_drbg_no_reseed.rsp"))
        summary = cavp.run_file(parsed, mechanism="SHA-256")
        results.append(
            ("drbg_cavp_no_reseed", summary.failed == 0 and summary.passed > 0)
        )
    except (OSError, cavp.CavpParseError):
        results.append(("drbg_cavp_no_reseed", False))

    params = HybridParams(2, 2, 2, adversary=collision_detector)
    evaluator = GameEvaluator(params)
    checks = run_all_lemmas(params, evaluator=evaluator)
    checks.append(main_theorem_check(params, evaluator=evaluator).check)
    ok = all(c.passed for c in checks) and all(c.mode == "exact" for c in checks)
    results.append(("lemma_suite_small_eta", ok))

    reference = total_bound(BoundInputs(78, 1 << 48, 10, 128))
    results.append(("bound_reference_value", abs(reference.log2 + 52.0) <= 0.1))

    failures = 0
    for name, passed in results:
        print(f"check={name} result={'pass' if passed else 'fail'}")
        failures += 0 if passed else 1
    elapsed = time.monotonic() - started
    print(f"selftest={'pass' if failures == 0 else 'fail'} elapsed={elapsed:.2f}s")
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- the parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drbglab",
        description="HMAC-DRBG toolkit: generation, vector validation, "
        "executable security games, and concrete bounds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="generate output from hex or system entropy")
    source = gen.add_mutually_exclusive_group(required=True)
    source.add_argument("--entropy", type=_hex_arg, help="seed material, hex")
    source.add_argument(
        "--system", action="store_true", help="draw entropy from the OS"
    )
    gen.add_argument("--entropy-len", type=int, default=32, metavar="OCTETS",
                     help="octets drawn per (re)seed (default 32)")
    gen.add_argument("--nonce", type=_hex_arg, default=b"", help="nonce, hex")
    gen.add_argument("--personalization", type=_hex_arg, default=b"",
                     help="personalization string, hex")
    gen.add_argument("--additional", type=_hex_arg, action="append", metavar="HEX",
                     help="per-call additional input (repeatable)")
    gen.add_argument("--out-len", type=int, required=True, metavar="OCTETS",
                     help="octets per generate call")
    gen.add_argument("--count", type=int, default=1, help="generate calls to run")
    gen.add_argument("--pr", action="store_true",
                     help="prediction resistance: reseed before every call")
    gen.add_argument("--reseed-interval", type=int, default=DEFAULT_RESEED_INTERVAL,
                     help="calls allowed between reseeds")
    gen.set_defaults(run=cmd_gen)

    cavp_cmd = sub.add_parser("cavp", help="validate a response-vector file")
    cavp_cmd.add_argument("path", help="response file (.rsp)")
    cavp_cmd.add_argument("--mechanism", default=None,
                          help="only run groups for this mechanism (e.g. SHA-256)")
    cavp_cmd.add_argument("--report", default=None, metavar="PATH",
                          help="write one key=value record per case ('-' = stdout)")
    cavp_cmd.set_defaults(run=cmd_cavp)

    game = sub.add_parser("game", help="check pseudorandomness lemmas")
    game.add_argument("--lemma", default="all", choices=("all",) + ALL_CHECKS,
                      help="which lemma to check (default: all)")
    game.add_argument("--eta", type=int, default=2, help="block width in bits")
    game.add_argument("--num-calls", type=int, default=2)
    game.add_argument("--blocks-per-call", type=int, default=2)
    game.add_argument("--adversary", default="collision",
                      choices=sorted(_ADVERSARIES), help="distinguisher to fold in")
    game.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                      help="Monte Carlo trials when the factored evaluator does not "
                           "admit the adversary")
    game.add_argument("--seed", type=int, default=DEFAULT_SEED,
                      help="Monte Carlo seed")
    game.set_defaults(run=cmd_game)

    bound = sub.add_parser("bound", help="evaluate the concrete security bound")
    bound.add_argument("--t", type=int, default=78,
                       help="adversary resource exponent (time/space <= 2^t)")
    bound.add_argument("--num-calls", type=int, default=1 << 48)
    bound.add_argument("--blocks-per-call", type=int, default=10)
    bound.add_argument("--eta", type=int, default=128,
                       help="block width for the collision term, in bits")
    bound.set_defaults(run=cmd_bound)

    selftest = sub.add_parser("selftest", help="run the quick correctness battery")
    selftest.set_defaults(run=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. The exit-code contract holds for every input:
    a generator that demands a reseed exits 3, and any other error exits
    2 with one ``error:`` line, never 1 with a traceback."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # the reader went away (e.g. piped into head); not a check failure
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return EXIT_RESEED_REQUIRED if isinstance(exc, ReseedRequired) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
