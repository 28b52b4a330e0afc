"""The four activities the benchmark measures, each with its own oracle.

An activity's constructor is its set-up: it imports the ``drbglab``
modules it drives and builds every input from the run seed. ``step()``
does one unit of work, checks that unit's outputs outside the timed
region, and returns the seconds it timed; ``scaled_s`` sums the same
times at the reference speed (see ``REFERENCE_NS``). ``metrics()``
turns the timed samples into the end-to-end metrics the activity owns.

Every repetition derives its own inputs from (seed, tag, repetition), so
no repetition replays an earlier one. The process-wide ``prf_small`` LRU
is emptied before each unit that a fresh ``drbglab`` process would start
cold (a grid point, a self-test, a Monte Carlo unit), and every
unit builds fresh ``HybridParams`` and ``GameEvaluator`` objects.
"""

from __future__ import annotations

import contextlib
import io
import random
import re
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator

from oracle import ReferenceDrbg

ROOT = Path(__file__).resolve().parent.parent
VECTORS = ROOT / "src" / "drbglab" / "vectors"
CAVP_FILES = ("hmac_drbg_no_reseed.rsp", "hmac_drbg_pr_false.rsp", "hmac_drbg_pr_true.rsp")
CAVP_CASES_PER_FILE = 60  # SHA-256 cases in each bundled file

GRID = tuple((eta, nc, bpc) for eta in (1, 2, 3) for nc in (1, 2, 3) for bpc in (1, 2))
SMALL_GRID = tuple(point for point in GRID if point[0] <= 2)

DEFAULT_SEED = 0  # the seed at which Monte Carlo hit counts are pinned


def rng(seed: int, *tags: Any) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[round(q * (len(ordered) - 1))]


# Every time is scaled to a fixed machine speed. On a shared 2-vCPU
# machine the same code runs up to 2x slower for stretches of a few
# seconds to minutes while neighbours load the host (1024-octet generate
# p50 in 2-s windows: 215, 315 or 375 us), so raw times measure the host's
# load as much as the program. Each stretch of timed work (128 generate
# requests, one CLI call, one lap of a grid point or Monte Carlo unit) is
# therefore bracketed by timings of a fixed reference loop that runs no
# drbglab code, and its times are multiplied by REFERENCE_NS / (mean
# reference time): the figures are what the work would take when the
# reference loop takes REFERENCE_NS. A change to drbglab moves them as it
# moves raw times; a change in host load mostly cancels.

REFERENCE_NS = 500_000


def reference_ns() -> int:
    """Faster of two timings of a fixed loop on the standard library
    alone: HMAC-DRBG output from the oracle, and a Fraction sum."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        oracle = ReferenceDrbg(bytes(48))
        for _ in range(4):
            oracle.generate(1024)
        total = Fraction(0)
        for i in range(1, 60):
            total += Fraction(1, i * i + 1)
        ns = time.perf_counter_ns() - t0
        best = ns if best is None else min(best, ns)
    return best


def machine_speed(before_ns: int, after_ns: int) -> float:
    """Factor that scales a unit's raw time to the reference speed, from
    reference timings taken just before and just after the unit."""
    return 2 * REFERENCE_NS / (before_ns + after_ns)


MIN_LAP_NS = 50_000_000  # keeps the reference timings under a few % of the work


class Laps:
    """Times one unit of library work in laps, for units that run too
    long to be bracketed only at their ends: each lap is scaled by the
    reference timings at its two ends, which are themselves not timed."""

    def __init__(self) -> None:
        self.raw_ns = 0
        self.scaled_ns = 0.0
        self.speeds: list[float] = []
        self.before = reference_ns()
        self.t0 = time.perf_counter_ns()

    def lap(self, last: bool = False) -> None:
        """End a lap, unless it is shorter than MIN_LAP_NS and not the last."""
        t1 = time.perf_counter_ns()
        if t1 - self.t0 < MIN_LAP_NS and not last:
            return
        after = reference_ns()
        speed = machine_speed(self.before, after)
        self.raw_ns += t1 - self.t0
        self.scaled_ns += (t1 - self.t0) * speed
        self.speeds.append(speed)
        self.before = after
        self.t0 = time.perf_counter_ns()


@contextlib.contextmanager
def lap_after(laps: Laps, owner: Any, *names: str) -> Iterator[None]:
    """Take a lap after every call of ``owner.<name>`` while the block runs."""
    inner = {name: getattr(owner, name) for name in names}

    def lapped(call: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = call(*args, **kwargs)
            laps.lap()
            return result
        return wrapper

    for name, call in inner.items():
        setattr(owner, name, lapped(call))
    try:
        yield
    finally:
        for name, call in inner.items():
            setattr(owner, name, call)


@dataclass
class Run:
    """Shared state of one benchmark run: seed, pins, tally of checked
    operations, and the tracer when the run is traced."""

    seed: int
    pins: dict
    tracer: Any = None
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    _request: int = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def begin_request(self) -> None:
        self._request += 1
        if self.tracer is not None:
            self.tracer.request = self._request


def clear_prf_cache() -> None:
    from drbglab import prf

    prf._prf_small_raw.cache_clear()


# ----------------------------------------------------------------- drbg_stream


@dataclass(frozen=True)
class Batch:
    seed_material: bytes
    pr_seed_material: bytes
    pr_entropy: bytes
    requests: tuple[tuple[int, bytes, bool], ...]  # (out_len, additional, to PR instance)


# Small batches, so that even the companion share samples the run at
# many points: tail latencies follow the host's jitter, which drifts.
BATCH_REQUESTS = 256
SPEED_CHUNK = 128  # requests between two reference timings


def make_batch(r: random.Random) -> Batch:
    n = BATCH_REQUESTS
    sizes = [32] * (n // 2) + [1024] * (n // 2)
    with_ai = [True] * (n // 4) + [False] * (n - n // 4)
    to_pr = [True] * (n // 4) + [False] * (n - n // 4)
    for column in (sizes, with_ai, to_pr):
        r.shuffle(column)
    requests = tuple(
        (size, r.randbytes(32) if ai else b"", pr) for size, ai, pr in zip(sizes, with_ai, to_pr)
    )
    return Batch(r.randbytes(48), r.randbytes(48), r.randbytes(32 * sum(to_pr)), requests)


class DrbgStream:
    """A library user drawing bytes: seeded generate requests, half 32 and
    half 1024 octets, a quarter with 32-octet additional input, a quarter
    on a prediction-resistance instance fed from one DeterministicStream.
    One batch per step. The latency percentiles are taken over every
    request of the run (128 of each size per batch; 8192 of each in the
    companion share, so 82 beyond each p99), and the rate is octets over
    the summed times."""

    def __init__(self, run: Run, tag: str, batches: int) -> None:
        from drbglab import drbg, entropy

        self.run, self.drbg, self.entropy = run, drbg, entropy
        self.batches = [make_batch(rng(run.seed, tag, b)) for b in range(batches)]
        self.reset()

    def __len__(self) -> int:
        return len(self.batches)

    def reset(self) -> None:
        self.done = 0
        self.scaled_s = 0.0
        self.latency_ns: dict[int, list[float]] = {32: [], 1024: []}
        self.octets = 0
        self.batch_MBps: list[float] = []
        self.speeds: list[float] = []

    def step(self) -> float:
        batch = self.batches[self.done % len(self.batches)]
        self.done += 1
        drbg, run, clock = self.drbg, self.run, time.perf_counter_ns
        # 32 octets of entropy and a 16-octet nonce; a reseed draws 32 octets
        plain = drbg.instantiate(batch.seed_material[:32], batch.seed_material[32:])
        guarded = drbg.instantiate(
            batch.pr_seed_material[:32], batch.pr_seed_material[32:], prediction_resistance=True
        )
        stream = self.entropy.DeterministicStream(batch.pr_entropy)
        outputs = []
        spent = 0
        scaled = 0.0
        before = reference_ns()
        for start in range(0, len(batch.requests), SPEED_CHUNK):
            chunk = []
            for out_len, additional, to_pr in batch.requests[start:start + SPEED_CHUNK]:
                req = drbg.GenerateRequest(out_len, additional)
                run.begin_request()
                if to_pr:
                    t0 = clock()
                    out, stream, guarded = drbg.generate_with_entropy(stream, guarded, req)
                    t1 = clock()
                else:
                    t0 = clock()
                    out, plain = drbg.generate(plain, req)
                    t1 = clock()
                chunk.append((out_len, t1 - t0))
                outputs.append(out)
            after = reference_ns()
            speed = machine_speed(before, after)
            before = after
            for out_len, ns in chunk:
                self.latency_ns[out_len].append(ns * speed)
                spent += ns
                scaled += ns * speed
            self.speeds.append(speed)
        octets = sum(len(out) for out in outputs)
        self.octets += octets
        self.scaled_s += scaled / 1e9
        self.batch_MBps.append(octets / (scaled / 1e9) / 1e6)
        reference = ReferenceDrbg(batch.seed_material)
        reference_pr = ReferenceDrbg(batch.pr_seed_material, True, batch.pr_entropy)
        for k, ((out_len, additional, to_pr), out) in enumerate(zip(batch.requests, outputs)):
            want = (reference_pr if to_pr else reference).generate(out_len, additional)
            run.check(out == want, f"drbg_stream request {k}: output differs from reference")
        return spent / 1e9

    def samples(self) -> dict[str, list[float]]:
        return {"gen_MBps": self.batch_MBps, "speed": self.speeds}

    def metrics(self) -> dict[str, float]:
        metrics = {"gen_MBps": self.octets / self.scaled_s / 1e6}
        for size, lat in self.latency_ns.items():
            metrics[f"gen{size}_us_p50"] = percentile(lat, 0.50) / 1e3
            metrics[f"gen{size}_us_p99"] = percentile(lat, 0.99) / 1e3
        return metrics


# ----------------------------------------------------------------- conformance


_TOTAL = re.compile(r"^total: (\d+) passed, (\d+) failed, (\d+) skipped$", re.M)


class Conformance:
    """In-process ``drbglab cavp <file> --mechanism SHA-256`` over the
    three bundled files plus ``drbglab selftest``, in a seeded order per
    pass, with stdout captured. One pass per step; the case rate and the
    self-test time are medians over passes."""

    def __init__(self, run: Run, tag: str, passes: int) -> None:
        from drbglab import cli

        self.run, self.cli = run, cli
        items = [str(VECTORS / name) for name in CAVP_FILES] + ["selftest"]
        self.orders = [rng(run.seed, tag, p).sample(items, len(items)) for p in range(passes)]
        self.reset()

    def __len__(self) -> int:
        return len(self.orders)

    def reset(self) -> None:
        self.done = 0
        self.scaled_s = 0.0
        self.cavp_rates: list[float] = []
        self.selftest_ns: list[float] = []
        self.speeds: list[float] = []

    def _main(self, argv: list[str]) -> tuple[int, str, int]:
        out = io.StringIO()
        self.run.begin_request()
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter_ns()
            code = self.cli.main(argv)
            t1 = time.perf_counter_ns()
        return code, out.getvalue(), t1 - t0

    def step(self) -> float:
        order = self.orders[self.done % len(self.orders)]
        self.done += 1
        spent = 0
        cavp_ns = selftest_ns = 0.0
        before = reference_ns()
        for item in order:
            if item == "selftest":
                clear_prf_cache()
                code, text, ns = self._main(["selftest"])
            else:
                code, text, ns = self._main(["cavp", item, "--mechanism", "SHA-256"])
            after = reference_ns()
            speed = machine_speed(before, after)
            before = after
            self.speeds.append(speed)
            if item == "selftest":
                selftest_ns = ns * speed
                self.run.check(code == 0 and "selftest=pass" in text, f"selftest exit {code}")
            else:
                cavp_ns += ns * speed
                self._check_cavp(Path(item).name, code, text)
            spent += ns
        self.cavp_rates.append(len(CAVP_FILES) * CAVP_CASES_PER_FILE / (cavp_ns / 1e9))
        self.selftest_ns.append(selftest_ns)
        self.scaled_s += (cavp_ns + selftest_ns) / 1e9
        return spent / 1e9

    def _check_cavp(self, name: str, code: int, text: str) -> None:
        """One operation for the exit code, then one per case: exactly
        ``CAVP_CASES_PER_FILE`` must pass, and every case the totals line
        reports as failed, or that is missing from it, is one failure."""
        totals = _TOTAL.search(text)
        passed, failed = (int(totals.group(1)), int(totals.group(2))) if totals else (0, 0)
        self.run.check(code == 0, f"cavp {name}: exit {code}")
        good = min(passed, CAVP_CASES_PER_FILE)
        for k in range(max(CAVP_CASES_PER_FILE, passed + failed)):
            self.run.check(k < good, f"cavp {name}: case {k} not passed "
                                     f"({passed} passed, {failed} failed)")

    def samples(self) -> dict[str, list[float]]:
        return {"cavp_cases_per_s": self.cavp_rates, "selftest_ns": self.selftest_ns,
                "speed": self.speeds}

    def metrics(self) -> dict[str, float]:
        return {
            "cavp_cases_per_s": statistics.median(self.cavp_rates),
            "selftest_ms_p50": statistics.median(self.selftest_ns) / 1e6,
        }


# ------------------------------------------------------------------ lemma_grid


def lemma_record(check: Any) -> list:
    return [check.lemma, check.i, check.relation, check.lhs, check.rhs]


def point_key(point: tuple[int, int, int]) -> str:
    return ",".join(str(x) for x in point)


def lemma_checks(games: Any, point: tuple[int, int, int]) -> list:
    """Every lemma check plus the main theorem at one grid point, cold."""
    params = games.HybridParams(*point, adversary=games.collision_detector)
    evaluator = games.GameEvaluator(params)
    checks = games.run_all_lemmas(params, evaluator=evaluator)
    checks.append(games.main_theorem_check(params, evaluator=evaluator).check)
    return checks


class LemmaGrid:
    """``run_all_lemmas`` + ``main_theorem_check`` per grid point, one
    point per step, each pass over the grid in a seeded order. Checks
    per second are taken over the sum of each point's median time, so a
    run that stops part-way through a pass is not biased towards the
    cheap points."""

    def __init__(self, run: Run, tag: str, points: tuple = GRID, passes: int = 8) -> None:
        from drbglab import games

        self.run, self.games, self.points = run, games, points
        self.order = [
            point for p in range(passes) for point in rng(run.seed, tag, p).sample(points, len(points))
        ]
        self.reset()

    def __len__(self) -> int:
        return len(self.order)

    def reset(self) -> None:
        self.done = 0
        self.scaled_s = 0.0
        self.times: dict[tuple, list[float]] = {}
        self.checks: dict[tuple, int] = {}
        self.speeds: list[float] = []

    def complete(self) -> bool:
        return len(self.times) == len(self.points)

    def step(self) -> float:
        point = self.order[self.done % len(self.order)]
        self.done += 1
        clear_prf_cache()
        self.run.begin_request()
        laps = Laps()
        # a point takes up to 9 s: one lap per evaluator query
        with lap_after(laps, self.games.GameEvaluator, "pr", "pr_bad", "pr_joint_no_bad"):
            checks = lemma_checks(self.games, point)
        laps.lap(last=True)
        self.times.setdefault(point, []).append(laps.scaled_ns)
        self.scaled_s += laps.scaled_ns / 1e9
        self.speeds += laps.speeds
        self.checks[point] = len(checks)
        pinned = self.run.pins.get("lemma_grid", {}).get(point_key(point), [])
        if len(pinned) != len(checks):
            self.run.check(False, f"lemma point {point}: {len(checks)} checks, pinned {len(pinned)}")
        for k, check in enumerate(checks):
            ok = check.passed and check.mode == "exact"
            ok = ok and k < len(pinned) and lemma_record(check) == pinned[k]
            self.run.check(ok, f"lemma point {point} check {k} {check.lemma}")
        return laps.raw_ns / 1e9

    def point_seconds(self) -> dict[tuple, float]:
        return {point: statistics.median(ns) / 1e9 for point, ns in self.times.items()}

    def samples(self) -> dict[str, list[float]]:
        return {**{point_key(point): ns for point, ns in self.times.items()}, "speed": self.speeds}

    def metrics(self) -> dict[str, float]:
        seconds = self.point_seconds()
        return {"lemma_checks_per_s": sum(self.checks[p] for p in seconds) / sum(seconds.values())}


# ----------------------------------------------------------------- monte_carlo


WIDE_SUITES = 2  # eta-16 suites per repetition, each with its own trial seed


class MonteCarlo:
    """Repetitions of two kinds of unit, one unit per step. A calibration
    unit runs the 20 ``calibration_games()`` with exact values, a
    Clopper-Pearson estimate at a fixed trial count and a coverage
    verdict each. A wide unit runs the eta-16 Monte Carlo lemma suite
    (``game --eta 16 --num-calls 2 --blocks-per-call 2``) with its own
    trial seed. A repetition is one calibration unit and ``WIDE_SUITES``
    wide units. Both rates are medians over units."""

    def __init__(self, run: Run, tag: str, calib_trials: int, wide_trials: int, reps: int) -> None:
        from drbglab import games, prob

        self.run, self.games, self.prob = run, games, prob
        self.tag, self.calib_trials, self.wide_trials = tag, calib_trials, wide_trials
        self.units = []
        for r in range(reps):
            self.units.append((r, None, rng(run.seed, tag, r, "calib").getrandbits(40)))
            self.units += [(r, w, rng(run.seed, tag, r, "wide", w).getrandbits(40))
                           for w in range(WIDE_SUITES)]
        self.reset()

    def __len__(self) -> int:
        return len(self.units)

    def reset(self) -> None:
        self.done = 0
        self.scaled_s = 0.0
        self.calib_rates: list[float] = []
        self.wide_rates: list[float] = []
        self.speeds: list[float] = []
        self.hits: dict[int, dict[str, list]] = {}

    def complete(self) -> bool:
        return self.done >= 1 + WIDE_SUITES

    def pin_key(self, rep: int) -> str:
        return f"{self.tag}:{self.calib_trials}:{self.wide_trials}:rep{rep}"

    def _calibration(self, seed: int) -> tuple[int, list[int], int]:
        games, prob = self.games, self.prob
        clear_prf_cache()
        self.run.begin_request()
        laps = Laps()
        # calibration_games() takes seconds: one lap per exact value
        with lap_after(laps, games, "exact_dist"):
            calibration = games.calibration_games()
        covered = 0
        hits = []
        for j, (_name, comp, exact) in enumerate(calibration):
            est = prob.estimate_pr_true(comp, self.calib_trials, seed + (j << 20))
            covered += est.contains(exact)
            hits.append(round(est.estimate * est.trials))
        laps.lap(last=True)
        self.calib_rates.append(len(calibration) / (laps.scaled_ns / 1e9))
        self.scaled_s += laps.scaled_ns / 1e9
        self.speeds += laps.speeds
        self.run.check(len(calibration) == 20 and covered >= 18,
                       f"monte_carlo: {covered}/{len(calibration)} calibration intervals cover")
        return laps.raw_ns, hits, covered

    def _wide_suite(self, seed: int) -> tuple[int, list[int]]:
        games = self.games
        hits: list[int] = []
        trials = 0
        inner = games.estimate_pr_true

        def counted(comp: Any, n: int, trial_seed: int, confidence: float = 0.99) -> Any:
            nonlocal trials
            est = inner(comp, n, trial_seed, confidence)
            laps.lap()
            trials += est.trials
            hits.append(round(est.estimate * est.trials))
            return est

        clear_prf_cache()
        self.run.begin_request()
        games.estimate_pr_true = counted
        try:
            laps = Laps()
            params = games.HybridParams(16, 2, 2, adversary=games.collision_detector)
            evaluator = games.GameEvaluator(params, trials=self.wide_trials, seed=seed)
            checks = games.run_all_lemmas(params, evaluator=evaluator)
            checks.append(games.main_theorem_check(params, evaluator=evaluator).check)
            laps.lap(last=True)
        finally:
            games.estimate_pr_true = inner
        self.wide_rates.append(trials / (laps.scaled_ns / 1e9))
        self.scaled_s += laps.scaled_ns / 1e9
        self.speeds += laps.speeds
        self.run.check(all(c.mode == "monte-carlo" for c in checks) and trials > 0,
                       "monte_carlo: eta-16 suite not in Monte Carlo mode")
        return laps.raw_ns, hits

    def step(self) -> float:
        rep, suite, seed = self.units[self.done % len(self.units)]
        self.done += 1
        hits = self.hits.setdefault(rep, {"calibration": [], "wide": []})
        if suite is None:
            spent, got, _ = self._calibration(seed)
            hits["calibration"] = got
        else:
            spent, got = self._wide_suite(seed)
            hits["wide"].append(got)
        pinned = self.run.pins.get("monte_carlo", {}).get(self.pin_key(rep))
        if self.run.seed == DEFAULT_SEED and pinned is not None:
            if suite is None:
                self._compare(rep, "calibration", got, pinned["calibration"])
            else:
                want = pinned["wide"][suite] if suite < len(pinned["wide"]) else []
                self._compare(rep, f"wide suite {suite}", got, want)
        return spent / 1e9

    def _compare(self, rep: int, part: str, got: list[int], want: list[int]) -> None:
        for k in range(max(len(got), len(want))):
            ok = k < len(got) and k < len(want) and got[k] == want[k]
            self.run.check(ok, f"monte_carlo rep {rep}: {part} hit count {k} differs from pin")

    def samples(self) -> dict[str, list[float]]:
        return {"calib_games_per_s": self.calib_rates, "wide_trials_per_s": self.wide_rates,
                "speed": self.speeds}

    def metrics(self) -> dict[str, float]:
        return {
            "calib_games_per_s": statistics.median(self.calib_rates),
            "wide_trials_per_s": statistics.median(self.wide_rates),
        }


# ------------------------------------------------------------------ the table
#
# Each workload names its home activity, which runs for the whole
# measured time. Every run reports every end-to-end metric, so each
# other activity runs a short fixed companion share, one pass over its
# inputs, spread evenly through the home loop so that it samples the same
# stretch of machine time, and supplies its metrics at that smaller size.
# Companion figures compare run to run within one workload only.

HOME_CALIB_TRIALS, HOME_WIDE_TRIALS = 400, 200
COMPANION_CALIB_TRIALS, COMPANION_WIDE_TRIALS = 200, 100


def home(kind: str, run: Run) -> Any:
    if kind == "drbg_stream":
        return DrbgStream(run, "drbg", batches=128)
    if kind == "conformance":
        return Conformance(run, "conformance", passes=16)
    if kind == "lemma_grid":
        return LemmaGrid(run, "lemma", GRID)
    if kind == "monte_carlo":
        return MonteCarlo(run, "mc", HOME_CALIB_TRIALS, HOME_WIDE_TRIALS, reps=64)
    raise ValueError(f"unknown workload {kind!r}")


def timed_home(kind: str, run: Run) -> tuple[Any, float]:
    """The home activity and its set-up time in seconds, at the reference speed."""
    before = reference_ns()
    t0 = time.perf_counter_ns()
    activity = home(kind, run)
    t1 = time.perf_counter_ns()
    return activity, (t1 - t0) * machine_speed(before, reference_ns()) / 1e9


def companion(kind: str, run: Run) -> Any:
    """The companion activity for ``kind``; it runs ``len()`` steps."""
    if kind == "drbg_stream":
        return DrbgStream(run, "drbg-companion", batches=64)
    if kind == "conformance":
        return Conformance(run, "conformance-companion", passes=8)
    if kind == "lemma_grid":
        return LemmaGrid(run, "lemma-companion", SMALL_GRID, passes=4)
    if kind == "monte_carlo":
        return MonteCarlo(run, "mc-companion", COMPANION_CALIB_TRIALS, COMPANION_WIDE_TRIALS,
                          reps=1)
    raise ValueError(f"unknown workload {kind!r}")


# Fixed work of the traced run, so its counts repeat exactly.
TRACE_STEPS = {"drbg_stream": 32, "conformance": 10, "lemma_grid": len(GRID), "monte_carlo": 3}

WORKLOADS = ("drbg_stream", "conformance", "lemma_grid", "monte_carlo")
