"""drbglab benchmark: one workload per invocation, one JSON line at the end.

    python3 perfbench/run.py --workload drbg_stream --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from the
checkout's ``src/``. With ``--trace 0`` the workload's home activity runs
for ``--seconds`` of timed work, every other activity runs a short
companion share in a second process, stepped at points spread through
the home loop, and the last line reports every end-to-end metric. With
``--trace 1`` the home activity runs a fixed amount of work twice, first
plain and then under the span recorder, and the last line reports the
per-layer metrics. Every output is checked outside the timed region; a
mismatch counts as one failed operation. A record of the run, with its
environment, goes to ``perfbench/out/``; a traced run also writes its
spans there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINS = HERE / "pins.json"
# Cold set-ups in fresh interpreters, besides the run's own: enough to
# spend about PROBE_SECONDS of set-up, at least 2 and at most 8.
PROBE_SECONDS, MIN_PROBES, MAX_PROBES = 2.0, 2, 8

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def environment(seed: int | None) -> dict:
    """Python version, CPU count, commit (when the checkout is a git
    repository) and seed. A run reads nothing outside its checkout, so
    the CPU model is added by ``collect.py``."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process's own memory. Linux carries
    ``ru_maxrss`` over from the process that spawned this one (the high
    water mark of the memory replaced at exec), so a large parent would
    show through; ``VmHWM`` counts only this process's memory."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child(role: str, workload: str, seed: int) -> list[str]:
    return [sys.executable, str(HERE / "child.py"), role, workload, str(seed)]


def probe_setup_seconds(workload: str, seed: int) -> float:
    """Set-up time of the workload in a fresh interpreter."""
    proc = subprocess.run(child("setup", workload, seed), cwd=ROOT,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


class Companions:
    """The companion process: the other activities' shares, stepped on
    request, so that they run while the workload process waits and add
    nothing to its peak RSS."""

    def __init__(self, workload: str, seed: int) -> None:
        self.proc = subprocess.Popen(child("companions", workload, seed), cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.steps: dict[str, int] = json.loads(self._reply())
        except BaseException:
            self.__exit__()
            raise

    def _reply(self) -> str:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"companion process ended with code {self.proc.wait(60)}")
        return line

    def step(self, kind: str) -> None:
        self.proc.stdin.write(kind + "\n")
        self.proc.stdin.flush()
        self._reply()

    def finish(self) -> dict:
        self.proc.stdin.close()
        result = json.loads(self._reply())
        self.proc.wait(60)
        return result

    def __enter__(self) -> "Companions":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_plain(workload: str, run: Run, activity, setup_s: float, seconds: float):
    """Home activity for ``seconds`` of timed work, and at least one whole
    grid pass or Monte Carlo repetition. Each companion step and each
    set-up probe is a task; the k-th of a task's n runs once
    (k + 1/2)/n of that time has been measured, outside the timed steps."""
    setups = [setup_s]
    with Companions(workload, run.seed) as companions:
        tasks = [(lambda kind=kind: companions.step(kind), n) for kind, n in companions.steps.items()]
        probes = min(MAX_PROBES, max(MIN_PROBES, int(PROBE_SECONDS / setup_s)))
        tasks.append((lambda: setups.append(probe_setup_seconds(workload, run.seed)), probes))
        done = [0] * len(tasks)
        measured = 0.0
        complete = getattr(activity, "complete", lambda: True)
        while measured < seconds or not complete():
            measured += activity.step()
            for k, (task, n) in enumerate(tasks):
                while done[k] < n and measured >= (done[k] + 0.5) * seconds / n:
                    task()
                    done[k] += 1
        for k, (task, n) in enumerate(tasks):
            for _ in range(n - done[k]):
                task()
        others = companions.finish()
    run.attempted += others["attempted"]
    run.failed += others["failed"]
    run.failures += others["failures"][: 20 - len(run.failures)]
    metrics = {**activity.metrics(), **others["metrics"]}
    metrics["peak_rss_MB"] = peak_rss_mb()
    metrics["setup_s"] = statistics.median(setups)
    samples = {workload: activity.samples(), **others["samples"], "setup_s": setups}
    return metrics, samples


def run_traced(workload: str, run: Run, activity) -> tuple[dict, dict, object]:
    from spans import Tracer

    steps = workloads.TRACE_STEPS[workload]

    def one_pass() -> tuple[dict, float, float]:
        activity.reset()
        spent = sum(activity.step() for _ in range(steps))
        return activity.metrics(), spent, activity.scaled_s

    plain, _, plain_s = one_pass()
    tracer = Tracer()
    run.tracer = tracer
    tracer.install()
    try:
        traced, traced_raw_s, traced_s = one_pass()
    finally:
        tracer.uninstall()
        run.tracer = None
    layers = tracer.layer_metrics(int(traced_raw_s * 1e9))
    point_seconds = getattr(activity, "point_seconds", None)
    layers["games.grid_point_max_s"] = max(point_seconds().values()) if point_seconds else 0.0
    layers["trace.overhead_share"] = traced_s / plain_s - 1
    overhead = {name: traced[name] - plain[name] for name in plain}
    return layers, overhead, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drbglab" / "__init__.py").is_file():
        print(f"error: no drbglab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        with open(PINS, encoding="ascii") as fh:
            pins = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read pins: {exc}", file=sys.stderr)
        return 2

    run = Run(args.seed, pins)
    activity, setup_s = workloads.timed_home(args.workload, run)
    import drbglab

    if Path(drbglab.__file__).resolve().parent != SRC / "drbglab":
        print(f"error: drbglab imported from {drbglab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(args.seed)}
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        metrics, overhead, tracer = run_traced(args.workload, run, activity)
        units = declared_units("per_layer")
        record["trace_overhead"] = overhead
        tracer.dump(f"{stem}_spans.json")
    else:
        metrics, record["samples"] = run_plain(args.workload, run, activity, setup_s, args.seconds)
        units = declared_units("end_to_end")
    record.update({
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_share": run.failed / max(run.attempted, 1),
        "failures": run.failures,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    for message in run.failures:
        print(f"failed: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
