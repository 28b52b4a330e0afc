"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workload drbg_stream --seeds 1-10 --seconds 10 \
        --output perfbench/results/drbg_stream.json

Runs ``run.py`` once per seed, one run at a time, and writes one JSON
file with the environment and, per metric, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over the median) and the sample count. It summarises the
same way the set-up time of each run's own process alone, read from the
run record in ``out/``, to compare with ``setup_s``, which adds the
fresh-interpreter probes. ``--workload`` may be repeated; omitted,
every workload runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh
                         if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
        "values": values,
    }


def collect(workload: str, seeds: list[int], seconds: float) -> dict:
    runs = []
    for seed in seeds:
        started = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-800:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - started
        with open(HERE / "out" / f"{workload}_seed{seed}_trace0.json", encoding="ascii") as fh:
            result["setup_samples_s"] = json.load(fh)["samples"]["setup_s"]
        runs.append(result)
        print(f"{workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} wall={result['wall_s']:.1f}s",
              file=sys.stderr)
    names = runs[0]["metrics"]
    return {
        # the run's own set-up alone, without the fresh-interpreter probes
        "setup_in_process_s": summarise([r["setup_samples_s"][0] for r in runs]),
        "setup_probes": [len(r["setup_samples_s"]) - 1 for r in runs],
        "seeds": seeds,
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "wall_s": [r["wall_s"] for r in runs],
        "metrics": {
            name: {"unit": names[name]["unit"],
                   **summarise([r["metrics"][name]["value"] for r in runs])}
            for name in names
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--output", required=True)
    args = parser.parse_args()
    report = {"environment": {**environment(seed=None), "cpu": cpu_model()},
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workload or WORKLOADS:
        report["workloads"][workload] = collect(workload, seeds_of(args.seeds), args.seconds)
        Path(args.output).parent.mkdir(parents=True, exist_ok=True)
        with open(args.output, "w", encoding="ascii") as fh:
            json.dump(report, fh, indent=1)
    for workload, data in report["workloads"].items():
        for name, m in data["metrics"].items():
            print(f"{workload:12s} {name:34s} median={m['median']:.6g} spread={m['spread']:.3f}")


if __name__ == "__main__":
    main()
