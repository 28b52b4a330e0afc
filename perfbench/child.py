"""The two child processes of a benchmark run.

    python3 perfbench/child.py setup <workload> <seed>
    python3 perfbench/child.py companions <workload> <seed>

``setup`` times the workload's set-up in a fresh interpreter and prints
the seconds at the reference speed, so that a run can report the median
of several cold set-ups.

``companions`` builds the companion share of every activity other than
``<workload>`` and prints ``{activity: steps}`` as one JSON line. It then
reads one activity name per line and answers ``ok`` once it has run one
step of that activity. At end of input it prints one JSON line with the
companions' metrics, samples and tally of checked operations. Running
the companions here keeps them out of the workload process, whose peak
RSS is then that of its own activity.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import WORKLOADS, Run  # noqa: E402


def load_pins() -> dict:
    with open(HERE / "pins.json", encoding="ascii") as fh:
        return json.load(fh)


def setup(workload: str, seed: int) -> None:
    print(repr(workloads.timed_home(workload, Run(seed, {}))[1]))


def companions(workload: str, seed: int) -> None:
    reply, sys.stdout = sys.stdout, sys.stderr  # stray prints must not reach the reply pipe
    run = Run(seed, load_pins())
    activities = {kind: workloads.companion(kind, run) for kind in WORKLOADS if kind != workload}
    print(json.dumps({kind: len(a) for kind, a in activities.items()}), file=reply, flush=True)
    for line in sys.stdin:
        activities[line.strip()].step()
        print("ok", file=reply, flush=True)
    metrics: dict[str, float] = {}
    for activity in activities.values():
        metrics.update(activity.metrics())
    print(json.dumps({
        "metrics": metrics,
        "samples": {kind: a.samples() for kind, a in activities.items()},
        "attempted": run.attempted,
        "failed": run.failed,
        "failures": run.failures,
    }), file=reply, flush=True)


if __name__ == "__main__":
    role, name, seed_text = sys.argv[1:]
    {"setup": setup, "companions": companions}[role](name, int(seed_text))
