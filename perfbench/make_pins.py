"""Regenerate ``pins.json``: the exact values the benchmark's oracles
compare against.

    python3 perfbench/make_pins.py

Pins the (lemma, i, relation, lhs, rhs) record of every check at every
lemma-grid point, and the Monte Carlo hit counts at the default seed of
the first home repetition and of every companion repetition. Regenerate only when a
change is meant to alter these values, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from workloads import DEFAULT_SEED, GRID, WIDE_SUITES, Run, lemma_record, point_key  # noqa: E402


def main() -> None:
    from drbglab import games

    lemma = {}
    for point in GRID:
        workloads.clear_prf_cache()
        lemma[point_key(point)] = [lemma_record(c) for c in workloads.lemma_checks(games, point)]
    monte_carlo = {}
    home = workloads.home("monte_carlo", Run(DEFAULT_SEED, {}))
    companion = workloads.companion("monte_carlo", Run(DEFAULT_SEED, {}))
    for activity, units in ((home, 1 + WIDE_SUITES), (companion, len(companion))):
        for _ in range(units):
            activity.step()
        for rep, hits in activity.hits.items():
            monte_carlo[activity.pin_key(rep)] = hits
    with open(HERE / "pins.json", "w", encoding="ascii") as fh:
        json.dump({"lemma_grid": lemma, "monte_carlo": monte_carlo}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
