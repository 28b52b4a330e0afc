"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``drbglab`` modules at run
time, at every name a caller looks them up by: ``drbglab.drbg`` calls
``hmac_sha256`` through its own module global, so that global is wrapped
as well as ``drbglab.prf.hmac_sha256``. Nothing under ``src/`` changes.

Each call becomes one span: name, start and end (``perf_counter_ns``),
parent span and request id. Spans stay in flat in-memory arrays and are
written as one JSON file when the run ends. Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from typing import Any, Callable

GAMES = ("g_real", "g1_prg", "g_ideal", "gi_prg", "gi_prf", "gi_rf", "gi_rb")

# (span name, the places it is looked up: module or module:Class, attribute)
_FUNCTIONS: list[tuple[str, list[tuple[str, str]]]] = [
    ("prf.hmac_sha256", [("drbglab.prf", "hmac_sha256"), ("drbglab.drbg", "hmac_sha256"),
                         ("drbglab.cli", "hmac_sha256")]),
    ("prf.prf_small", [("drbglab.prf", "prf_small"), ("drbglab.games", "prf_small")]),
    ("drbg.instantiate", [("drbglab.drbg", "instantiate"), ("drbglab.cli", "instantiate")]),
    ("drbg.reseed", [("drbglab.drbg", "reseed")]),
    ("drbg.update", [("drbglab.drbg", "update")]),
    ("drbg.generate", [("drbglab.drbg", "generate"), ("drbglab.cli", "generate")]),
    ("drbg.generate_with_entropy", [("drbglab.drbg", "generate_with_entropy"),
                                    ("drbglab.cli", "generate_with_entropy")]),
    ("entropy.take", [("drbglab.entropy", "take"), ("drbglab.cli", "take")]),
    ("cavp.parse", [("drbglab.cavp", "parse")]),
    ("cavp.parse_path", [("drbglab.cavp", "parse_path")]),
    ("cavp.run_file", [("drbglab.cavp", "run_file")]),
    ("cavp.run_case", [("drbglab.cavp", "run_case")]),
    ("cli.main", [("drbglab.cli", "main")]),
    ("cli.cmd_cavp", [("drbglab.cli", "cmd_cavp")]),
    ("cli.cmd_selftest", [("drbglab.cli", "cmd_selftest")]),
    ("bounds.total_bound", [("drbglab.bounds", "total_bound"), ("drbglab.cli", "total_bound")]),
    ("bounds.prf_advantage_hmac", [("drbglab.bounds", "prf_advantage_hmac"),
                                   ("drbglab.cli", "prf_advantage_hmac")]),
    ("bounds.pr_collisions", [("drbglab.bounds", "pr_collisions"),
                              ("drbglab.games", "pr_collisions"),
                              ("drbglab.cli", "pr_collisions")]),
    ("bounds.format_rational", [("drbglab.bounds", "format_rational"),
                                ("drbglab.games", "format_rational"),
                                ("drbglab.cli", "format_rational")]),
    ("games.run_all_lemmas", [("drbglab.games", "run_all_lemmas"),
                              ("drbglab.cli", "run_all_lemmas")]),
    ("games.main_theorem_check", [("drbglab.games", "main_theorem_check"),
                                  ("drbglab.cli", "main_theorem_check")]),
    ("games.calibration_games", [("drbglab.games", "calibration_games")]),
    ("games.build_game", [("drbglab.games", "build_game")]),
    ("games.pr_bad", [("drbglab.games:GameEvaluator", "pr_bad")]),
    ("games.pr_joint_no_bad", [("drbglab.games:GameEvaluator", "pr_joint_no_bad")]),
    ("prob.exact_dist", [("drbglab.prob", "exact_dist"), ("drbglab.games", "exact_dist")]),
    ("prob.sample", [("drbglab.prob", "sample")]),
    ("prob.estimate_pr_true", [("drbglab.prob", "estimate_pr_true"),
                               ("drbglab.games", "estimate_pr_true")]),
]


def _resolve(path: str) -> Any:
    """``module`` or ``module:Class``; None when the module is not imported."""
    module, _, cls = path.partition(":")
    owner = sys.modules.get(module)
    return getattr(owner, cls, None) if owner is not None and cls else owner


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_of = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.request = -1
        self.counters: Counter[str] = Counter()
        self._patched: list[tuple[Any, str, Any]] = []
        self._seen_dists: set[tuple] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # ---------------------------------------------------------------- wrapping

    def _wrap(
        self,
        fn: Callable,
        name_of: Callable[[tuple], str] | str,
        before: Callable[[tuple], None] | None = None,
        after: Callable[[tuple, Any], None] | None = None,
    ) -> Callable:
        names, parents, requests = self.name, self.parent, self.request_of
        starts, ends, stack, clock = self.start, self.end, self.stack, time.perf_counter_ns
        fixed = self._id(name_of) if isinstance(name_of, str) else None
        tracer = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if before is not None:
                before(args)
            idx = len(names)
            names.append(fixed if fixed is not None else tracer._id(name_of(args)))
            parents.append(stack[-1] if stack else -1)
            requests.append(tracer.request)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every listed function whose module is already imported."""
        wrappers: dict[int, Callable] = {}
        after = {
            "entropy.take": lambda a, r: self.counters.update({"entropy.take.octets": a[1]}),
            "cavp.parse": lambda a, r: self.counters.update({"cavp.cases_parsed": r.case_total}),
            "cavp.run_file": lambda a, r: self.counters.update({"cavp.cases_skipped": r.skipped}),
        }
        for span, places in _FUNCTIONS:
            for owner_path, attr in places:
                owner = _resolve(owner_path)
                if owner is None or attr not in getattr(owner, "__dict__", {}):
                    continue
                original = owner.__dict__[attr]
                if id(original) not in wrappers:
                    wrappers[id(original)] = self._wrap(original, span, after=after.get(span))
                self._patch(owner, attr, wrappers[id(original)])
        games = sys.modules.get("drbglab.games")
        if games is not None:
            self._install_games(games)

    def _install_games(self, games: Any) -> None:
        """Memo-aware spans on the evaluator: per-game ``pr`` spans, memo
        hits counted before the call, and repeated oracle distributions."""
        evaluator = games.GameEvaluator
        counters = self.counters

        def pr_before(args: tuple) -> None:
            ev, game, i = args[0], args[1], (args[2] if len(args) > 2 else None)
            counters["games.memo.lookups"] += 1
            counters["games.memo.hits"] += (game, i) in getattr(ev, "_pr", {})

        self._patch(evaluator, "pr", self._wrap(
            evaluator.__dict__["pr"], lambda a: f"games.pr.{a[1]}", before=pr_before))

        if "_joint_dist" in evaluator.__dict__:
            def joint_before(args: tuple) -> None:
                counters["games.memo.lookups"] += 1
                counters["games.memo.hits"] += (args[1], args[2]) in getattr(args[0], "_joint", {})

            self._patch(evaluator, "_joint_dist",
                        self._wrap(evaluator.__dict__["_joint_dist"], "games.joint_dist",
                                   before=joint_before))

        fast = getattr(games, "_FastEval", None)
        if fast is not None and "gi_oracle_dist" in fast.__dict__:
            seen = self._seen_dists

            def dist_before(args: tuple) -> None:
                # keyed on the evaluator object itself: an id() could be reused
                key = (args[0], args[1], args[2])
                counters["games.oracle_dist.repeats"] += key in seen
                seen.add(key)

            self._patch(fast, "gi_oracle_dist",
                        self._wrap(fast.__dict__["gi_oracle_dist"], "games.oracle_dist",
                                   before=dist_before))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ---------------------------------------------------------------- analysis

    def totals(self) -> tuple[Counter[str], Counter[str], Counter[str]]:
        """Per span name: call count, inclusive ns and self ns."""
        n = len(self.name)
        dur = [self.end[k] - self.start[k] for k in range(n)]
        child = [0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += dur[k]
        calls: Counter[str] = Counter()
        incl: Counter[str] = Counter()
        self_ns: Counter[str] = Counter()
        for k in range(n):
            name = self.names[self.name[k]]
            calls[name] += 1
            incl[name] += dur[k]
            self_ns[name] += dur[k] - child[k]
        return calls, incl, self_ns

    def child_count(self, child: str, parent: str) -> int:
        """Spans named ``child`` whose direct parent is named ``parent``."""
        cid, pid = self._ids.get(child), self._ids.get(parent)
        if cid is None or pid is None:
            return 0
        return sum(
            1 for k in range(len(self.name))
            if self.name[k] == cid and self.parent[k] >= 0 and self.name[self.parent[k]] == pid
        )

    def layer_metrics(self, timed_ns: int) -> dict[str, float]:
        calls, incl, self_ns = self.totals()
        c = self.counters

        def per(total_ns: float, count: int, scale: float) -> float:
            return total_ns / count / scale if count else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        hmacs = calls["prf.hmac_sha256"]
        parsed = c["cavp.cases_parsed"]
        cli_self = sum(v for k, v in self_ns.items() if k.startswith("cli."))
        bounds_self = sum(v for k, v in self_ns.items() if k.startswith("bounds."))
        estimator_self = self_ns["prob.estimate_pr_true"]
        m = {
            "prf.hmac_sha256.calls": hmacs,
            "prf.hmac_sha256.us_per_call": per(incl["prf.hmac_sha256"], hmacs, 1e3),
            "prf.hmac_sha256.share": ratio(self_ns["prf.hmac_sha256"], timed_ns),
            "prf.prf_small.calls": calls["prf.prf_small"],
            "prf.prf_small.cache_hit_ratio": 1 - ratio(
                self.child_count("prf.hmac_sha256", "prf.prf_small"), calls["prf.prf_small"]
            ) if calls["prf.prf_small"] else 0.0,
            "drbg.generate.calls": calls["drbg.generate"],
            "drbg.generate.self_us_per_call": per(self_ns["drbg.generate"], calls["drbg.generate"], 1e3),
            "drbg.update.calls": calls["drbg.update"],
            "drbg.update.self_us_per_call": per(self_ns["drbg.update"], calls["drbg.update"], 1e3),
            "drbg.chain_hmac_ratio": ratio(self.child_count("prf.hmac_sha256", "drbg.generate"), hmacs),
            "drbg.reseed.calls": calls["drbg.reseed"],
            "entropy.take.calls": calls["entropy.take"],
            "entropy.take.octets": c["entropy.take.octets"],
            "entropy.take.us_per_call": per(incl["entropy.take"], calls["entropy.take"], 1e3),
            "cavp.parse.ms_per_file": per(incl["cavp.parse"], calls["cavp.parse"], 1e6),
            "cavp.run_case.us_per_case": per(incl["cavp.run_case"], calls["cavp.run_case"], 1e3),
            "cavp.cases_run": calls["cavp.run_case"],
            "cavp.cases_skipped": c["cavp.cases_skipped"],
            "cavp.run_ratio": ratio(calls["cavp.run_case"], parsed),
            "cli.main.self_ms": per(cli_self, calls["cli.main"], 1e6),
            "bounds.self_ms": bounds_self / 1e6,
        }
        for game in GAMES:
            m[f"games.pr.ms.{game}"] = incl[f"games.pr.{game}"] / 1e6
        m.update({
            "games.pr_bad.ms": incl["games.pr_bad"] / 1e6,
            "games.pr_joint_no_bad.ms": incl["games.pr_joint_no_bad"] / 1e6,
            "games.memo_hit_ratio": ratio(c["games.memo.hits"], c["games.memo.lookups"]),
            "games.oracle_dist.calls": calls["games.oracle_dist"],
            "games.oracle_dist.repeats": c["games.oracle_dist.repeats"],
            "games.build_game.ms": incl["games.build_game"] / 1e6,
            "prob.exact_dist.ms_per_game": per(incl["prob.exact_dist"], calls["prob.exact_dist"], 1e6),
            "prob.sample.us_per_trial": per(incl["prob.sample"], calls["prob.sample"], 1e3),
            "prob.estimate_pr_true.calls": calls["prob.estimate_pr_true"],
            "prob.estimate_pr_true.self_ms_per_call": per(
                estimator_self, calls["prob.estimate_pr_true"], 1e6),
            "trace.spans": len(self.name),
        })
        return m

    def dump(self, path: str) -> None:
        data = {
            "clock": "perf_counter_ns",
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request_of.tolist(),
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(data, fh, separators=(",", ":"))
