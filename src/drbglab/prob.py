"""A small exact-probability monad for finite randomized computations.

A computation is a finite tree built from five node kinds:

- ``Return(value)`` — a finished computation;
- ``Sample(width, k)`` — draw a uniform integer in ``[0, 2**width)`` and
  continue with ``k(drawn)``;
- ``Query(input, k)`` — ask an oracle and continue with ``k(answer)``;
- ``Bind(comp, f)`` — run ``comp``, then continue with ``f(result)``;
- ``Flat(run)`` — a computation that can only be sampled:
  ``run(stream)`` draws what it needs from the trial's stream and
  returns the computation left over, so a sampled run continues from
  there on the same stream.

:func:`bind` is constant-time: it collapses ``bind(Return(v), f)`` to
``f(v)`` and otherwise builds one ``Bind`` node, without touching the
continuations inside ``comp``. A private normalizer walks ``Bind`` nodes
onto one persistent stack of pending continuations, so a step of a run
costs the same however deeply its binds are nested, and a long
left-nested chain needs no Python recursion (Voigtländer, "Asymptotic
Improvement of Computations over Free Monads", MPC 2008; van der Ploeg
and Kiselyov, "Reflection without Remorse", Haskell 2014).

Plain computations contain no ``Query`` nodes; oracle-bearing ones are
turned into plain ones by :func:`run_with_oracle`, which threads an
explicit oracle state through every query.

Two semantics are provided: :func:`exact_dist` enumerates every sample
path and returns exact rational probabilities (``fractions.Fraction``),
and :func:`sample` runs one pseudorandom path from a 64-bit seed using a
SplitMix64 stream, so Monte Carlo estimates are reproducible across
platforms and parallel schedules. Only :func:`sample` runs a ``Flat``
node; enumeration and :func:`run_with_oracle` refuse it.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from typing import Any


class EnumerationCapExceeded(Exception):
    """A sample path wanted more random bits than the enumeration cap."""


@dataclass(frozen=True)
class Return:
    value: Any


@dataclass(frozen=True)
class Sample:
    width: int
    k: Callable[[int], "Comp"]

    def __post_init__(self) -> None:
        if self.width < 1:
            raise ValueError(f"Sample width must be >= 1, got {self.width}")


@dataclass(frozen=True)
class Query:
    input: Any
    k: Callable[[Any], "Comp"]


@dataclass(frozen=True)
class Bind:
    comp: "Comp"
    f: Callable[[Any], "Comp"]


@dataclass(frozen=True)
class Flat:
    """A computation sampled by ``run(stream)``: run draws from the
    trial's :class:`_SplitMix64` and returns the computation to continue
    with (at the latest a ``Return``). It has no tree to enumerate, so
    :func:`exact_dist` and :func:`run_with_oracle` raise TypeError on it."""

    run: Callable[["_SplitMix64"], "Comp"]


Comp = Return | Sample | Query | Bind | Flat

_FLAT_ONLY_SAMPLED = "a Flat node can only be sampled"

# pending continuations, innermost first: None or (f, rest)
_Konts = tuple[Callable[[Any], Comp], "_Konts"] | None


def bind(comp: Comp, f: Callable[[Any], Comp]) -> Comp:
    """Sequence ``comp`` with ``f`` applied to its result (monadic bind)."""
    if isinstance(comp, Return):
        return f(comp.value)
    return Bind(comp, f)


def _head(c: Comp, ks: _Konts) -> tuple[Comp, _Konts]:
    """Normalize ``c`` under the continuations ``ks``: push every Bind's
    continuation and feed every Return to the innermost one, until a
    Sample, Query or Flat is at the head or a Return is left with none."""
    while True:
        if isinstance(c, Bind):
            ks = (c.f, ks)
            c = c.comp
        elif isinstance(c, Return) and ks is not None:
            f, ks = ks
            c = f(c.value)
        else:
            return c, ks


def mapc(comp: Comp, f: Callable[[Any], Any]) -> Comp:
    """Apply a pure function to the result of a computation."""
    return bind(comp, lambda x: Return(f(x)))


def sample_bits(width: int) -> Comp:
    """Uniform integer in ``[0, 2**width)`` as a computation."""
    return Sample(width, Return)


def query(input: Any) -> Comp:
    """Single oracle query returning the oracle's answer."""
    return Query(input, Return)


@dataclass(frozen=True)
class Oracle:
    """Stateful oracle: ``transition(state, input)`` is a computation of
    ``(answer, new_state)``."""

    transition: Callable[[Any, Any], Comp]
    initial_state: Any


def run_with_oracle(comp: Comp, oracle: Oracle) -> Comp:
    """Resolve every Query through ``oracle``, threading its state.

    Returns a plain computation of ``(result, final_oracle_state)``.
    """

    def go(c: Comp, ks: _Konts, state: Any) -> Comp:
        while True:
            c, ks = _head(c, ks)
            if isinstance(c, Flat):
                raise TypeError(_FLAT_ONLY_SAMPLED)
            if isinstance(c, Return):
                return Return((c.value, state))
            if isinstance(c, Sample):
                return Sample(c.width, lambda x, _c=c, _ks=ks, _s=state: go(_c.k(x), _ks, _s))
            trans = oracle.transition(state, c.input)
            if not isinstance(trans, Return):
                return Bind(trans, lambda r, _c=c, _ks=ks: go(_c.k(r[0]), _ks, r[1]))
            answer, state = trans.value  # deterministic: no node, no recursion
            c = c.k(answer)

    return go(comp, None, oracle.initial_state)


def truth(value: Any) -> bool:
    """A game's answer, which must be a bool. Enumeration and sampling
    read answers by this one rule: ``1 == True`` shares a dict key with
    True, but ``1 is True`` fails, so a lenient rule would make the two
    disagree."""
    if value is True or value is False:
        return value
    raise ValueError(f"a game's answer must be a bool, got {value!r}")


@dataclass(frozen=True)
class Distribution:
    """Finite map from outcomes to exact rational probabilities."""

    probs: tuple[tuple[Any, Fraction], ...]

    @staticmethod
    def from_dict(d: dict[Any, Fraction]) -> "Distribution":
        items = tuple(sorted(d.items(), key=lambda kv: repr(kv[0])))
        total = sum(p for (_, p) in items)
        if total != 1:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if any(p < 0 for (_, p) in items):
            raise ValueError("negative probability")
        return Distribution(items)

    def pr(self, value: Any) -> Fraction:
        for v, p in self.probs:
            if v == value:
                return p
        return Fraction(0)

    @property
    def pr_true(self) -> Fraction:
        """Mass on True — the quantity game lemmas compare. Every
        outcome must be a bool (see :func:`truth`)."""
        for v, _ in self.probs:
            truth(v)
        return self.pr(True)

    def support(self) -> list[Any]:
        return [v for (v, _) in self.probs]

    def items(self) -> Iterator[tuple[Any, Fraction]]:
        return iter(self.probs)

    def map(self, f: Callable[[Any], Any]) -> "Distribution":
        out: dict[Any, Fraction] = {}
        for v, p in self.probs:
            w = f(v)
            out[w] = out.get(w, Fraction(0)) + p
        return Distribution.from_dict(out)


DEFAULT_PATH_BITS = 24


def exact_dist(comp: Comp, max_path_bits: int = DEFAULT_PATH_BITS) -> Distribution:
    """Exact outcome distribution by full path enumeration.

    Every Sample(w) splits probability uniformly over its 2**w branches.
    A path that would consume more than ``max_path_bits`` random bits
    raises EnumerationCapExceeded (the enumeration would take ~2**bits
    steps, so the cap is a runtime guard as much as a semantic one).
    Outcome values must be hashable; use tuples, not dicts, for oracle
    states that end up in results.
    """
    acc: dict[Any, int] = {}  # masses over 2**max_path_bits
    # depth first, each Sample's branches built only when reached, so a
    # tree whose first path is over the cap fails at once; the branches
    # of one Sample share its continuation stack
    stack: list[tuple[Iterator[Comp], int, _Konts]] = [(iter((comp,)), 0, None)]
    while stack:
        branches, bits, ks = stack[-1]
        c = next(branches, None)
        if c is None:
            stack.pop()
            continue
        c, rest = _head(c, ks)
        if isinstance(c, Return):
            acc[c.value] = acc.get(c.value, 0) + (1 << (max_path_bits - bits))
        elif isinstance(c, Sample):
            if bits + c.width > max_path_bits:
                raise EnumerationCapExceeded(
                    f"path needs more than {max_path_bits} random bits"
                )
            stack.append((map(c.k, range(1 << c.width)), bits + c.width, rest))
        elif isinstance(c, Flat):
            raise TypeError(_FLAT_ONLY_SAMPLED)
        else:
            raise TypeError(
                "computation still contains Query nodes; "
                "apply run_with_oracle first"
            )
    total = 1 << max_path_bits
    return Distribution.from_dict({v: Fraction(m, total) for v, m in acc.items()})


def statistical_distance(a: Distribution, b: Distribution) -> Fraction:
    """Total variation distance, (1/2) sum |a(x) - b(x)|, exact."""
    support = {v for (v, _) in a.probs} | {v for (v, _) in b.probs}
    return sum((abs(a.pr(v) - b.pr(v)) for v in support), Fraction(0)) / 2


# ------------------------------------------------------------------ sampling

_SM64_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


class _SplitMix64:
    """Counter-based 64-bit stream; constants are the reference ones."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64
        self._buf = 0
        self._buf_bits = 0

    def next64(self) -> int:
        self.state = (self.state + _SM64_GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def bits(self, width: int) -> int:
        buf, have = self._buf, self._buf_bits
        while have < width:
            buf = (buf << 64) | self.next64()
            have += 64
        have -= width
        self._buf, self._buf_bits = buf & ((1 << have) - 1), have
        return buf >> have


def sample(comp: Comp, seed: int) -> Any:
    """Run one pseudorandom path, deterministic in ``seed``."""
    stream = _SplitMix64(seed)
    c, ks = _head(comp, None)
    while not isinstance(c, Return):
        if isinstance(c, Sample):
            c, ks = _head(c.k(stream.bits(c.width)), ks)
        elif isinstance(c, Flat):
            c, ks = _head(c.run(stream), ks)
        else:
            raise TypeError(
                "computation still contains Query nodes; "
                "apply run_with_oracle first"
            )
    return c.value


@dataclass(frozen=True)
class AdvantageEstimate:
    """Monte Carlo estimate of Pr[computation = True]: ``hits`` True
    outcomes in ``trials`` runs, with a confidence interval."""

    hits: int
    ci_low: float
    ci_high: float
    trials: int

    @property
    def estimate(self) -> float:
        return self.hits / self.trials

    def contains(self, p: float | Fraction) -> bool:
        return self.ci_low <= float(p) <= self.ci_high


MIN_TRIALS = 100


def _log_beta(a: int, b: int) -> float:
    """log B(a, b) for positive integers a and b."""
    a, b = sorted((a, b))
    if a <= 32:  # lgamma(b) - lgamma(a + b) as a sum, without cancellation
        return math.lgamma(a) - math.fsum(math.log(b + j) for j in range(a))
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _beta_cf(x: float, a: int, b: int) -> float:
    """Continued fraction for I_x(a, b), by Lentz's method."""
    h, c, d = 1.0, 1e300, 1.0
    for m in itertools.count():
        for num in (
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
            (m + 1) * (b - m - 1) * x / ((a + 2 * m + 1) * (a + 2 * m + 2)),
        ):
            d = 1.0 / (1.0 + num * d or 1e-300)
            c = 1.0 + num / c or 1e-300
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            return h


def _beta_ppf(p: float, a: int, b: int) -> float:
    """The x with I_x(a, b) = p: Newton steps on the regularized
    incomplete beta, kept inside a bisection bracket around the root."""
    log_beta = _log_beta(a, b)
    lo, hi, x = 0.0, 1.0, a / (a + b)
    for _ in range(200):
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
        if x < (a + 1) / (a + b + 2):
            cdf = front * _beta_cf(x, a, b) / a
        else:
            cdf = 1.0 - front * _beta_cf(1.0 - x, b, a) / b
        lo, hi = (x, hi) if cdf < p else (lo, x)
        pdf = front / (x * (1.0 - x))
        new = x - (cdf - p) / pdf if pdf > 0 else lo
        if not lo < new < hi:
            new = (lo + hi) / 2
        if abs(new - x) <= 1e-13 * new:
            return new
        x = new
    raise ArithmeticError(f"no beta quantile found for p={p}, a={a}, b={b}")


def clopper_pearson(hits: int, trials: int, confidence: float = 0.99) -> tuple[float, float]:
    """Two-sided Clopper-Pearson (exact binomial) interval for a
    success probability, from ``hits`` successes in ``trials``: the
    beta quantiles ``B(alpha/2; hits, trials-hits+1)`` and
    ``B(1-alpha/2; hits+1, trials-hits)``."""
    alpha = 1.0 - confidence
    low = 0.0 if hits == 0 else _beta_ppf(alpha / 2, hits, trials - hits + 1)
    high = 1.0 if hits == trials else _beta_ppf(1 - alpha / 2, hits + 1, trials - hits)
    return low, high


def estimate_pr_true(
    comp: Comp, trials: int, seed: int, confidence: float = 0.99
) -> AdvantageEstimate:
    """Frequency of True over ``trials`` runs with a Clopper-Pearson
    two-sided confidence interval (exact binomial). Every outcome must
    be a bool (see :func:`truth`).

    Per-trial seeds are ``seed + i``, so the result does not depend on
    how trials are scheduled.
    """
    if trials < MIN_TRIALS:
        raise ValueError(f"trials must be >= {MIN_TRIALS}, got {trials}")
    hits = sum(truth(sample(comp, seed + i)) for i in range(trials))
    low, high = clopper_pearson(hits, trials, confidence)
    return AdvantageEstimate(hits, low, high, trials)
