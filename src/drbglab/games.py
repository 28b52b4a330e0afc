"""Executable security games for the block-level generator.

The generator's pseudorandomness argument is a hybrid argument: the real
experiment (adversary sees PRF-driven output) is connected to the ideal
one (adversary sees uniform bits) through a family of hybrid games, and
adjacent hybrids are compared by swapping a PRF oracle for a random
function and then for a random-bits oracle, with a "bad event"
(duplicate oracle inputs) controlling the last gap. This module builds
every one of those games as a finite probabilistic computation
(:mod:`.prob`) over ``eta``-bit blocks and checks the bridging lemmas as
*exact rational* distribution equalities at small ``eta``, falling back
to Monte Carlo estimation when exact evaluation is infeasible. Each
check is declared once, as a row of ``LEMMA_TABLE``: its name, kind,
hybrid index range and instance at one index.

The games differ only in how each generate call is served, so a game is
its name and one shape per call (:func:`_call_shapes`): 'ideal', 'spec',
'nov', 'v', or the oracle call 'prf', 'rf' or 'rb'. Over the paper's
games: ``G_real`` is 'spec' at every call, ``G1_prg`` 'nov' then 'v',
and ``Gi_prg`` i 'ideal' calls then ``G1_prg``'s shapes (``g_ideal`` is
all 'ideal' on no state). PRF_Adversary at i makes call i of that list
the oracle call, which ``Gi_prf``, ``Gi_rf`` and ``Gi_rb`` serve by the
PRF on a fresh key, a random function and random bits. One interpreter,
:func:`faithful`, turns any shape list into the game's computation
tree, the specification, and
:func:`~drbglab.prob.exact_dist` enumerates it as the reference. The one
exact path, the factored evaluator (:mod:`.factored`), writes each game
once as a list of steps (draw an eta-bit block, run one deterministic
generate call, answer one oracle query) and propagates them forward over
merged integer states (adversary fold, k, v, bad, oracle trace). Each
draw is moved to its first read, and a sample nothing reads is not
drawn, so it marginalizes out. A backward liveness pass over the step
list finds the slots that no later step reads, and each step empties
them before its states merge; the step before the oracle's last query
also empties every entry of the oracle trace but the one that query
reads. So states that differ only there are lumped. Every mass is a
Python int over an implicit ``2^bits`` denominator until the game ends.
Tests pin it to the reference on every game family. A list with no
generate call (``g_ideal``, and ``gi_rf``/``gi_rb`` at the last index)
only compares block values, so under a fold with a symmetric form it
runs over labelled states: states that differ by a relabelling of the
block values that keeps the fold's colours are lumped, each live value
renumbered to the lowest of its class (symmetry reduction with
scalarsets: Ip & Dill, FMSD 1996; Kwiatkowska, Norman & Parker, CAV
2006). Tests pin it to the concrete interpreter on every such list.

The evaluator reads every probability off one exact ``(answer, bad)``
joint per game when the adversary's fold state bound fits a budget, and
estimates it by Monte Carlo otherwise. Monte Carlo runs the same step
list as it stands (``factored.sampler``): int blocks, ``prf_int`` as the
only PRF, the adversary folded as the factored evaluator folds it, and
every block drawn in the faithful tree's order, so each seed gives the
faithful tree's outcome. Tests pin it trial by trial to the faithful
trees. Both interpreters call ``prf_int``, which for the default PRF is
``prf.prf_small_int``: the LRU behind ``prf_small`` is the only cache of
single PRF calls. Each generate step of a list keeps its own table of
whole calls by (k, v) (``factored.generate``), for every interpreter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .bounds import format_rational, pr_collisions
from .factored import Symmetry, propagate, sampler
from .prf import ZERO_OCTET, Block, prf_small, prf_small_int
from .prob import (
    MIN_TRIALS,
    AdvantageEstimate,
    Comp,
    EnumerationCapExceeded,
    Oracle,
    Return,
    bind,
    clopper_pearson,
    estimate_pr_true,
    exact_dist,  # unused here; the monte_carlo benchmark laps calibration on this name
    mapc,
    query,
    run_with_oracle,
    sample_bits,
)

class KV(NamedTuple):
    """Generator working state: key block and chaining block."""

    k: Block
    v: Block


# --------------------------------------------------------------- adversaries
#
# An adversary is a callable from the full output (list of per-call lists
# of Blocks) to a Comp of bool. Both interpreters of the call shapes,
# the factored evaluator and the lean sampler, fold it block by block
# through one protocol: initial() is the empty fold, absorb(state, value,
# eta) takes one output block's int value, answer(state) is the Comp of
# bool the adversary returns on that output, and state_bound(eta,
# total_blocks) bounds the distinct states, for the factored evaluator's
# admission rule. symmetric(eta) is the fold's form under relabelling of
# block values (a factored.Symmetry), or None when the fold may read a
# value beyond equality and colour: collision and constant have one
# colour class, and first-bit colours values by their top bit until its
# state is set. answer's own coins are drawn after every output, as in
# the faithful trees. The built-in adversaries fold into a few states and
# answer with a Return; HybridParams wraps any other callable in a
# _TranscriptFold.


@dataclass(frozen=True)
class ConstantAdversary:
    result: bool

    def __call__(self, outputs: list[list[Block]]) -> Comp:
        return Return(self.result)

    def initial(self) -> Any:
        return None

    def absorb(self, state: Any, value: int, eta: int) -> Any:
        return None

    def answer(self, state: Any) -> Comp:
        return Return(self.result)

    def state_bound(self, eta: int, total_blocks: int) -> int:
        return 1

    def symmetric(self, eta: int) -> Symmetry:
        one = (0, 1 << eta)
        return Symmetry(lambda state: one)


@dataclass(frozen=True)
class FirstBitAdversary:
    """True iff the first bit (MSB) of the very first block is 1."""

    def __call__(self, outputs: list[list[Block]]) -> Comp:
        for sub in outputs:
            if sub:
                return Return(sub[0].value >> (sub[0].eta - 1) == 1)
        return Return(False)

    def initial(self) -> Any:
        return None

    def absorb(self, state: Any, value: int, eta: int) -> Any:
        if state is None:
            return (value >> (eta - 1)) & 1
        return state

    def answer(self, state: Any) -> Comp:
        return Return(state == 1)

    def state_bound(self, eta: int, total_blocks: int) -> int:
        return 3

    def symmetric(self, eta: int) -> Symmetry:
        # the top bit colours a value until the first block sets the state
        by_bit, one = (0, 1 << (eta - 1), 1 << eta), (0, 1 << eta)
        return Symmetry(lambda state: by_bit if state is None else one)


_DUP = "dup"  # absorbing fold state once a repeated block is seen


@dataclass(frozen=True)
class CollisionAdversary:
    """True iff any two output blocks (anywhere in the run) are equal.

    At small eta this is a strong distinguisher: the real game's chained
    PRF values collide with different statistics than uniform blocks.
    """

    def __call__(self, outputs: list[list[Block]]) -> Comp:
        seen: set[Block] = set()
        for sub in outputs:
            for block in sub:
                if block in seen:
                    return Return(True)
                seen.add(block)
        return Return(False)

    def initial(self) -> Any:
        return frozenset()

    def absorb(self, state: Any, value: int, eta: int) -> Any:
        if state == _DUP or value in state:
            return _DUP
        return state | {value}

    def answer(self, state: Any) -> Comp:
        return Return(state == _DUP)

    def state_bound(self, eta: int, total_blocks: int) -> int:
        space = 1 << eta
        if space > 64:
            return 1 << 62  # effectively "do not use the factored path"
        total = 1
        for k in range(1, min(total_blocks, space) + 1):
            total += math.comb(space, k)
        return total + 1

    def symmetric(self, eta: int) -> Symmetry:
        one = (0, 1 << eta)
        return Symmetry(
            lambda state: one,
            lambda state: () if state == _DUP else state,
            lambda state, label: state if state == _DUP else frozenset(label[x] for x in state),
        )


def constant(result: bool) -> ConstantAdversary:
    return ConstantAdversary(result)


first_bit = FirstBitAdversary()
collision_detector = CollisionAdversary()

_FOLD_PROTOCOL = ("initial", "absorb", "answer", "state_bound", "symmetric")


@dataclass(frozen=True)
class _TranscriptFold:
    """The fold of a plain callable adversary: its state is the tuple of
    absorbed block values. answer regroups them into per-call Blocks and
    runs the adversary on them, so its own coins come last, as in the
    faithful tree; the factored evaluator enumerates them with
    ``exact_dist``, so a path may use at most that function's default 24
    random bits. Calling the fold calls the adversary, so the faithful
    trees are unchanged."""

    adversary: Callable[[list[list[Block]]], Comp]
    eta: int
    blocks_per_call: int

    def __call__(self, outputs: list[list[Block]]) -> Comp:
        return self.adversary(outputs)

    def initial(self) -> Any:
        return ()

    def absorb(self, state: Any, value: int, eta: int) -> Any:
        return state + (value,)

    def answer(self, state: Any) -> Comp:
        n = self.blocks_per_call
        outputs = [[Block(self.eta, x) for x in state[c : c + n]] for c in range(0, len(state), n)]
        return self.adversary(outputs)

    def state_bound(self, eta: int, total_blocks: int) -> int:
        return 1 << (eta * total_blocks)  # every full transcript

    def symmetric(self, eta: int) -> None:
        return None  # a plain callable may read a value in any way


# ----------------------------------------------------------------- parameters


class HybridParams:
    """Shared parameters of the game family.

    eta: block width in bits; num_calls: generate calls in a run;
    blocks_per_call: blocks per generate call; prf: (Block, Block) ->
    Block, key then input, defaulting to ``prf_small``; adversary: any
    callable from full output to Comp of bool, wrapped in a
    ``_TranscriptFold`` unless it has the fold protocol.

    ``prf_int(key, kind, value)`` is the same PRF over int blocks, the
    step list's only PRF: kind 'c' is a chain input (eta bits), kind 'r'
    a rekey input (eta bits + the zero octet). For the default it is
    ``prf_small_int``, which keeps no cache of its own.
    """

    def __init__(
        self,
        eta: int,
        num_calls: int,
        blocks_per_call: int,
        prf: Callable[[Block, Block], Block] | None = None,
        adversary: Any = None,
    ) -> None:
        if not 1 <= eta <= 256:
            raise ValueError(f"eta must be in 1..256, got {eta}")
        if num_calls < 1 or blocks_per_call < 1:
            raise ValueError("num_calls and blocks_per_call must be >= 1")
        self.eta = eta
        self.num_calls = num_calls
        self.blocks_per_call = blocks_per_call
        if prf is None:
            self.prf, self.prf_int = prf_small, prf_small_int(eta)
        else:
            self.prf, self.prf_int = prf, self._block_prf_int
        adversary = adversary if adversary is not None else collision_detector
        if not all(hasattr(adversary, name) for name in _FOLD_PROTOCOL):
            adversary = _TranscriptFold(adversary, eta, blocks_per_call)
        self.adversary = adversary

    def block(self, value: int) -> Block:
        return Block(self.eta, value)

    def _block_prf_int(self, key: int, kind: str, value: int) -> int:
        x = self.block(value)
        if kind == "r":
            x = x + ZERO_OCTET
        return self.prf(self.block(key), x).value


def _sample_block(p: HybridParams) -> Comp:
    return mapc(sample_bits(p.eta), lambda x: Block(p.eta, x))


# ------------------------------------------------------ generator, block level


def gen_loop(p: HybridParams, k: Block, v: Block, n: int) -> tuple[list[Block], Block]:
    """The output chain: n applications of f_k, each block feeding the
    next; returns the blocks and the final chaining value (v when n=0)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    blocks: list[Block] = []
    cur = v
    for _ in range(n):
        cur = p.prf(k, cur)
        blocks.append(cur)
    return blocks, cur


def generate_spec(p: HybridParams, state: KV, n: int) -> Comp:
    """One full generate call: chain, rekey with the zero-octet pad,
    then the final v update. Deterministic, so a point-mass Comp."""
    blocks, v_last = gen_loop(p, state.k, state.v, n)
    k2 = p.prf(state.k, v_last + ZERO_OCTET)
    v2 = p.prf(k2, v_last)
    return Return((blocks, KV(k2, v2)))


def generate_noV(p: HybridParams, state: KV, n: int) -> Comp:
    """Generate without the trailing v update: the last chain block
    stays as the new v."""
    blocks, v_last = gen_loop(p, state.k, state.v, n)
    k2 = p.prf(state.k, v_last + ZERO_OCTET)
    return Return((blocks, KV(k2, v_last)))


def generate_v(p: HybridParams, state: KV, n: int) -> Comp:
    """Generate with the v update moved to the front: update v first,
    chain from the updated value, rekey, and keep the last chain block
    as the new v."""
    v1 = p.prf(state.k, state.v)
    blocks, v_last = gen_loop(p, state.k, v1, n)
    k2 = p.prf(state.k, v_last + ZERO_OCTET)
    return Return((blocks, KV(k2, v_last)))


def generate_rb(p: HybridParams, n: int) -> Comp:
    """n independent uniform blocks — the ideal generate call."""

    def go(remaining: int, acc: tuple[Block, ...]) -> Comp:
        if remaining == 0:
            return Return(list(acc))
        return bind(_sample_block(p), lambda b: go(remaining - 1, acc + (b,)))

    return go(n, ())


def generate_rb_intermediate(p: HybridParams, state: KV, n: int) -> Comp:
    """Ideal generate inside a hybrid: fresh uniform output blocks, key
    left untouched, and the chaining value replaced by the last output
    block (by a fresh uniform block when n = 0).

    Keeping the key and chaining the last block is load-bearing: hybrid
    i+1 must equal the random-bits-oracle game at index i, whose rekey
    answer plays the untouched-key role and whose last chain answer is
    exactly the last visible block. Resampling (k, v) fresh here would
    break that equality for PRFs with visible structure.
    """
    if n == 0:
        return mapc(_sample_block(p), lambda b: ([], KV(state.k, b)))
    return mapc(generate_rb(p, n), lambda bs: (bs, KV(state.k, bs[-1])))


def instantiate_spec(p: HybridParams) -> Comp:
    """Idealized instantiate: independent uniform key and chaining block."""
    return bind(
        _sample_block(p),
        lambda k: mapc(_sample_block(p), lambda v: KV(k, v)),
    )


def _play(p: HybridParams, step: Callable[[int, Any, int], Comp], start: Comp) -> Comp:
    """The play loop of every game: draw the initial state from start,
    serve each generate call of the run with step(call, state, n) -> Comp
    of (blocks, state'), and hand all output blocks to the adversary.
    :func:`faithful` gives the step of a shape list."""
    n = p.blocks_per_call

    def go(call: int, state: Any, outs: tuple) -> Comp:
        if call == p.num_calls:
            return p.adversary([list(sub) for sub in outs])
        return bind(step(call, state, n), lambda out: go(call + 1, out[1], outs + (out[0],)))

    return bind(start, lambda state: go(0, state, ()))


# ------------------------------------------------------------------- oracles
#
# Oracle state is the query trace: a tuple of (input Block, answer
# Block) pairs, in query order. Every oracle records every query —
# including repeats — so the bad event (a duplicate input) can be read
# off the final trace.


def f_oracle(p: HybridParams, k: Block) -> Oracle:
    """The PRF with a fixed key, wrapped as a (deterministic) oracle."""

    def transition(trace: tuple, inp: Block) -> Comp:
        ans = p.prf(k, inp)
        return Return((ans, trace + ((inp, ans),)))

    return Oracle(transition, ())


def random_func(p: HybridParams) -> Oracle:
    """Lazily sampled random function: fresh uniform block on a new
    input, the cached block on a repeated one. Repeats are still
    recorded in the trace."""

    def transition(trace: tuple, inp: Block) -> Comp:
        for past_inp, past_ans in trace:
            if past_inp == inp:
                return Return((past_ans, trace + ((inp, past_ans),)))
        return mapc(_sample_block(p), lambda b: (b, trace + ((inp, b),)))

    return Oracle(transition, ())


def rb_oracle(p: HybridParams) -> Oracle:
    """Random-bits oracle: fresh uniform block on every query, caching
    nothing."""

    def transition(trace: tuple, inp: Block) -> Comp:
        return mapc(_sample_block(p), lambda b: (b, trace + ((inp, b),)))

    return Oracle(transition, ())


def _trace_has_duplicate_input(trace: tuple) -> bool:
    inputs = [inp for (inp, _) in trace]
    return len(set(inputs)) < len(inputs)


# ------------------------------------------------------------- the oracle call


def _generate_oc(p: HybridParams, state: KV, n: int, nov: bool) -> Comp:
    """Oracle-routed generate call: every PRF application becomes a
    Query. Shapes mirror generate_noV / generate_v; the rekey query
    carries the zero-octet pad, so its input length differs from every
    chain input and cannot duplicate one."""

    def chain(cur: Block, remaining: int, acc: tuple[Block, ...]) -> Comp:
        if remaining == 0:
            return bind(
                query(cur + ZERO_OCTET),
                lambda k2: Return((list(acc), KV(k2, cur))),
            )
        return bind(query(cur), lambda b: chain(b, remaining - 1, acc + (b,)))

    if nov:
        return chain(state.v, n, ())
    return bind(query(state.v), lambda v1: chain(v1, n, ()))


# ---------------------------------------------------------------- call shapes
#
# A game is its name and the shapes of its generate calls. Two
# interpreters read the shapes: faithful builds the game's computation
# tree, the specification, and factored.steps its step list, which the
# factored evaluator propagates and Monte Carlo samples.


def _call_shapes(p: HybridParams, game: str, i: int | None) -> list[str]:
    """One shape per generate call: 'ideal', 'spec', 'nov', 'v', or the
    oracle mode 'prf'/'rf'/'rb' for call i of an oracle-swapped game.
    Raises ValueError on a (game, i) pair that names no game: an index
    on g_real, g1_prg or g_ideal, or a hybrid index out of range."""
    nc = p.num_calls
    if game in ("g_real", "g1_prg", "g_ideal"):
        if i is not None:
            raise ValueError(f"game {game!r} takes no index, got i={i}")
        if game == "g_real":
            return ["spec"] * nc
        i = 0 if game == "g1_prg" else nc
    elif game in ("gi_prg", "gi_prf", "gi_rf", "gi_rb"):
        last = nc - (game in ("gi_rf", "gi_rb"))  # rf and rb need a call i to serve
        if i is None or not 0 <= i <= last:
            raise ValueError(f"i must be in 0..{last} for {game!r}, got {i}")
    else:
        raise ValueError(f"unknown game {game!r}")
    shapes = ["ideal" if c < i else "nov" if c == 0 else "v" for c in range(nc)]
    if game in ("gi_prf", "gi_rf", "gi_rb") and i < nc:
        shapes[i] = game[3:]
    return shapes


def faithful(p: HybridParams, game: str, shapes: list[str], with_bad: bool = False) -> Comp:
    """The faithful computation tree of the game whose generate calls
    have these shapes: the adversary's result, or ``(result, bad)``
    with_bad. A call runs the primitive its shape names: 'ideal'
    generate_rb_intermediate (generate_rb on no state); 'spec', 'nov'
    and 'v' generate_spec, generate_noV and generate_v; an oracle call
    _generate_oc, with no leading v update at call 0. The name picks the
    rest: g_ideal draws no instantiate, and gi_prf (its oracle's key
    first, even when no call queries it), gi_rf and gi_rb serve queries
    by f_oracle, random_func and rb_oracle. bad is a repeated input in an
    rf or rb trace. Each primitive is looked up when its call runs."""

    def step(call: int, kv: KV | None, n: int) -> Comp:
        shape = shapes[call]
        if shape == "ideal":
            if kv is None:
                return mapc(generate_rb(p, n), lambda bs: (bs, None))
            return generate_rb_intermediate(p, kv, n)
        if shape in ("prf", "rf", "rb"):
            return _generate_oc(p, kv, n, nov=(call == 0))
        return {"spec": generate_spec, "nov": generate_noV, "v": generate_v}[shape](p, kv, n)

    tree = _play(p, step, Return(None) if game == "g_ideal" else instantiate_spec(p))

    def result(rs: tuple) -> Any:  # (answer, oracle trace)
        if not with_bad:
            return rs[0]
        return rs[0], game != "gi_prf" and _trace_has_duplicate_input(rs[1])

    if game == "gi_prf":
        return bind(
            _sample_block(p), lambda kstar: mapc(run_with_oracle(tree, f_oracle(p, kstar)), result)
        )
    if game in ("gi_rf", "gi_rb"):
        oracle = random_func(p) if game == "gi_rf" else rb_oracle(p)
        return mapc(run_with_oracle(tree, oracle), result)
    return mapc(tree, lambda answer: (answer, False)) if with_bad else tree


def build_game(p: HybridParams, game: str, i: int | None = None, with_bad: bool = False) -> Comp:
    """The faithful computation tree for a named game, at the (game, i)
    pairs the evaluator takes: no index on g_real, g1_prg and g_ideal,
    one in range on the hybrids."""
    return faithful(p, game, _call_shapes(p, game, i), with_bad)


def _lean(p: HybridParams, game: str, i: int | None, with_bad: bool = False) -> Comp:
    """The lean computation Monte Carlo samples: the game's result, or
    ``(result, bad)`` with_bad. It is a ``prob.Flat``, so it can only be
    sampled."""
    return sampler(p, game, _call_shapes(p, game, i), with_bad)


# ------------------------------------------------------------ value intervals
#
# Exact values and Monte Carlo estimates flow through the same interval
# algebra: an exact Fraction is a zero-width interval, an estimate is
# its confidence interval. Equality checks become interval overlap,
# inequalities compare the favourable endpoints, and |a - b| / sums /
# scalings propagate endpoints, so one code path serves both modes.


@dataclass(frozen=True)
class Iv:
    lo: Any
    mid: Any
    hi: Any
    exact: bool

    @staticmethod
    def of_fraction(value: Fraction) -> "Iv":
        return Iv(value, value, value, True)

    @staticmethod
    def of_estimate(est: AdvantageEstimate) -> "Iv":
        return Iv(est.ci_low, est.estimate, est.ci_high, False)

    def __str__(self) -> str:
        if self.exact:
            return format_rational(self.mid)
        return f"~{float(self.mid):.5f} ci[{float(self.lo):.5f}, {float(self.hi):.5f}]"


def iv_absdiff(a: Iv, b: Iv) -> Iv:
    lo = max(a.lo - b.hi, b.lo - a.hi, 0 * a.lo)
    hi = max(a.hi - b.lo, b.hi - a.lo)
    return Iv(lo, abs(a.mid - b.mid), max(hi, 0 * hi), a.exact and b.exact)


def iv_add(a: Iv, b: Iv) -> Iv:
    return Iv(a.lo + b.lo, a.mid + b.mid, a.hi + b.hi, a.exact and b.exact)


def iv_scale(n: int, a: Iv) -> Iv:
    return Iv(n * a.lo, n * a.mid, n * a.hi, a.exact)


def iv_equal(a: Iv, b: Iv) -> bool:
    if a.exact and b.exact:
        return a.mid == b.mid
    return a.lo <= b.hi and b.lo <= a.hi


def iv_leq(a: Iv, b: Iv) -> bool:
    if a.exact and b.exact:
        return a.mid <= b.mid
    return a.lo <= b.hi


# ------------------------------------------------------------- the evaluator


DEFAULT_TRIALS = 100_000
DEFAULT_SEED = 0x5EED
DEFAULT_FAST_OPS_CAP = 2_000_000


class GameEvaluator:
    """Computes game probabilities, picking the cheapest sound method.

    Every query reads one memoized exact ``(answer, bad)`` joint per game
    (``bad`` is False outside the oracle games). The factored evaluator
    computes it whenever the adversary's fold has ``state_bound *
    2^(2*eta)`` within ``DEFAULT_FAST_OPS_CAP``: every game is one step
    list (draw an eta-bit block, run a deterministic generate call,
    answer an oracle query) propagated forward over merged integer
    states, with each draw moved to its first read, the slots no later
    step reads emptied, the oracle trace narrowed to the one entry its
    last query reads, and masses kept as ints over a ``2^bits``
    denominator until the game ends. Each generate call keeps a table
    from (k, v) to its outputs and new (k, v), so a pair pays for its
    PRF calls once, and a draw-only step runs as one transition with
    the generate call after it that reads the drawn slot. A list with
    no generate call, under
    a fold with a symmetric form, runs over labelled states, which lump
    states that differ by a relabelling of block values (Ip & Dill, FMSD
    1996; Kwiatkowska, Norman & Parker, CAV 2006); the admission rule is
    the same for both. Past the budget, or once the
    adversary's own coins outgrow what ``exact_dist`` enumerates, every
    value whose joint is not already held is a Monte Carlo estimate with
    Clopper-Pearson intervals,
    sampled from the game's lean computation (``factored.sampler``),
    which runs the same step list.
    Results are memoized per evaluator, so a lemma suite shares work
    across checks.
    """

    def __init__(
        self, p: HybridParams, trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED
    ) -> None:
        if trials < MIN_TRIALS:
            raise ValueError(f"trials must be >= {MIN_TRIALS}, got {trials}")
        self.p = p
        self.trials = trials
        self.seed = seed
        self._pr: dict[tuple, Iv] = {}
        self._joint: dict[tuple[str, ...], dict[tuple[bool, bool], Fraction]] = {}
        self._cells: dict[tuple, dict[tuple[bool, bool], AdvantageEstimate]] = {}
        self._factored = (
            p.adversary.state_bound(p.eta, p.num_calls * p.blocks_per_call) << (2 * p.eta)
            <= DEFAULT_FAST_OPS_CAP
        )

    def _exact(self, game: str, i: int | None) -> dict[tuple[bool, bool], Fraction] | None:
        """The exact (answer, bad) joint of a game, or None when the
        factored evaluator does not admit the adversary. Joints are
        memoized by shape list, which games with equal shapes share
        (g_ideal, gi_prg(nc) and gi_prf(nc); g1_prg and gi_prg(0)): their
        step lists differ only in instantiate draws that nothing reads. An
        adversary whose own coins cannot be enumerated puts the evaluator
        past its budget, like one the admission rule turns away; a joint
        computed before that is still read."""
        shapes = _call_shapes(self.p, game, i)
        key = tuple(shapes)
        if key not in self._joint:
            if not self._factored:
                return None
            try:
                self._joint[key] = propagate(self.p, game, shapes)
            except EnumerationCapExceeded:
                self._factored = False
                return None
        return self._joint[key]

    def _estimates(self, game: str, i: int) -> dict[tuple[bool, bool], AdvantageEstimate]:
        """Monte Carlo estimates of the four (answer, bad) cells of an
        oracle game, each replaying the same seeded trials."""
        key = (game, i)
        if key not in self._cells:
            comp = _lean(self.p, game, i, with_bad=True)
            self._cells[key] = {
                o: estimate_pr_true(mapc(comp, lambda x, _o=o: x == _o), self.trials, self.seed)
                for o in ((True, True), (True, False), (False, True), (False, False))
            }
        return self._cells[key]

    # -- Pr[game outputs True]

    def pr(self, game: str, i: int | None = None) -> Iv:
        key = (game, i)
        if key not in self._pr:
            joint = self._exact(game, i)
            if joint is None:
                comp = _lean(self.p, game, i)
                value = Iv.of_estimate(estimate_pr_true(comp, self.trials, self.seed))
            else:
                value = Iv.of_fraction(sum((pr for (a, _), pr in joint.items() if a), Fraction(0)))
            self._pr[key] = value
        return self._pr[key]

    # -- the bad event and the joint (answer, no-bad) masses

    @staticmethod
    def _oracle_game(oracle: str) -> str:
        """The oracle game of rf or rb, the two oracles with a bad event."""
        if oracle not in ("rf", "rb"):
            raise ValueError(f"oracle must be 'rf' or 'rb', got {oracle!r}")
        return f"gi_{oracle}"

    def pr_bad(self, oracle: str, i: int) -> Iv:
        game = self._oracle_game(oracle)
        joint = self._exact(game, i)
        if joint is not None:
            return Iv.of_fraction(sum((pr for (_, bad), pr in joint.items() if bad), Fraction(0)))
        # both estimates replay the same seeded trials, so their hits add
        # up to the bad-event count: one interval for the pooled count
        cells = self._estimates(game, i)
        true_bad, false_bad = cells[(True, True)], cells[(False, True)]
        hits, trials = true_bad.hits + false_bad.hits, true_bad.trials
        low, high = clopper_pearson(hits, trials)
        return Iv(low, hits / trials, high, False)

    def pr_joint_no_bad(self, oracle: str, i: int, answer: bool) -> Iv:
        game = self._oracle_game(oracle)
        joint = self._exact(game, i)
        if joint is not None:
            return Iv.of_fraction(joint.get((answer, False), Fraction(0)))
        return Iv.of_estimate(self._estimates(game, i)[(answer, False)])

    @property
    def mode(self) -> str:
        return "exact" if self._factored else "monte-carlo"


# ------------------------------------------------------------- lemma checks
#
# Each check of the hybrid argument is one row of LEMMA_TABLE, in the
# order a suite runs them, so its name and index range are declared once.


@dataclass(frozen=True)
class LemmaCheck:
    """One verified (in)equality: an instance of a named lemma."""

    lemma: str
    i: int | None
    mode: str
    passed: bool
    lhs: str
    rhs: str
    relation: str = "=="
    detail: str = ""

    def line(self) -> str:
        where = "" if self.i is None else f" i={self.i}"
        verdict = "pass" if self.passed else "FAIL"
        extra = f" ({self.detail})" if self.detail else ""
        return (
            f"{self.lemma}{where}: {verdict} [{self.mode}] "
            f"{self.lhs} {self.relation} {self.rhs}{extra}"
        )


def _mode_of(*values: Iv) -> str:
    return "exact" if all(v.exact for v in values) else "monte-carlo"


def _eq_check(lemma: str, i: int | None, lhs: Iv, rhs: Iv, detail: str = "") -> LemmaCheck:
    return LemmaCheck(
        lemma, i, _mode_of(lhs, rhs), iv_equal(lhs, rhs), str(lhs), str(rhs), "==", detail
    )


def _leq_check(lemma: str, i: int | None, lhs: Iv, rhs: Iv, detail: str = "") -> LemmaCheck:
    return LemmaCheck(
        lemma, i, _mode_of(lhs, rhs), iv_leq(lhs, rhs), str(lhs), str(rhs), "<=", detail
    )


def _no_bad_same(lemma: str, p: HybridParams, ev: GameEvaluator, j: int) -> LemmaCheck:
    """rb and rf give each answer with no bad event equal mass."""
    pieces = [
        (answer, ev.pr_joint_no_bad("rb", j, answer), ev.pr_joint_no_bad("rf", j, answer))
        for answer in (True, False)
    ]
    passed = all(iv_equal(lhs, rhs) for _, lhs, rhs in pieces)
    lhs_s = ", ".join(f"P[a={a} & !bad]={lhs}" for a, lhs, _ in pieces)
    rhs_s = ", ".join(f"{rhs}" for _, _, rhs in pieces)
    mode = _mode_of(*(v for _, lhs, rhs in pieces for v in (lhs, rhs)))
    return LemmaCheck(lemma, j, mode, passed, lhs_s, rhs_s, "==")


def _hybrid_argument(lemma: str, p: HybridParams, ev: GameEvaluator, j: None) -> LemmaCheck:
    walk = end_to_end_distance(p, evaluator=ev)
    detail = f"telescoped over {p.num_calls} adjacent pairs"
    return _leq_check(lemma, None, walk.end_to_end, walk.total, detail=detail)


class Lemma(NamedTuple):
    """One row of LEMMA_TABLE: a check, its kind ('equality',
    'inequality', or 'theorem' for the end-to-end bound), its hybrid
    index range, i in 0..num_calls - short_by (1 for the calls an oracle
    serves), or None for a check that compares whole runs, and at(name,
    p, evaluator, i), its instance at one index."""

    name: str
    kind: str
    short_by: int | None
    at: Callable[[str, HybridParams, GameEvaluator, Any], LemmaCheck]


LEMMA_TABLE = (
    Lemma("Generate_move_v_update", "equality", None,
          lambda name, p, ev, j: _eq_check(name, j, ev.pr("g_real"), ev.pr("g1_prg"))),
    Lemma("G_real_is_first_hybrid", "equality", None,
          lambda name, p, ev, j: _eq_check(name, j, ev.pr("g1_prg"), ev.pr("gi_prg", 0))),
    Lemma("G_ideal_is_last_hybrid", "equality", None,
          lambda name, p, ev, j: _eq_check(
              name, j, ev.pr("g_ideal"), ev.pr("gi_prg", p.num_calls))),
    Lemma("Gi_prog_equiv_prf_oracle", "equality", 0,
          lambda name, p, ev, j: _eq_check(name, j, ev.pr("gi_prg", j), ev.pr("gi_prf", j))),
    Lemma("Gi_prog_equiv_rb_oracle", "equality", 1,
          lambda name, p, ev, j: _eq_check(name, j, ev.pr("gi_prg", j + 1), ev.pr("gi_rb", j))),
    Lemma("Gi_rb_rf_return_bad_same", "equality", 1,
          lambda name, p, ev, j: _eq_check(name, j, ev.pr_bad("rb", j), ev.pr_bad("rf", j))),
    Lemma("Gi_rb_rf_no_bad_same", "equality", 1, _no_bad_same),
    Lemma("fundamental_lemma", "inequality", 1,
          lambda name, p, ev, j: _leq_check(
              name, j, iv_absdiff(ev.pr("gi_rf", j), ev.pr("gi_rb", j)), ev.pr_bad("rb", j),
              detail="|Pr[rf] - Pr[rb]| vs Pr[bad]")),
    Lemma("Gi_Pr_bad_event_collisions", "inequality", 1,
          lambda name, p, ev, j: _leq_check(
              name, j, ev.pr_bad("rb", j),
              Iv.of_fraction(pr_collisions(p.blocks_per_call, p.eta)),
              detail="bad vs (1+n)^2/2^eta")),
    Lemma("hybrid_argument", "inequality", None, _hybrid_argument),
    Lemma("main_theorem", "theorem", None,
          lambda name, p, ev, j: main_theorem_check(p, evaluator=ev).check),
)

ALL_CHECKS = tuple(row.name for row in LEMMA_TABLE)
EQUALITY_LEMMAS = tuple(row.name for row in LEMMA_TABLE if row.kind == "equality")
INEQUALITY_CHECKS = tuple(row.name for row in LEMMA_TABLE if row.kind == "inequality")


def check_lemma(
    p: HybridParams,
    lemma: str,
    i: int | None = None,
    evaluator: GameEvaluator | None = None,
) -> list[LemmaCheck]:
    """Check one named lemma, at one hybrid index or at every
    admissible index (the default). A check that compares whole runs
    takes no index, so giving it one raises ValueError."""
    row = next((row for row in LEMMA_TABLE if row.name == lemma), None)
    if row is None:
        raise ValueError(f"unknown lemma {lemma!r}")
    indices = [i]
    if row.short_by is not None:
        last = p.num_calls - row.short_by
        if i is None:
            indices = list(range(last + 1))
        elif not 0 <= i <= last:
            raise ValueError(f"i must be in 0..{last} for {lemma}, got {i}")
    elif i is not None:
        raise ValueError(f"{lemma} takes no index, got i={i}")
    ev = evaluator if evaluator is not None else GameEvaluator(p)
    return [row.at(lemma, p, ev, j) for j in indices]


def run_all_lemmas(
    p: HybridParams, evaluator: GameEvaluator | None = None
) -> list[LemmaCheck]:
    """Every check of LEMMA_TABLE but the main theorem, each at every
    admissible hybrid index, sharing one evaluator."""
    ev = evaluator if evaluator is not None else GameEvaluator(p)
    return [
        check
        for row in LEMMA_TABLE
        if row.kind != "theorem"
        for check in check_lemma(p, row.name, evaluator=ev)
    ]


@dataclass(frozen=True)
class EndToEndReport:
    end_to_end: Iv
    adjacent: tuple[Iv, ...]
    total: Iv
    telescope_ok: bool


def end_to_end_distance(p: HybridParams, evaluator=None) -> EndToEndReport:
    """Distance between the first and last hybrid, with the telescoping
    decomposition into adjacent distances."""
    ev = evaluator if evaluator is not None else GameEvaluator(p)
    end_to_end = iv_absdiff(ev.pr("gi_prg", 0), ev.pr("gi_prg", p.num_calls))
    adjacent = tuple(
        iv_absdiff(ev.pr("gi_prg", j), ev.pr("gi_prg", j + 1)) for j in range(p.num_calls)
    )
    total = adjacent[0]
    for step in adjacent[1:]:
        total = iv_add(total, step)
    return EndToEndReport(end_to_end, adjacent, total, iv_leq(end_to_end, total))


@dataclass(frozen=True)
class MainTheoremReport:
    """The concrete end-to-end bound, numerically instantiated.

    lhs is the adversary's real-vs-ideal advantage; prf_gap is the worst
    PRF-vs-random-function gap over hybrid indices (the PRF advantage of
    the constructed reduction); collisions is the closed-form bad-event
    bound; rhs = num_calls * (prf_gap + collisions).
    """

    lhs: Iv
    prf_gap: Iv
    collisions: Iv
    rhs: Iv
    check: LemmaCheck


def main_theorem_check(p: HybridParams, evaluator=None) -> MainTheoremReport:
    ev = evaluator if evaluator is not None else GameEvaluator(p)
    lhs = iv_absdiff(ev.pr("g_real"), ev.pr("g_ideal"))
    gaps = [
        iv_absdiff(ev.pr("gi_prf", j), ev.pr("gi_rf", j)) for j in range(p.num_calls)
    ]
    prf_gap = gaps[0]
    for gap in gaps[1:]:
        if gap.mid > prf_gap.mid:
            prf_gap = gap
    collisions = Iv.of_fraction(pr_collisions(p.blocks_per_call, p.eta))
    rhs = iv_scale(p.num_calls, iv_add(prf_gap, collisions))
    check = _leq_check(
        "main_theorem",
        None,
        lhs,
        rhs,
        detail=(
            f"advantage vs num_calls*(prf_gap + collisions); "
            f"prf_gap={prf_gap}, collisions={collisions}"
        ),
    )
    return MainTheoremReport(lhs, prf_gap, collisions, rhs, check)


# ------------------------------------------------------------- calibration


# (game, eta, calls, blocks per call, adversary, adversary name, index)
CALIBRATION_SPECS: tuple[tuple[str, int, int, int, Any, str, int | None], ...] = (
    ("g_real", 2, 2, 2, collision_detector, "collision", None),
    ("g_real", 3, 3, 2, collision_detector, "collision", None),
    ("g_real", 2, 3, 2, first_bit, "first_bit", None),
    ("g1_prg", 2, 2, 2, collision_detector, "collision", None),
    ("g_ideal", 2, 2, 2, collision_detector, "collision", None),
    ("g_ideal", 3, 2, 2, collision_detector, "collision", None),
    ("g_ideal", 1, 3, 2, first_bit, "first_bit", None),
    ("g_ideal", 2, 2, 2, constant(True), "constant", None),
    ("gi_prg", 2, 2, 2, collision_detector, "collision", 1),
    ("gi_prg", 2, 2, 2, collision_detector, "collision", 2),
    ("gi_prg", 3, 2, 2, collision_detector, "collision", 1),
    ("gi_prg", 1, 2, 2, collision_detector, "collision", 1),
    ("gi_prf", 2, 2, 2, collision_detector, "collision", 1),
    ("gi_prf", 3, 2, 2, collision_detector, "collision", 0),
    ("gi_prf", 3, 2, 1, collision_detector, "collision", 1),
    ("gi_rf", 2, 2, 2, collision_detector, "collision", 0),
    ("gi_rf", 2, 2, 2, collision_detector, "collision", 1),
    ("gi_rb", 2, 2, 2, collision_detector, "collision", 0),
    ("gi_rb", 2, 2, 1, collision_detector, "collision", 1),
    ("gi_rb", 2, 2, 2, first_bit, "first_bit", 1),
)


def calibration_games() -> list[tuple[str, Comp, Fraction]]:
    """Twenty enumerable games with their exact win probabilities,
    for calibrating the Monte Carlo estimator: each exact value should
    fall inside the estimator's confidence interval about as often as
    the confidence level promises.

    Each entry pairs the game's lean computation, which the estimator
    samples, with the factored evaluator's exact value; tests pin every
    value as a literal and to the enumeration of the faithful tree, and
    the lean computation's seeded outcomes to that tree's.
    """
    out = []
    for game, eta, nc, bpc, adversary, adv_name, i in CALIBRATION_SPECS:
        p = HybridParams(eta, nc, bpc, adversary=adversary)
        where = "" if i is None else f" i={i}"
        name = f"{game}{where} eta={eta} calls={nc} blocks={bpc} adv={adv_name}"
        value = GameEvaluator(p).pr(game, i)
        if not value.exact:
            raise RuntimeError(f"calibration game {name} has no exact value: {value}")
        out.append((name, _lean(p, game, i), value.mid))
    return out
