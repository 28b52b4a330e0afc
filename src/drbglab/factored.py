"""One step list per game, read by two interpreters: the factored
evaluator, which computes the exact ``(answer, bad)`` joint, and the
lean sampler that Monte Carlo runs.

:mod:`.games` names each game by the shapes of its generate calls.
:func:`steps` writes a game out once, in the faithful tree's order: the
instantiate draws, then per call its steps (draw an eta-bit block, run
one deterministic generate call, answer one oracle query). Each step
declares the slots it reads and overwrites, and its draw rule, the only
declaration of its draw: always, never, or only on a new oracle input.
The oracle slot holds the faithful rf and rb oracles' trace over ints: a
tuple of ``(input, answer)`` pairs, one per distinct input, in query
order. Every interpreter runs the same steps, chain query
(:func:`query`) and trace narrowing (:func:`narrow`).

The factored evaluator (:func:`propagate`) runs the list forward over
merged integer states (adversary fold, k, v, bad, oracle trace); equal
traces are equal tuples, so their states merge. :func:`plan` moves each
draw that only fills a slot to just before the first step that reads
the slot, and drops it when nothing does, so a sample nothing reads (the
instantiate key of an ideal prefix or of an oracle game, the instantiate
v before an ideal call) marginalizes out. One backward pass over the list
then finds the slots no later step reads before overwriting them. Each
step's transition empties those dead slots before its states merge.
Each step whose rule is not never draws a block, and every such block
lands in a live slot (see :func:`plan`). The trace is live only at the
entry its last reader reads, the one at that query's input v, so the
step before that query empties every other entry. Exact joints depend
only on what later steps read, so lumping states that differ only in
dead slots or entries changes no mass (lumping, or bisimulation
reduction: Katoen, Kemna, Zapreev & Jansen, TACAS 2007). A draw adds
eta bits to the common ``2^bits`` denominator, and a state that ignores
the drawn block (a random-function cache hit) collects all ``2^eta``
equal shares. Every mass is a Python int until the game ends.

A generate call is deterministic: its outputs and new (k, v) depend
only on (k, v). So each generate step keeps a table from (k, v) to
that result (:func:`generate`), and a pair pays for the call's n+1 or
n+2 PRF calls once, however many states or trials reach it; a state
then only absorbs the stored outputs into its fold. Every interpreter
runs that one kernel. A draw-only step writes a slot that is dead
before it, so its states never merge; when the step after it takes no
block (the generate call that reads the drawn key or v), the concrete
interpreter runs the two as one transition and never builds the
``2^eta`` times larger dict between them. Each transition of either
propagator is one loop, :func:`merge`: every state, every landing of
its block, one merged point.

When no step of a list reads K (the PRF, the one operation that reads
a value beyond equality, runs only in generate calls, on their key) and
the adversary's fold has a symmetric form (``adversary.symmetric``),
:func:`propagate` runs the list over labelled states instead. Any
permutation of the block values that keeps the fold's colour classes
then maps a run to an equally likely run with the same answer and bad
flag, so after each step the live values are renumbered to the lowest
values of their class, in a fixed traversal order (v, the trace in
query order, the values only the fold holds), and states of one
orbit merge. A draw lands on each live value with weight 1 and on one
fresh representative per class with the rest of that class's weight.
This is symmetry reduction with scalarsets (Ip & Dill, "Better
Verification Through Symmetry", Formal Methods in System Design 1996;
Kwiatkowska, Norman & Parker, "Symmetry Reduction for Probabilistic
Model Checking", CAV 2006). The steps, ``plan`` and ``CLEAR`` run
unchanged on the representatives. The concrete interpreter stays as the
reference tests pin it to.

The sampler (:func:`sampler`) runs the same list as it stands, drawing
by each step's rule, because a seeded trial must give the faithful
tree's outcome; a generate step's table serves every trial of the
node. It returns one ``prob.Flat`` node whose runner, one loop
over the steps on a trial's SplitMix64 stream, ``prob.sample`` calls. So
``prob.sample`` and ``estimate_pr_true`` run it unchanged, and a trial
builds no node before the adversary answers. The node can only be
sampled: exact values come from the propagator, which tests pin to the
faithful trees.

Both interpreters fold the adversary the same way: each visible output
goes through ``adversary.absorb``, and a final fold state's Comp of bool
comes from ``adversary.answer``. The propagator reads a ``Return``
answer directly and enumerates any other; the sampler ends its path with
the answer, so the adversary's own coins are drawn last. Both read every
leaf of the answer by ``prob.truth`` before it is keyed, so a non-bool
answer raises at its own leaf.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from .prob import Comp, Flat, Return, exact_dist, mapc, truth

if TYPE_CHECKING:
    from .games import HybridParams

ADV, K, V, BAD, ORC = range(5)  # state slots
ALWAYS, NEVER, NEW_INPUT = "always", "never", "new input"  # a step's draw rule

# one fixed function per set of slots that die together in some step list
CLEAR: dict[frozenset[int], Callable[[tuple], tuple]] = {
    frozenset({K}): lambda st: (st[0], None, st[2], st[3], st[4]),
    frozenset({V}): lambda st: (st[0], st[1], None, st[3], st[4]),
    frozenset({ORC}): lambda st: (st[0], st[1], st[2], st[3], ()),
    frozenset({K, V}): lambda st: (st[0], None, None, st[3], st[4]),
    frozenset({V, ORC}): lambda st: (st[0], st[1], None, st[3], ()),
}


class Step(NamedTuple):
    reads: tuple[int, ...]  # slots fn reads
    writes: tuple[int, ...]  # slots fn always overwrites
    rule: str  # when the faithful tree draws fn's eta-bit block: ALWAYS, NEVER or NEW_INPUT
    fn: Callable[[tuple, Any], tuple]  # (state, block) -> state


# the rows a generate call's table keeps before it is emptied: every
# (k, v) pair up to eta 6
TABLE_ROWS = 1 << 12


def generate(
    p: HybridParams, shape: str, absorb: Callable[[Any, int, int], Any]
) -> Callable[[tuple, int | None], tuple]:
    """One deterministic generate call in 'spec', 'nov' or 'v' shape,
    each output value absorbed into the adversary slot. The call's
    outputs and new (k, v) depend only on (k, v), so they are computed
    once per pair and kept in this step's table; a state then only
    absorbs the stored outputs."""
    eta, n, f = p.eta, p.blocks_per_call, p.prf_int
    table: dict[tuple[int, int], tuple[tuple[int, ...], int, int]] = {}

    def call(k: int, v: int) -> tuple[tuple[int, ...], int, int]:
        w = f(k, "c", v) if shape == "v" else v
        outputs = []
        for _ in range(n):
            w = f(k, "c", w)
            outputs.append(w)
        k2 = f(k, "r", w)
        if shape == "spec":
            w = f(k2, "c", w)
        return tuple(outputs), k2, w

    def fn(st: tuple, x: int | None) -> tuple:
        adv, k, v, bad, orc = st
        key = k, v
        row = table.get(key)
        if row is None:
            if len(table) >= TABLE_ROWS:
                table.clear()
            row = table[key] = call(k, v)
        outputs, k2, v = row
        for y in outputs:
            adv = absorb(adv, y, eta)
        return adv, k2, v, bad, orc

    return fn


def _set_k(st: tuple, x: int) -> tuple:
    return st[0], x, st[2], st[3], st[4]


def _set_v(st: tuple, x: int) -> tuple:
    return st[0], st[1], x, st[3], st[4]


def _drop(st: tuple, x: int) -> tuple:
    return st


DRAW_K = Step((), (K,), ALWAYS, _set_k)  # also the rekey query of an rf or rb call
DRAW_V = Step((), (V,), ALWAYS, _set_v)
UNREAD = Step((), (), ALWAYS, _drop)  # gi_prf's instantiate k


def query(p: HybridParams, cache: bool, visible: bool) -> Callable[[tuple, int | None], tuple]:
    """The chain query in rf (cache) or rb mode: its input is v, its
    answer becomes v. A repeated input sets bad, and rf answers it from
    its trace entry and ignores the block; a new input appends its
    entry."""
    eta, absorb = p.eta, p.adversary.absorb

    def fn(st: tuple, x: int | None) -> tuple:
        adv, k, v, bad, trace = st
        for entry in trace:
            if entry[0] == v:
                bad = True
                if cache:
                    x = entry[1]
                break
        else:
            trace += ((v, x),)
        return (absorb(adv, x, eta) if visible else adv), k, x, bad, trace

    return fn


def narrow(st: tuple) -> tuple:
    """Empties every entry of the trace but the one at v, the only one a
    query reads."""
    adv, k, v, bad, trace = st
    for entry in trace:
        if entry[0] == v:
            return adv, k, v, bad, (entry,)
    return adv, k, v, bad, ()


def steps(p: HybridParams, game: str, shapes: list[str]) -> list[Step]:
    """The step list of a game, in the faithful tree's draw order. A
    call's shape is 'ideal', 'spec', 'nov' or 'v', or the oracle mode
    'prf', 'rf' or 'rb' that serves call i of an oracle-swapped game."""
    eta, n, absorb = p.eta, p.blocks_per_call, p.adversary.absorb

    def ideal_block(st: tuple, x: int) -> tuple:
        return absorb(st[ADV], x, eta), st[K], x, st[BAD], st[ORC]

    if game == "gi_prf":  # the oracle's own key, then an instantiate k nothing reads
        out = [DRAW_K, UNREAD, DRAW_V]
    elif game != "g_ideal":
        out = [DRAW_K, DRAW_V]
    else:
        out = []
    keyed = False  # whether a deterministic call has replaced the k slot's first key
    for c, shape in enumerate(shapes):
        if shape == "ideal":
            out += [Step((ADV,), (V,), ALWAYS, ideal_block)] * n  # reads the fold it absorbs into
        elif shape in ("rf", "rb"):
            cache = shape == "rf"
            rule = NEW_INPUT if cache else ALWAYS
            if c > 0:  # the v update that leads the call is a hidden query
                out.append(Step((V, ORC), (V,), rule, query(p, cache, visible=False)))
            out += [Step((V, ORC), (V,), rule, query(p, cache, visible=True))] * n
            out.append(DRAW_K)  # the rekey query: its padded input never repeats
        else:  # a deterministic call; prf mode runs on the oracle key in the k slot
            if shape == "prf":
                if keyed:
                    raise ValueError(
                        f"a prf call must precede every deterministic call, got {shapes}: "
                        "the k slot then holds that call's key, not the oracle's")
                shape = "nov" if c == 0 else "v"
            keyed = True
            out.append(Step((K, V), (K, V), NEVER, generate(p, shape, absorb)))
    return out


# ---------------------------------------------------------------- the propagator


class Plan(NamedTuple):
    """How propagate runs one step."""

    fn: Callable[[tuple, int], tuple]
    draw: bool  # whether the step takes an eta-bit block: its rule is not NEVER
    clear: Callable[[tuple], tuple] | None  # empties the slots that die here, or narrows the trace


def plan(step_list: list[Step]) -> list[Plan]:
    """Each draw-only step (it reads nothing and its rule draws, so its
    block only fills the slots it writes) moves to just before the first
    step that reads its slot, and goes when a step overwrites the slot
    first or none reads it. Then liveness over the list: a slot is dead
    after a step when no later step reads it before one overwrites it;
    the adversary fold and bad are read at the end, so they never die.
    The oracle trace is live only at the entry its last reader reads:
    the step before that query empties every other entry (:func:`narrow`)
    when the trace may hold any and no slot dies there, which holds for
    every list :func:`steps` writes.

    So a step draws by its rule alone, since every kept draw lands in a
    live slot: a draw-only step's slot is read next, an ideal block and
    a visible query absorb into the fold, and a hidden query's answer is
    the next query's input."""
    moved: list[Step] = []
    waiting: dict[int, Step] = {}  # slot -> the draw-only step that fills it, unread so far
    for step in step_list:
        if not step.reads and step.rule is not NEVER:
            waiting.update((s, step) for s in step.writes)
            continue
        moved += [waiting.pop(s) for s in step.reads if s in waiting]
        for s in step.writes:
            waiting.pop(s, None)
        moved.append(step)

    live = {ADV, BAD}
    dead_after, last_read = [], []
    for step in reversed(moved):
        dead_after.append(frozenset((ADV, K, V, BAD, ORC)) - live)
        last_read.append(ORC in step.reads and ORC not in live)  # the trace's last reader
        live = (live - set(step.writes)) | set(step.reads)
    dead_after.reverse()
    last_read.reverse()

    plans = []
    held: set[int] = set()  # slots that may hold more than their empty value
    for step, dead, next_last in zip(moved, dead_after, last_read[1:] + [False]):
        touched = held | set(step.reads) | set(step.writes)
        dying = frozenset(touched & dead)
        draw = step.rule is not NEVER
        clear = CLEAR[dying] if dying else None
        if next_last and ORC in touched and clear is None:
            clear = narrow  # the next query, the trace's last reader, reads it only at v
        plans.append(Plan(step.fn, draw, clear))
        held = touched - dead
    return plans


def _still(st: tuple) -> tuple[tuple[int, int], ...]:
    """Where a step that takes no block lands: block 0, weight 1."""
    return ((0, 1),)


def merge(
    dist: dict[Any, int],
    fn: Callable[[Any, int], Any],
    landings: Callable[[Any], Iterable[tuple[int, int]]],
    clear: Callable[[Any], Any] | None = None,
) -> dict[Any, int]:
    """One transition of a propagator: each state in dist goes by fn,
    then clear when there is one, to a point for each of its landings, a
    (block, weight) pair, and equal points merge, their masses times the
    weights adding up."""
    out: dict[Any, int] = {}
    get = out.get
    for st, mass in dist.items():
        for x, weight in landings(st):
            point = fn(st, x)
            if clear is not None:
                point = clear(point)
            out[point] = get(point, 0) + mass * weight
    return out


def propagate(p: HybridParams, game: str, shapes: list[str]) -> dict[tuple[bool, bool], Fraction]:
    """Exact joint distribution of (adversary answer, bad) in the game
    whose generate calls have these shapes: over labelled states when
    every step of its list only compares block values and the fold has a
    symmetric form, else over concrete ones."""
    sym = p.adversary.symmetric(p.eta)
    step_list = steps(p, game, shapes)
    # the PRF is the one operation that reads a value beyond equality,
    # and every step that runs it (a generate call) reads its key from K
    if sym is None or any(K in step.reads for step in step_list):
        return _propagate_concrete(p, step_list)
    return _propagate_labelled(p, sym, step_list)


def _propagate_concrete(
    p: HybridParams, step_list: list[Step]
) -> dict[tuple[bool, bool], Fraction]:
    """:func:`propagate` over every concrete block value: the reference
    the labelled path is pinned to. A draw-only step writes a slot dead
    before it, so its states never merge; when the step after it takes
    no block, the pair runs as one transition."""
    space = tuple((x, 1) for x in range(1 << p.eta))
    every = lambda st: space
    draw_only = {step.fn for step in step_list if not step.reads and step.rule is not NEVER}
    dist = {(p.adversary.initial(), None, None, False, ()): 1}
    bits = 0
    plans = plan(step_list)
    put = None  # a draw-only step held for the next, with which it runs
    for at, (fn, draw, clear) in enumerate(plans):
        # a step whose rule is NEVER takes no block; an rf cache hit draws one and ignores it
        bits += p.eta if draw else 0
        # plan empties no slot at a draw-only step: its slot is read next,
        # and every other dead slot was emptied before it
        if fn in draw_only and at + 1 < len(plans) and not plans[at + 1].draw:
            put = fn
            continue
        if put is not None:  # the reader takes no block: it is handed the draw's, and ignores it
            fn, put, draw = partial(_fold, put, fn), None, True
        dist = merge(dist, fn, every if draw else _still, clear)
    return _joint(p, dist, bits)


def _fold(put: Callable[[tuple, int], tuple], fn: Callable[[tuple, int], tuple],
          st: tuple, x: int) -> tuple:
    """A draw-only step, then the step after it, as one transition."""
    return fn(put(st, x), x)


def _joint(p: HybridParams, dist: dict[tuple, int], bits: int) -> dict[tuple[bool, bool], Fraction]:
    """The (answer, bad) joint of final states whose masses are over
    ``2^bits``."""
    adv = p.adversary
    # an int while every answer is a Return
    joint: dict[tuple[bool, bool], int | Fraction] = {}
    ends = merge(dist, lambda st, x: (st[ADV], st[BAD]), _still)
    for (adv_state, bad), mass in ends.items():
        answer = adv.answer(adv_state)
        if isinstance(answer, Return):
            shares = ((truth(answer.value), mass),)
        else:  # the adversary's own coins
            p_true = exact_dist(mapc(answer, truth)).pr_true
            shares = ((True, mass * p_true), (False, mass * (1 - p_true)))
        for value, share in shares:
            if share:
                joint[value, bad] = joint.get((value, bad), 0) + share
    return {key: Fraction(mass, 1 << bits) for key, mass in joint.items()}


# ---------------------------------------------------------------- labelled states
#
# A labelled state holds one representative per orbit: after each step
# its live values are renumbered to the lowest values of their colour
# classes (see the module docstring), so a draw's fresh value in a class
# is the lowest one no slot holds.


class Symmetry(NamedTuple):
    """A fold's symmetric form, ``adversary.symmetric(eta)``: the fold
    reads the values it absorbs only by equality and by colour. Colour
    class c holds the values from ``bounds(state)[c]`` up to
    ``bounds(state)[c+1]``, so its lowest values are its
    representatives; along a run classes may merge but never split."""

    bounds: Callable[[Any], tuple[int, ...]]
    held: Callable[[Any], Iterable[int]] = lambda state: ()  # the values a fold state holds
    relabel: Callable[[Any, dict[int, int]], Any] = lambda state, label: state  # renamed by label


def _live(sym: Symmetry, st: tuple) -> dict[int, None]:
    """The values a labelled state holds, once each, in traversal order:
    v, the trace in query order, then those only the fold holds. K
    holds none, since no step of a labelled list touches it."""
    adv, _, v, _, trace = st
    order = [] if v is None else [v]
    for entry in trace:
        order += entry
    order += sym.held(adv)
    return dict.fromkeys(order)


def _canonical(sym: Symmetry, st: tuple) -> tuple:
    """The state of st's orbit whose live values are the lowest of their
    classes, numbered in traversal order."""
    adv, k, v, bad, trace = st
    bounds = sym.bounds(adv)
    free = list(bounds[:-1])  # each class's next representative
    label: dict[int, int] = {}
    for x in _live(sym, st):
        c = bisect_right(bounds, x) - 1
        label[x] = free[c]
        free[c] += 1
    trace = tuple((label[a], label[b]) for a, b in trace)
    return sym.relabel(adv, label), k, None if v is None else label[v], bad, trace


def _landings(sym: Symmetry, st: tuple) -> list[tuple[int, int]]:
    """Where a draw over a canonical state lands, as (value, weight)
    pairs whose weights sum to the number of values: each live value with
    weight 1, and the lowest free value of each class with the count of
    that class's values no slot holds."""
    live = _live(sym, st)
    bounds = sym.bounds(st[ADV])
    free = list(bounds[:-1])
    for x in live:
        free[bisect_right(bounds, x) - 1] += 1
    fresh = [(lowest, end - lowest) for lowest, end in zip(free, bounds[1:]) if lowest < end]
    return [(x, 1) for x in live] + fresh


def _propagate_labelled(
    p: HybridParams, sym: Symmetry, step_list: list[Step]
) -> dict[tuple[bool, bool], Fraction]:
    """:func:`propagate` over canonical states, for a list whose steps
    only compare values."""
    canonical = partial(_canonical, sym)
    landings = partial(_landings, sym)
    dist = {canonical((p.adversary.initial(), None, None, False, ())): 1}
    bits = 0
    for fn, draw, clear in plan(step_list):
        bits += p.eta if draw else 0
        finish = canonical if clear is None else lambda st, _clear=clear: canonical(_clear(st))
        dist = merge(dist, fn, landings if draw else _still, finish)
    return _joint(p, dist, bits)


# ---------------------------------------------------------------- the sampler
#
# One path per trial over the propagator's slots, the adversary slot
# holding its fold. Each op is a step's (rule, fn): when it draws a block,
# as data the runner reads, and the state it leaves.


def sampler(p: HybridParams, game: str, shapes: list[str], with_bad: bool = False) -> Flat:
    """The lean computation of a game whose generate calls have these
    shapes: the adversary's result, or ``(result, bad)`` with_bad. It
    runs the game's step list as it stands, each block drawn by its
    step's rule, so it draws every eta-bit block the faithful tree draws,
    in the same order, and ends with the fold's ``answer``, each of its
    leaves read by ``prob.truth``: the adversary's own coins come last.

    The result is a ``prob.Flat`` whose runner, one loop over the ops on
    the trial's stream, ``prob.sample`` calls; it can only be sampled.
    """
    eta, adv = p.eta, p.adversary
    ops = [(s.rule, s.fn) for s in steps(p, game, shapes)]

    def finish(st: tuple) -> Comp:
        answer = adv.answer(st[ADV])
        if with_bad:
            return mapc(answer, lambda a, _bad=st[BAD]: (truth(a), _bad))
        if isinstance(answer, Return) and (answer.value is True or answer.value is False):
            return answer  # what truth would pass through
        return mapc(answer, truth)

    def run(stream: Any) -> Comp:
        bits, st = stream.bits, start
        for rule, fn in ops:
            if rule is NEVER or rule is NEW_INPUT and st[V] in dict(st[ORC]):
                st = fn(st, None)
            else:
                st = fn(st, bits(eta))
        return finish(st)

    start = (adv.initial(), None, None, False, ())
    return Flat(run)
