"""Two interpreters of a game's call shapes: the factored evaluator,
which computes the exact ``(answer, bad)`` joint, and the lean sampler
that Monte Carlo runs.

:mod:`.games` names each game by the shapes of its generate calls. For
the factored evaluator each shape becomes a few steps (draw an eta-bit
block, run one deterministic generate call, answer one oracle query),
and one forward propagator runs the list over merged integer states (adversary fold, k, v, bad, oracle
state). A uniform sample that nothing reads (the instantiate key of an
ideal prefix or of an oracle game, the instantiate v before an ideal
call) is never drawn, so it marginalizes out: k and v are drawn lazily at
their first read. A draw adds eta bits to the common ``2^bits``
denominator, and a state that ignores the drawn block (a random-function
cache hit) collects all ``2^eta`` equal shares. Every mass is a Python
int until the game ends.

Each step declares the slots its fn reads, the slots it always
overwrites and the slots its fresh block lands in. One backward pass
over the step list finds the slots no later step reads before
overwriting them. Each step's transition empties those dead slots before
its states merge, and a block that lands only in dead slots is not
drawn. Exact joints depend only on live slots, so lumping states that
differ only in dead ones changes no mass (lumping, or bisimulation
reduction: Katoen, Kemna, Zapreev & Jansen, TACAS 2007).

The oracle state is one int with an (eta+1)-bit field per input: 0 for
an input not yet queried, else answer+1 under rf and 1 under rb.

The sampler compiles the same shapes into one list of ops over int
blocks, with ``prf_int`` as the only PRF. Each op carries its draw rule
as data: always, never, or only on a new oracle input. Unlike the
propagator, it draws every block eagerly, in the faithful tree's order,
because a seeded trial must give the faithful tree's outcome. Its oracle
trace is a small per-trial dict, since setting a field of a
(eta+1)·2^eta-bit int costs too much at eta 16. Two interpreters read
the op list, and the sampler returns both in one ``prob.Flat`` node: a
Comp with one ``Sample`` node per drawn block, which ``exact_dist``
enumerates, and a runner, one loop over the ops on a trial's SplitMix64
stream, which ``prob.sample`` calls. So ``prob.sample``, ``exact_dist``
and ``estimate_pr_true`` run it unchanged, and a trial builds no node
before the adversary answers.

The propagator and the sampler fold the adversary the same way: each
visible output goes through ``adversary.absorb``, and a final fold
state's Comp of bool comes from ``adversary.answer``. The propagator
reads a ``Return`` answer directly and enumerates any other; the sampler
ends its path with the answer, so the adversary's own coins are drawn
last. Both read every leaf of the answer by ``prob.truth`` before it is
keyed, so a non-bool answer raises at its own leaf. ``exact_dist`` on
the lean computation shares each prefix's fold among all the leaves
below it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

from .prob import Comp, Flat, Return, Sample, exact_dist, mapc, truth

if TYPE_CHECKING:
    from .games import HybridParams

ADV, K, V, BAD, ORC = range(5)  # state slots

# one fixed function per set of slots that die together in some step list
CLEAR: dict[frozenset[int], Callable[[tuple], tuple]] = {
    frozenset({K}): lambda st: (st[0], None, st[2], st[3], st[4]),
    frozenset({V}): lambda st: (st[0], st[1], None, st[3], st[4]),
    frozenset({ORC}): lambda st: (st[0], st[1], st[2], st[3], 0),
    frozenset({K, V}): lambda st: (st[0], None, None, st[3], st[4]),
    frozenset({V, ORC}): lambda st: (st[0], st[1], None, st[3], 0),
}


class Step(NamedTuple):
    reads: tuple[int, ...]  # slots fn reads; k and v are drawn first if never set
    writes: tuple[int, ...]  # slots fn always overwrites
    draws: tuple[int, ...]  # slots fn's fresh eta-bit block lands in; () if it takes none
    fn: Callable[[tuple, int], tuple]  # (state, block) -> state


def generate(
    p: HybridParams, shape: str, absorb: Callable[[Any, int, int], Any]
) -> Callable[[tuple, int | None], tuple]:
    """One deterministic generate call in 'spec', 'nov' or 'v' shape,
    each output value absorbed into the adversary slot."""
    eta, n, f = p.eta, p.blocks_per_call, p.prf_int

    def fn(st: tuple, x: int | None) -> tuple:
        adv, k, v, bad, orc = st
        if shape == "v":
            v = f(k, "c", v)
        for _ in range(n):
            v = f(k, "c", v)
            adv = absorb(adv, v, eta)
        k2 = f(k, "r", v)
        if shape == "spec":
            v = f(k2, "c", v)
        return adv, k2, v, bad, orc

    return fn


def steps(p: HybridParams, shapes: list[str]) -> list[Step]:
    """The step list of a game, one generate call after another. A
    call's shape is 'ideal', 'spec', 'nov' or 'v', or the oracle mode
    'prf', 'rf' or 'rb' that serves call i of an oracle-swapped game."""
    eta, n, absorb, f = p.eta, p.blocks_per_call, p.adversary.absorb, p.prf_int
    width = eta + 1  # one oracle-state field per input
    field = (1 << width) - 1

    def ideal_block(st: tuple, x: int) -> tuple:
        return absorb(st[0], x, eta), st[1], x, st[3], st[4]

    def prf_query(kind: str, visible: bool) -> Step:
        """One query of call i in prf mode: the k slot holds the oracle's
        own key until the rekey, whose answer is the new key. No trace is
        kept, since the bad event belongs to rf and rb only."""

        def fn(st: tuple, x: int) -> tuple:
            adv, k, v, bad, orc = st
            if kind == "r":
                return adv, f(k, "r", v), v, bad, orc
            v = f(k, "c", v)
            return (absorb(adv, v, eta) if visible else adv), k, v, bad, orc

        return Step((K, V), (K,) if kind == "r" else (V,), (), fn)

    def oracle_query(cache: bool, visible: bool) -> Step:
        """One chain query of call i in rf (cache) or rb mode. Its input
        is v, its answer becomes v, and an input already in the oracle
        state sets bad. rf answers a repeated input from its field; rb
        answers every query afresh. In rb mode the state resets to 0 once
        bad is set: bad never clears, and only bad reads an rb trace."""

        def fn(st: tuple, x: int) -> tuple:
            adv, k, v, bad, orc = st
            shift = v * width
            seen = orc >> shift & field
            if cache:
                if seen:
                    x, bad = seen - 1, True
                else:
                    orc |= (x + 1) << shift
            elif not bad:
                if seen:
                    orc, bad = 0, True
                else:
                    orc |= 1 << shift
            return (absorb(adv, x, eta) if visible else adv), k, x, bad, orc

        lands = (V, ORC) if cache else (V,)
        return Step((V, ORC), (V,), (ADV,) + lands if visible else lands, fn)

    def rekey(st: tuple, x: int) -> tuple:
        """The rekey query of call i in rf or rb mode: its input carries
        the zero-octet pad, so it never repeats a chain input and the
        oracle answers it afresh. Its answer is the new key."""
        return st[0], x, st[2], st[3], st[4]

    out: list[Step] = []
    for c, shape in enumerate(shapes):
        if shape == "ideal":
            out += [Step((), (V,), (ADV, V), ideal_block)] * n
        elif shape in ("spec", "nov", "v"):
            out.append(Step((K, V), (K, V), (), generate(p, shape, absorb)))
        elif shape == "prf":
            if c > 0:  # the v update that leads the call is a hidden query
                out.append(prf_query("c", visible=False))
            out += [prf_query("c", visible=True)] * n
            out.append(prf_query("r", visible=False))
        else:
            cache = shape == "rf"
            if c > 0:
                out.append(oracle_query(cache, visible=False))
            out += [oracle_query(cache, visible=True)] * n
            out.append(Step((), (K,), (K,), rekey))
    return out


class Plan(NamedTuple):
    """How propagate runs one step."""

    lazy: tuple[int, ...]  # k and v slots to draw before the step: read, never set
    fn: Callable[[tuple, int], tuple]
    draw: bool  # whether the step's block is drawn (it lands in a live slot)
    clear: Callable[[tuple], tuple] | None  # empties the slots that die here


def plan(step_list: list[Step]) -> list[Plan]:
    """Liveness over the step list. A slot is dead after a step when no
    later step reads it before one overwrites it; the adversary fold and
    bad are read at the end, so they never die."""
    live = {ADV, BAD}
    dead_after = []
    for step in reversed(step_list):
        dead_after.append(frozenset((ADV, K, V, BAD, ORC)) - live)
        live = (live - set(step.writes)) | set(step.reads)
    dead_after.reverse()

    plans = []
    held: set[int] = set()  # slots that may hold more than their empty value
    for step, dead in zip(step_list, dead_after):
        lazy = tuple(s for s in step.reads if s in (K, V) and s not in held)
        touched = held | set(step.reads) | set(step.writes) | set(step.draws)
        dying = frozenset(touched & dead)
        draw = any(s not in dead for s in step.draws)
        plans.append(Plan(lazy, step.fn, draw, CLEAR[dying] if dying else None))
        held = touched - dead
    return plans


def merge(pairs: Iterable[tuple[Any, int]]) -> dict[Any, int]:
    out: dict[Any, int] = {}
    for point, mass in pairs:
        out[point] = out.get(point, 0) + mass
    return out


def propagate(p: HybridParams, shapes: list[str]) -> dict[tuple[bool, bool], Fraction]:
    """Exact joint distribution of (adversary answer, bad) in the game
    whose generate calls have these shapes."""
    adv, space = p.adversary, range(1 << p.eta)
    dist = {(adv.initial(), None, None, False, 0): 1}
    bits = 0

    for lazy, fn, draw, clear in plan(steps(p, shapes)):
        for s in lazy:
            dist = merge(
                (st[:s] + (x,) + st[s + 1 :], mass) for st, mass in dist.items() for x in space
            )
            bits += p.eta
        # a block that lands only in dead slots is not drawn: its value is emptied
        xs = space if draw else (0,)
        bits += p.eta if draw else 0
        if clear is None:
            dist = merge((fn(st, x), mass) for st, mass in dist.items() for x in xs)
        else:
            dist = merge((clear(fn(st, x)), mass) for st, mass in dist.items() for x in xs)

    # masses over 2^bits: an int while every answer is a Return
    joint: dict[tuple[bool, bool], int | Fraction] = {}
    for (adv_state, bad), mass in merge(((st[0], st[3]), m) for st, m in dist.items()).items():
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


# ---------------------------------------------------------------- the sampler
#
# One path per trial over the propagator's slots, the adversary slot
# holding its fold, except that the oracle slot holds a dict from query
# input to answer. Each op is (rule, fn): when it draws a block, as data
# that both the Comp and the runner read, and the state it leaves.

ALWAYS, NEVER, NEW_INPUT = "always", "never", "new input"  # an op's draw rule


def _drop(st: tuple, x: int | None) -> tuple:
    return st


def sampler(p: HybridParams, game: str, shapes: list[str], with_bad: bool = False) -> Flat:
    """The lean computation of a game whose generate calls have these
    shapes: the adversary's result, or ``(result, bad)`` with_bad. Every
    visible output is absorbed into the adversary's fold, as the
    propagator does, and the path ends with the fold's ``answer``, each
    of its leaves read by ``prob.truth``. It draws every eta-bit block
    the faithful tree draws, in the same order:

    - gi_prf draws its oracle key first, and every game but g_ideal then
      draws the instantiate k and v, whether or not anything reads them;
    - an ideal call draws its blocks in order;
    - an rb query always draws, an rf query only on a new input, and the
      rekey query always;
    - the adversary answers last, so its own coins come last.

    The result is a ``prob.Flat``: its comp is a tree of ``Sample``
    nodes, one per drawn block, which ``exact_dist`` enumerates, and its
    runner is one loop over the same ops on the trial's stream, which
    ``prob.sample`` calls.
    """
    eta, n, adv = p.eta, p.blocks_per_call, p.adversary
    absorb = adv.absorb

    def into(slot: int) -> Callable[[tuple, int | None], tuple]:
        """The op that puts its block in the k or the v slot."""
        if slot == K:
            return lambda st, x: (st[0], x, st[2], st[3], st[4])
        return lambda st, x: (st[0], st[1], x, st[3], st[4])

    def ideal_block(st: tuple, x: int | None) -> tuple:
        return absorb(st[ADV], x, eta), st[K], x, st[BAD], st[ORC]

    def query(cache: bool, visible: bool) -> Callable[[tuple, int | None], tuple]:
        """A chain query of call i: its input is v and its answer becomes
        v. A repeated input sets bad; rf then answers from its cache."""

        def op(st: tuple, x: int | None) -> tuple:
            outs, k, v, bad, trace = st
            if v in trace:
                bad = True
                if cache:
                    x = trace[v]
            else:
                trace = {**trace, v: x}
            return (absorb(outs, x, eta) if visible else outs), k, x, bad, trace

        return op

    if game == "gi_prf":  # the oracle's own key, then an instantiate k nothing reads
        ops = [(ALWAYS, into(K)), (ALWAYS, _drop), (ALWAYS, into(V))]
    elif game != "g_ideal":
        ops = [(ALWAYS, into(K)), (ALWAYS, into(V))]
    else:
        ops = []
    for c, shape in enumerate(shapes):
        if shape == "ideal":
            ops += [(ALWAYS, ideal_block)] * n
        elif shape in ("rf", "rb"):
            rule = NEW_INPUT if shape == "rf" else ALWAYS
            if c > 0:  # the v update that leads the call is a hidden query
                ops.append((rule, query(shape == "rf", visible=False)))
            ops += [(rule, query(shape == "rf", visible=True))] * n
            ops.append((ALWAYS, into(K)))  # the rekey query: its padded input never repeats
        else:  # a deterministic call; prf mode runs on the oracle key in the k slot
            if shape == "prf":
                shape = "nov" if c == 0 else "v"
            ops.append((NEVER, generate(p, shape, absorb)))

    def finish(st: tuple) -> Comp:
        answer = adv.answer(st[ADV])
        if with_bad:
            return mapc(answer, lambda a, _bad=st[BAD]: (truth(a), _bad))
        if isinstance(answer, Return) and (answer.value is True or answer.value is False):
            return answer  # what truth would pass through
        return mapc(answer, truth)

    def go(pc: int, st: tuple) -> Comp:
        for pc in range(pc, len(ops)):
            rule, fn = ops[pc]
            if rule is ALWAYS or rule is NEW_INPUT and st[V] not in st[ORC]:
                return Sample(eta, lambda x, _fn=fn, _pc=pc, _st=st: go(_pc + 1, _fn(_st, x)))
            st = fn(st, None)
        return finish(st)

    def run(stream: Any) -> Comp:
        bits, st = stream.bits, start
        for rule, fn in ops:
            if rule is NEVER or rule is NEW_INPUT and st[V] in st[ORC]:
                st = fn(st, None)
            else:
                st = fn(st, bits(eta))
        return finish(st)

    start = (adv.initial(), None, None, False, {})
    return Flat(go(0, start), run)
