"""The factored evaluator: the exact ``(answer, bad)`` joint of a game
written as a list of steps.

:mod:`.games` names each game by the shapes of its generate calls. Each
shape becomes a few steps (draw an eta-bit block, run one deterministic
generate call, answer one oracle query), and one forward propagator runs
the list over merged integer states (adversary fold, k, v, bad, oracle
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
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Any, Callable, Iterable, NamedTuple

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


def steps(p: HybridParams, shapes: list[str]) -> list[Step]:
    """The step list of a game, one generate call after another. A
    call's shape is 'ideal', 'spec', 'nov' or 'v', or the oracle mode
    'prf', 'rf' or 'rb' that serves call i of an oracle-swapped game."""
    eta, n, absorb, f = p.eta, p.blocks_per_call, p.adversary.absorb, p.prf_int
    width = eta + 1  # one oracle-state field per input
    field = (1 << width) - 1

    def ideal_block(st: tuple, x: int) -> tuple:
        return absorb(st[0], x, eta), st[1], x, st[3], st[4]

    def generate(shape: str) -> Step:
        def fn(st: tuple, x: int) -> tuple:
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

        return Step((K, V), (K, V), (), fn)

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
            out.append(generate(shape))
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

    joint: dict[tuple[bool, bool], Fraction] = {}
    for (adv_state, bad), mass in merge(((st[0], st[3]), m) for st, m in dist.items()).items():
        p_true = adv.finish_pr(adv_state)
        for answer, share in ((True, p_true), (False, 1 - p_true)):
            if share:
                key = (answer, bad)
                joint[key] = joint.get(key, Fraction(0)) + Fraction(mass, 1 << bits) * share
    return joint
