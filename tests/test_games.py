"""The hybrid-game suite: builders, the two evaluation paths, and lemmas.

The heavyweight cross-checks (every lemma over the full parameter grid)
live in the acceptance tests; here each moving part is exercised at the
smallest sizes that still distinguish right from wrong.
"""

import functools
import inspect
import itertools
import random
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import pytest

from drbglab import factored, games, prob
from drbglab.bounds import birthday_exact, pr_collisions
from drbglab.drbg import DEFAULT_RESEED_INTERVAL, DrbgState, GenerateRequest, generate
from drbglab.games import (
    ALL_CHECKS,
    CALIBRATION_SPECS,
    EQUALITY_LEMMAS,
    INEQUALITY_CHECKS,
    KV,
    LEMMA_TABLE,
    CollisionAdversary,
    GameEvaluator,
    HybridParams,
    Iv,
    build_game,
    calibration_games,
    check_lemma,
    collision_detector,
    constant,
    end_to_end_distance,
    first_bit,
    gen_loop,
    generate_noV,
    generate_rb_intermediate,
    generate_spec,
    generate_v,
    iv_absdiff,
    iv_add,
    iv_equal,
    iv_leq,
    iv_scale,
    main_theorem_check,
    run_all_lemmas,
    _play,
)
from drbglab.prf import ZERO_OCTET, Block, hmac_block_prf, prf_small
from drbglab.prob import (
    EnumerationCapExceeded,
    Flat,
    Oracle,
    Return,
    bind,
    clopper_pearson,
    estimate_pr_true,
    exact_dist,
    mapc,
    query,
    run_with_oracle,
    sample,
    sample_bits,
)

F = Fraction


def params(eta=2, nc=2, bpc=2, **kw) -> HybridParams:
    return HybridParams(eta, nc, bpc, **kw)


class TestBuilders:
    def test_gen_loop_is_the_prf_chain(self):
        p = params(eta=4, nc=1, bpc=1)
        k, v = Block(4, 9), Block(4, 3)
        blocks, last = gen_loop(p, k, v, 3)
        cur = v
        for b in blocks:
            cur = p.prf(k, cur)
            assert b == cur
        assert last == blocks[-1]

    def test_gen_loop_empty(self):
        p = params(eta=4)
        v = Block(4, 3)
        assert gen_loop(p, Block(4, 9), v, 0) == ([], v)
        with pytest.raises(ValueError):
            gen_loop(p, Block(4, 9), v, -1)

    def test_generate_spec_shape(self):
        p = params(eta=4)
        st = KV(Block(4, 9), Block(4, 3))
        comp = generate_spec(p, st, 2)
        assert isinstance(comp, Return)
        blocks, st2 = comp.value
        expect, v_last = gen_loop(p, st.k, st.v, 2)
        assert blocks == expect
        assert st2.k == p.prf(st.k, Block(12, v_last.value << 8))
        assert st2.v == p.prf(st2.k, v_last)

    def test_nov_and_v_variants_commute_the_v_update(self):
        # running the trailing v update of call 1 at the head of call 2
        # leaves the concatenated output untouched
        p = params(eta=4)
        st = KV(Block(4, 9), Block(4, 3))
        out1, mid_spec = generate_spec(p, st, 2).value
        out2, _ = generate_spec(p, mid_spec, 2).value

        alt1, mid_nov = generate_noV(p, st, 2).value
        alt2, _ = generate_v(p, mid_nov, 2).value
        assert (out1, out2) == (alt1, alt2)

    def test_generate_v_front_update(self):
        p = params(eta=4)
        st = KV(Block(4, 9), Block(4, 3))
        blocks, st2 = generate_v(p, st, 1).value
        v1 = p.prf(st.k, st.v)
        assert blocks == [p.prf(st.k, v1)]
        assert st2.v == blocks[-1]

    def test_intermediate_keeps_key_and_chains_last_block(self):
        p = params(eta=2)
        st = KV(Block(2, 3), Block(2, 1))
        comp = mapc(generate_rb_intermediate(p, st, 2), lambda out: (tuple(out[0]), out[1]))
        d = exact_dist(comp)
        for (blocks, st2), pr in d.items():
            assert st2.k == st.k
            assert st2.v == blocks[-1]
            assert pr == F(1, 16)

    def test_intermediate_zero_blocks_freshens_v(self):
        p = params(eta=2)
        st = KV(Block(2, 3), Block(2, 1))
        comp = mapc(generate_rb_intermediate(p, st, 0), lambda out: (tuple(out[0]), out[1]))
        d = exact_dist(comp)
        assert len(d.support()) == 4
        for (blocks, st2), pr in d.items():
            assert blocks == () and st2.k == st.k
            assert pr == F(1, 4)

    def test_play_threads_calls_left_to_right(self):
        # each call sees the state the call before it left, and the
        # adversary sees every call's blocks in call order
        p = params(nc=3, bpc=2, adversary=lambda outs: Return(tuple(map(tuple, outs))))
        step = lambda call, st, n: Return(([st * 10 + call] * n, st + call + 1))
        d = exact_dist(_play(p, step, Return(7)))
        assert d.pr(((70, 70), (81, 81), (102, 102))) == 1
        d = exact_dist(_play(p, step, sample_bits(1)))
        assert d.pr(((0, 0), (11, 11), (32, 32))) == F(1, 2)
        assert d.pr(((10, 10), (21, 21), (42, 42))) == F(1, 2)

    def test_param_validation(self):
        for bad in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                HybridParams(*bad)

    def test_default_prf_is_keyed_and_total(self):
        f = params(eta=3).prf
        assert f is prf_small
        x = Block(3, 0b101)
        outs = {f(Block(3, k), x).value for k in range(8)}
        assert all(0 <= o < 8 for o in outs)
        assert len(outs) > 1
        assert f(Block(3, 2), x) == f(Block(3, 2), x)


class TestAdversaries:
    def test_collision_detector(self):
        hit = exact_dist(collision_detector([[Block(2, 1)], [Block(2, 1)]]))
        miss = exact_dist(collision_detector([[Block(2, 1)], [Block(2, 2)]]))
        assert hit.pr_true == 1 and miss.pr_true == 0

    @pytest.mark.parametrize(
        "name", ["collision", "first-bit", "constant-true", "constant-false", "plain-coin"]
    )
    def test_fold_agrees_with_call(self, name):
        # answer on the fold of every transcript of 1-3 blocks at eta 2,
        # grouped into calls every way, is the adversary's own call on
        # those outputs, its coins included
        adv = {
            "collision": CollisionAdversary(),
            "first-bit": first_bit,
            "constant-true": constant(True),
            "constant-false": constant(False),
            "plain-coin": TestEvaluatorModes.PLAIN[1],
        }[name]
        for nc, bpc in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
            fold = params(2, nc, bpc, adversary=adv).adversary
            for values in itertools.product(range(4), repeat=nc * bpc):
                st = fold.initial()
                for x in values:
                    st = fold.absorb(st, x, 2)
                outputs = [[Block(2, x) for x in values[c : c + bpc]]
                           for c in range(0, nc * bpc, bpc)]
                assert exact_dist(fold.answer(st)) == exact_dist(fold(outputs)), values

    def test_first_bit_and_constant(self):
        assert exact_dist(first_bit([[Block(2, 2)]])).pr_true == 1
        assert exact_dist(first_bit([[Block(2, 1)]])).pr_true == 0
        assert exact_dist(constant(True)([])).pr_true == 1
        assert exact_dist(constant(False)([[Block(2, 0)]])).pr_true == 0


GRID = [
    (2, 1, 1),
    (2, 2, 1),
    (2, 1, 2),
    (2, 2, 2),
    (3, 2, 1),
]


class TestFastAgainstEnumeration:
    """The factored evaluator must reproduce faithful enumeration
    exactly, game by game. This is the license to trust it at sizes
    enumeration cannot reach."""

    @pytest.mark.parametrize("eta,nc,bpc", GRID)
    @pytest.mark.parametrize("adv", [collision_detector, first_bit])
    def test_win_probabilities_match(self, eta, nc, bpc, adv):
        p = HybridParams(eta, nc, bpc, adversary=adv)
        ev = GameEvaluator(p)
        jobs = [("g_real", None), ("g1_prg", None), ("g_ideal", None)]
        jobs += [("gi_prg", j) for j in range(nc + 1)]
        jobs += [("gi_prf", j) for j in range(nc + 1)]
        for game, j in jobs:
            try:
                want = exact_dist(build_game(p, game, j), max_path_bits=18).pr_true
            except EnumerationCapExceeded:
                continue
            got = ev.pr(game, j)
            assert got.exact
            assert got.mid == want, (game, j)
        assert ev.mode == "exact"  # the factored path must engage here

    @pytest.mark.parametrize("eta,nc,bpc", GRID)
    def test_joint_bad_distributions_match(self, eta, nc, bpc):
        # each faithful rf/rb tree is enumerated once, with a plain
        # adversary that returns its transcript; an adversary's faithful
        # joint is then its own answer's distribution over those
        # transcripts. pr("gi_rf"/"gi_rb") is the joint's answer mass, so
        # one enumeration per oracle game pins the joint and the win
        # probability of all four adversaries
        advs = (collision_detector, first_bit, constant(True), TestEvaluatorModes.PLAIN[1])
        transcript = lambda outs: Return(tuple(tuple(b.value for b in sub) for sub in outs))
        p = HybridParams(eta, nc, bpc, adversary=transcript)
        evaluators = [GameEvaluator(params(eta, nc, bpc, adversary=adv)) for adv in advs]
        for j in range(nc):
            for oracle in ("rb", "rf"):
                runs = exact_dist(build_game(p, f"gi_{oracle}", j, with_bad=True), max_path_bits=20)
                for adv, ev in zip(advs, evaluators):
                    want: dict = {}
                    for (outs, bad), pr in runs.items():
                        answers = exact_dist(adv([[Block(eta, x) for x in sub] for sub in outs]))
                        for answer, q in answers.items():
                            want[answer, bad] = want.get((answer, bad), F(0)) + pr * q
                    joint = ev._exact(f"gi_{oracle}", j)
                    assert joint == want, (adv, oracle, j)
                    answer_true = sum((pr for (a, _), pr in joint.items() if a), F(0))
                    assert ev.pr(f"gi_{oracle}", j).mid == answer_true
                    for answer in (True, False):
                        no_bad = ev.pr_joint_no_bad(oracle, j, answer).mid
                        assert no_bad == want.get((answer, False), F(0))
        assert all(ev.mode == "exact" for ev in evaluators)


class TestBadEvent:
    @pytest.mark.parametrize("eta,nc,bpc", [(2, 2, 2), (3, 2, 2), (2, 3, 1)])
    def test_is_exactly_a_birthday_probability(self, eta, nc, bpc):
        # at i = 0 the call chains bpc fresh blocks from the initial v;
        # at i > 0 a hidden v-refresh query joins them, so one more draw
        p = HybridParams(eta, nc, bpc)
        ev = GameEvaluator(p)
        for j in range(nc):
            draws = bpc + (1 if j > 0 else 0)
            expect = birthday_exact(draws, 1 << eta)
            assert ev.pr_bad("rb", j).mid == expect

    def test_dominated_by_closed_form(self):
        p = params(eta=3, nc=2, bpc=2)
        bound = pr_collisions(2, 3)
        ev = GameEvaluator(p)
        for j in range(2):
            assert ev.pr_bad("rb", j).mid <= bound

    @staticmethod
    def rf_equal_to_rb() -> tuple[list, list]:
        """The eta-3 grid pairs (point, i) with Pr[bad] > 0, and those
        among them whose collision rf and rb joints are equal."""
        with_bad, equal = [], []
        for nc in (1, 2, 3):
            for bpc in (1, 2):
                ev = GameEvaluator(params(3, nc, bpc))
                for j in range(nc):
                    if ev.pr_bad("rb", j).mid > 0:
                        with_bad.append(((3, nc, bpc), j))
                        if ev._exact("gi_rf", j) == ev._exact("gi_rb", j):
                            equal.append(((3, nc, bpc), j))
        return with_bad, equal

    @pytest.mark.parametrize(
        "adv", [collision_detector, first_bit, constant(True)],
        ids=["collision", "first-bit", "constant"],
    )
    def test_closed_form_on_the_grid(self, adv):
        assert list(self.closed_form_mismatches(adv)) == []

    @staticmethod
    def closed_form_mismatches(adv) -> Iterator[tuple]:
        """The eta-1..3 grid's (point, oracle, i) whose Pr[bad] is not the
        birthday probability. Call i makes bpc chain queries, one more at
        i > 0 for its leading v update; their inputs are iid uniform until
        one repeats (the incoming v, then each fresh answer), and the
        padded rekey input never repeats one."""
        for eta in (1, 2, 3):
            for nc in (1, 2, 3):
                for bpc in (1, 2):
                    ev = GameEvaluator(params(eta, nc, bpc, adversary=adv))
                    for j in range(nc):
                        expect = birthday_exact(bpc + (j > 0), 1 << eta)
                        for oracle in ("rb", "rf"):
                            if ev.pr_bad(oracle, j).mid != expect:
                                yield (eta, nc, bpc), oracle, j

    def test_rf_keeps_its_cache(self, monkeypatch):
        # wherever a repeat can happen, the collision adversary sees an rf
        # answer it from the cache, so the rf and rb joints differ; every
        # rf/rb lemma still holds for an rf that forgets its cache (served
        # as rb), so no lemma catches one
        with_bad, equal = self.rf_equal_to_rb()
        assert len(with_bad) == 9 and equal == []
        steps = factored.steps
        forgetful = lambda p, game, shapes: steps(
            p, game, ["rb" if s == "rf" else s for s in shapes])
        monkeypatch.setattr(factored, "steps", forgetful)
        assert self.rf_equal_to_rb() == (with_bad, with_bad)


class TestLemmas:
    def test_full_suite_small(self):
        p = params(2, 2, 2)
        checks = run_all_lemmas(p)
        assert len(checks) == 17  # 6 * num_calls + 5 at num_calls = 2
        assert all(c.passed for c in checks)
        assert all(c.mode == "exact" for c in checks)
        assert {c.lemma for c in checks} == set(EQUALITY_LEMMAS + INEQUALITY_CHECKS)

    def test_suite_other_shape(self):
        p = params(3, 2, 1, adversary=first_bit)
        checks = run_all_lemmas(p)
        assert all(c.passed for c in checks) and len(checks) == 17

    def test_lemmas_hold_for_degenerate_prf(self):
        # the equalities are program identities: they cannot depend on
        # the function the generator is instantiated with
        broken = lambda key, x: Block(2, 0)
        p = params(2, 2, 2, prf=broken)
        for lemma in EQUALITY_LEMMAS:
            assert all(c.passed for c in check_lemma(p, lemma))

    def test_single_index_selection(self):
        p = params(2, 2, 2)
        checks = check_lemma(p, "Gi_prog_equiv_rb_oracle", i=1)
        assert len(checks) == 1 and checks[0].i == 1 and checks[0].passed

    def test_index_validation(self):
        p = params(2, 2, 2)
        with pytest.raises(ValueError):
            check_lemma(p, "Gi_prog_equiv_rb_oracle", i=2)  # admissible: 0..1
        with pytest.raises(ValueError):
            check_lemma(p, "Gi_prog_equiv_prf_oracle", i=3)  # admissible: 0..2
        with pytest.raises(ValueError):
            check_lemma(p, "no_such_lemma")

    def test_unindexed_checks_reject_an_index(self):
        p = params(2, 2, 2)
        for lemma in ("Generate_move_v_update", "G_real_is_first_hybrid",
                      "G_ideal_is_last_hybrid", "hybrid_argument", "main_theorem"):
            for i in (0, 7):
                with pytest.raises(ValueError, match="takes no index"):
                    check_lemma(p, lemma, i=i)

    def test_identical_until_bad_package(self):
        p = params(2, 2, 2)
        ev = GameEvaluator(p)
        lemmas = ["Gi_rb_rf_return_bad_same", "Gi_rb_rf_no_bad_same", "fundamental_lemma"]
        checks = [c for lemma in lemmas for c in check_lemma(p, lemma, i=1, evaluator=ev)]
        assert [c.lemma for c in checks] == lemmas
        assert all(c.passed and c.i == 1 for c in checks)

    def test_all_checks_registry(self):
        assert len(EQUALITY_LEMMAS) == 7
        assert len(INEQUALITY_CHECKS) == 3
        assert ALL_CHECKS == EQUALITY_LEMMAS + INEQUALITY_CHECKS + ("main_theorem",)

    def test_readme_table_lists_every_check(self):
        # one README row per check, in ALL_CHECKS order, with the index
        # range LEMMA_TABLE declares for it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        rows = [[cell.strip(" `") for cell in line.split("|")[1:3]]
                for line in readme.splitlines() if line.startswith("| `")]
        assert [name for name, _ in rows] == list(ALL_CHECKS)
        ranges = {None: "none", 0: "0..num_calls", 1: "0..num_calls−1"}
        assert [where for _, where in rows] == [ranges[row.short_by] for row in LEMMA_TABLE]


class TestEndToEnd:
    def test_telescoping(self):
        report = end_to_end_distance(params(2, 3, 1))
        assert len(report.adjacent) == 3
        assert report.telescope_ok
        assert iv_leq(report.end_to_end, report.total)

    def test_main_theorem_report(self):
        p = params(2, 2, 2)
        report = main_theorem_check(p)
        assert report.check.passed and report.check.mode == "exact"
        assert report.collisions.mid == pr_collisions(2, 2)
        expect_rhs = 2 * (report.prf_gap.mid + F(9, 4))
        assert report.rhs.mid == expect_rhs
        assert report.lhs.mid <= report.rhs.mid

    def test_main_theorem_via_check_lemma(self):
        checks = check_lemma(params(2, 2, 2), "main_theorem")
        assert len(checks) == 1 and checks[0].passed


class TestEvaluatorModes:
    def test_factored_on_small_eta(self):
        ev = GameEvaluator(params(2, 2, 2))
        ev.pr("g_real")
        assert ev.mode == "exact"

    # two plain callables that no built-in fold stands in for: one reads
    # the call grouping, one ORs a fair coin with an order test
    PLAIN = (
        lambda outs: Return(outs[-1][0] == outs[0][-1]),
        lambda outs: mapc(
            sample_bits(1), lambda coin: coin == 1 or outs[0][0].value < outs[-1][-1].value
        ),
    )

    @pytest.mark.parametrize("eta,nc,bpc", [(2, 1, 2), (2, 2, 1), (1, 3, 2)])
    def test_plain_adversary_folds_its_transcript(self, eta, nc, bpc):
        # a plain callable folds its transcript on the factored path, and
        # every value equals the enumeration of the faithful tree
        for adv in self.PLAIN:
            p = params(eta, nc, bpc, adversary=adv)
            ev = GameEvaluator(p)
            jobs = [("g_real", None), ("g1_prg", None), ("g_ideal", None)]
            jobs += [(game, j) for game in ("gi_prg", "gi_prf") for j in range(nc + 1)]
            for game, j in jobs:
                assert ev.pr(game, j).mid == exact_dist(build_game(p, game, j)).pr_true, (game, j)
            for j in range(nc):
                for game in ("gi_rb", "gi_rf"):
                    tree = build_game(p, game, j, with_bad=True)
                    assert ev._exact(game, j) == dict(exact_dist(tree).items()), (game, j)
            assert ev.mode == "exact"

    @pytest.mark.parametrize("point,mode", [((2, 2, 2), "exact"), ((16, 1, 1), "monte-carlo")])
    def test_non_bool_answer_is_refused(self, point, mode):
        # 1 == True, so enumeration would count Return(1) as True while
        # sampling would not: both modes refuse it by one rule
        ev = GameEvaluator(params(*point, adversary=lambda outs: Return(1)), trials=100)
        assert ev.mode == mode
        with pytest.raises(ValueError, match="must be a bool, got 1"):
            ev.pr("g_real")

    @pytest.mark.parametrize("point,mode", [((2, 2, 2), "exact"), ((16, 1, 1), "monte-carlo")])
    def test_non_bool_leaf_is_refused(self, point, mode):
        # the answer is read leaf by leaf before any leaves merge: keyed
        # as it came, 1 would merge into True when True came first
        mixed = lambda outs: bind(sample_bits(1), lambda b: Return(1 if b else True))
        p = params(*point, adversary=mixed)
        for ask in (lambda ev: ev.pr("g_real"), lambda ev: ev.pr_bad("rf", 0)):
            ev = GameEvaluator(p, trials=100)
            assert ev.mode == mode
            with pytest.raises(ValueError, match="must be a bool, got 1"):
                ask(ev)

    @pytest.mark.parametrize("eta,nc,bpc", [(2, 2, 2), (3, 2, 1)])
    def test_plain_adversary_prints_the_native_lines(self, eta, nc, bpc):
        for native in (collision_detector, first_bit):
            lines = []
            for adv in (native, lambda outs: native(outs)):
                p = params(eta, nc, bpc, adversary=adv)
                ev = GameEvaluator(p)
                checks = run_all_lemmas(p, evaluator=ev) + [main_theorem_check(p, ev).check]
                lines.append([c.line() for c in checks])
            assert lines[0] == lines[1]

    def test_plain_adversary_past_the_coin_cap(self):
        # coins that exact_dist cannot enumerate put the evaluator past its
        # budget: every value is then a Monte Carlo estimate
        adv = lambda outs: mapc(sample_bits(25), lambda x: x % 2 == 0)
        p = params(2, 1, 1, adversary=adv)
        ev = GameEvaluator(p, trials=2000, seed=1)
        checks = run_all_lemmas(p, evaluator=ev) + [main_theorem_check(p, ev).check]
        assert ev.mode == "monte-carlo"
        assert all(c.mode == "monte-carlo" and c.passed for c in checks)
        for game, j in (("g_real", None), ("g_ideal", None), ("gi_prf", 0), ("gi_rf", 0)):
            got = ev.pr(game, j)
            assert not got.exact and got.lo <= F(1, 2) <= got.hi, (game, j)

    def test_held_joint_outlives_the_budget(self):
        # only the all-zero transcript draws more coins than exact_dist
        # enumerates; gi_rb i=0 never shows it and g_ideal does. Once
        # g_ideal puts the evaluator past its budget, the gi_rb joint it
        # already holds still answers every query about that game
        def adv(outs):
            if all(b.value == 0 for sub in outs for b in sub):
                return mapc(sample_bits(25), lambda x: x % 2 == 0)
            return Return(outs[0][0] == outs[-1][0])

        ev = GameEvaluator(params(2, 2, 1, adversary=adv), trials=200, seed=0)
        assert ev.pr("gi_rb", 0) == Iv.of_fraction(F(7, 16))
        assert not ev.pr("g_ideal").exact and ev.mode == "monte-carlo"
        assert ev.pr_bad("rb", 0) == Iv.of_fraction(F(0))
        assert ev.pr_joint_no_bad("rb", 0, True) == Iv.of_fraction(F(7, 16))
        assert ev.pr_joint_no_bad("rb", 0, False) == Iv.of_fraction(F(9, 16))
        assert not ev.pr("gi_rf", 0).exact  # a joint not yet held is estimated

    def test_monte_carlo_on_wide_blocks(self):
        p = HybridParams(16, 2, 2)
        ev = GameEvaluator(p, trials=500, seed=3)
        got = ev.pr("g_real")
        assert not got.exact
        assert 0 <= got.lo <= got.mid <= got.hi <= 1
        assert ev.mode == "monte-carlo"

    def test_monte_carlo_bad_interval_is_pooled(self):
        # the (True, bad) and (False, bad) estimates replay the same
        # seeded trials, so their hit counts add up to the bad-event count
        p = HybridParams(16, 2, 2)
        ev = GameEvaluator(p, trials=500, seed=3)
        got = ev.pr_bad("rb", 1)
        assert ev._exact("gi_rb", 1) is None and not got.exact
        cells = ev._estimates("gi_rb", 1)
        true_bad, false_bad = cells[(True, True)], cells[(False, True)]
        hits = true_bad.hits + false_bad.hits
        bad = estimate_pr_true(mapc(build_game(p, "gi_rb", 1, with_bad=True), lambda out: out[1]), 500, 3)
        assert hits == bad.hits
        low, high = clopper_pearson(hits, 500)
        assert (got.lo, got.mid, got.hi) == (low, hits / 500, high)
        assert got.hi < true_bad.ci_high + false_bad.ci_high

    def test_results_memoized(self):
        ev = GameEvaluator(params(2, 2, 2))
        assert ev.pr("g_ideal") is ev.pr("g_ideal")

    def test_joint_index_validation(self):
        # one range check in every mode: i in 0..nc for gi_prg and gi_prf,
        # 0..nc-1 for the oracle games, which need a call i to serve
        for eta in (2, 16):  # factored, then Monte Carlo
            p = params(eta, 2, 2)
            ev = GameEvaluator(p)
            for game, j in (("gi_prf", 7), ("gi_prg", 7), ("gi_prg", -1), ("gi_rf", 2)):
                with pytest.raises(ValueError):
                    ev.pr(game, j)
            with pytest.raises(ValueError):
                ev.pr_bad("rb", 2)
            # the bad event belongs to the rf and rb oracles only
            for oracle in ("prf", "prg", "gi_rb"):
                with pytest.raises(ValueError):
                    ev.pr_bad(oracle, 0)
                with pytest.raises(ValueError):
                    ev.pr_joint_no_bad(oracle, 0, True)
            with pytest.raises(ValueError):
                ev.pr("gi_rf")  # no hybrid index
            with pytest.raises(ValueError):
                build_game(p, "gi_prg", 7)

    # gi_rf and gi_rb need a call i to serve; the whole-run games take no
    # index. The faithful and lean builders, and the evaluator in both
    # modes, refuse the same pairs
    @pytest.mark.parametrize("game,i", [
        ("gi_rf", 2), ("gi_rb", 2), ("g_real", 0), ("g1_prg", 1), ("g_ideal", 2),
    ])
    def test_rejected_game_index_pairs(self, game, i):
        for eta in (2, 16):  # factored, then Monte Carlo
            p = params(eta, 2, 2)
            with pytest.raises(ValueError):
                build_game(p, game, i)
            with pytest.raises(ValueError):
                games._lean(p, game, i)
            with pytest.raises(ValueError):
                GameEvaluator(p).pr(game, i)


def grid_jobs(adversary):
    """The games of the eta 1..3 x calls 1..3 x blocks 1..2 grid, each
    oracle game also with its bad flag, as (params, (game, i, with_bad))."""
    for eta in (1, 2, 3):
        for nc in (1, 2, 3):
            for bpc in (1, 2):
                p = params(eta, nc, bpc, adversary=adversary)
                jobs = [("g_real", None, False), ("g1_prg", None, False), ("g_ideal", None, False)]
                jobs += [(game, j, False) for game in ("gi_prg", "gi_prf") for j in range(nc + 1)]
                jobs += [(game, j, with_bad) for game in ("gi_rf", "gi_rb") for j in range(nc)
                         for with_bad in (False, True)]
                for job in jobs:
                    yield p, job


# Each pin below yields its mismatches as it finds them, so a kill, which
# needs only the first, does not run the whole pin.


def finds(mismatches: Iterator) -> bool:
    """Whether a pin finds a mismatch; it stops at the first."""
    return next(mismatches, None) is not None


def grid_mismatches(adversary, trials: int = 20) -> Iterator[tuple]:
    """The grid games whose lean and faithful trees differ in the outcome
    of some seeded trial."""
    for p, job in grid_jobs(adversary):
        got = [sample(games._lean(p, *job), seed) for seed in range(trials)]
        want = [sample(build_game(p, *job), seed) for seed in range(trials)]
        if got != want:
            yield ((p.eta, p.num_calls, p.blocks_per_call),) + job


def calibration_mismatches(trials: int = 100) -> Iterator[int]:
    """The CALIBRATION_SPECS entries whose lean and faithful trees give
    different hit counts at seed 0xCA11 + j."""
    for j, (game, eta, nc, bpc, adversary, _, i) in enumerate(CALIBRATION_SPECS):
        p = params(eta, nc, bpc, adversary=adversary)
        hits = [estimate_pr_true(comp(p, game, i), trials, 0xCA11 + j).hits
                for comp in (games._lean, build_game)]
        if hits[0] != hits[1]:
            yield j


def exact_mismatches(exact: list[Fraction]) -> Iterator[int]:
    """The CALIBRATION_SPECS entries whose factored value is not the
    literal in exact."""
    return (j for j, (game, eta, nc, bpc, adversary, _, i) in enumerate(CALIBRATION_SPECS)
            if GameEvaluator(params(eta, nc, bpc, adversary=adversary)).pr(game, i).mid != exact[j])


def labelled_cases() -> list[tuple[HybridParams, str, list[str]]]:
    """Every shape list whose steps only compare block values, which
    propagate runs over labelled states: ideal calls, with at most one rf
    or rb call anywhere among them. At eta 1..4 x calls 1..3 x blocks
    1..2, with collision, first-bit and constant, wherever the evaluator
    admits the adversary: all but collision at (4,3,2), whose concrete
    joints take 9 s."""
    out = []
    for eta, nc, bpc in itertools.product((1, 2, 3, 4), (1, 2, 3), (1, 2)):
        for adv in (collision_detector, first_bit, constant(True)):
            p = params(eta, nc, bpc, adversary=adv)
            if not GameEvaluator(p)._factored:
                continue
            out.append((p, "g_ideal", ["ideal"] * nc))
            for c, oracle in itertools.product(range(nc), ("rf", "rb")):
                shapes = ["ideal"] * nc
                shapes[c] = oracle
                out.append((p, f"gi_{oracle}", shapes))
    return out


LABELLED_CASES = labelled_cases()


@functools.cache
def concrete_joints() -> tuple:
    """The concrete interpreter's joint of each labelled case, computed once."""
    return tuple(factored._propagate_concrete(p, factored.steps(p, game, shapes))
                 for p, game, shapes in LABELLED_CASES)


def labelled_mismatches() -> Iterator[tuple]:
    """The labelled cases whose joint from propagate, as the evaluator
    calls it, is not the concrete interpreter's."""
    return (
        ((p.eta, p.num_calls, p.blocks_per_call), type(p.adversary).__name__, shapes)
        for (p, game, shapes), want in zip(LABELLED_CASES, concrete_joints())
        if games.propagate(p, game, shapes) != want
    )


SHAPES = ("ideal", "spec", "nov", "v", "prf", "rf", "rb")


def language_cases() -> list[tuple[HybridParams, str, list[str]]]:
    """The shape language: every list of the seven shapes with at most one
    oracle call that factored.steps accepts, under the game its oracle
    call names (gi_prg when it has none), and each all-ideal list under
    g_ideal too. At eta 1 x calls 1..3 x blocks 1..2, and at eta 2 x
    calls 1..2 x blocks 1, with collision and first-bit."""
    points = [(1, nc, bpc) for nc in (1, 2, 3) for bpc in (1, 2)] + [(2, 1, 1), (2, 2, 1)]
    out = []
    for point, adv in itertools.product(points, (collision_detector, first_bit)):
        p = params(*point, adversary=adv)
        for shapes in map(list, itertools.product(SHAPES, repeat=p.num_calls)):
            oracles = [s for s in shapes if s in ("prf", "rf", "rb")]
            if len(oracles) > 1:
                continue
            game = f"gi_{oracles[0]}" if oracles else "gi_prg"
            try:
                factored.steps(p, game, shapes)
            except ValueError:  # a prf call after a deterministic one
                continue
            out.append((p, game, shapes))
            if set(shapes) == {"ideal"}:
                out.append((p, "g_ideal", shapes))
    return out


LANGUAGE_CASES = language_cases()


def language_mismatches() -> Iterator[tuple]:
    """The language cases whose (answer, bad) joint from the propagator
    is not the enumeration of the faithful tree."""
    return (
        ((p.eta, p.num_calls, p.blocks_per_call), type(p.adversary).__name__, game, shapes)
        for p, game, shapes in LANGUAGE_CASES
        if games.propagate(p, game, shapes)
        != dict(exact_dist(games.faithful(p, game, shapes, with_bad=True)).items())
    )


def drbg_mismatches(states: int = 50) -> Iterator[tuple[int, int, int]]:
    """The (blocks, k, v) at which the step list's 'spec' generate at eta
    256, with the HMAC PRF, differs from drbg.generate on a request of
    that many 32-octet blocks: in the output octets or in the new state."""
    rng = random.Random(0x256)
    for n in (1, 2, 3):
        fn = factored.generate(
            HybridParams(256, 1, n, prf=hmac_block_prf), "spec", lambda adv, x, eta: adv + (x,)
        )
        for _ in range(states):
            k, v = rng.getrandbits(256), rng.getrandbits(256)
            blocks, k2, v2, _, _ = fn(((), k, v, False, ()), None)
            st = DrbgState(
                key=k.to_bytes(32, "big"), v=v.to_bytes(32, "big"), reseed_counter=1,
                entropy_len=32, prediction_resistance=False,
                reseed_interval=DEFAULT_RESEED_INTERVAL,
            )
            octets, new = generate(st, GenerateRequest(32 * n))
            got = (b"".join(x.to_bytes(32, "big") for x in blocks), k2.to_bytes(32, "big"),
                   v2.to_bytes(32, "big"))
            if got != (octets, new.key, new.v):
                yield n, k, v


class TestLeanSampler:
    """Monte Carlo samples the lean computation of each game's call
    shapes. It must draw in the faithful tree's order, so every seeded
    outcome, and with it every hit count, is the faithful tree's."""

    @pytest.mark.parametrize(
        "adv",
        [collision_detector, first_bit, constant(True), TestEvaluatorModes.PLAIN[1]],
        ids=["collision", "first-bit", "constant", "plain-coin"],
    )
    def test_outcomes_match_faithful_on_the_grid(self, adv):
        # equal outcomes trial by trial: equal hits for every game and for
        # each of the four (answer, bad) cells of the oracle games
        assert list(grid_mismatches(adv)) == []

    def test_calibration_hits_match_faithful(self):
        assert list(calibration_mismatches()) == []

    def test_flat_node_under_bind_and_oracle(self):
        # sample runs the runner, then the enclosing Bind on the same
        # stream, as it runs the faithful tree; the node has no tree for
        # run_with_oracle to expand, so it is refused
        p = params(2, 2, 1, adversary=TestEvaluatorModes.PLAIN[1])
        node = games._lean(p, "gi_rf", 1, with_bad=True)
        tree = build_game(p, "gi_rf", 1, with_bad=True)
        assert isinstance(node, Flat)
        cell = lambda comp: mapc(comp, lambda x: x == (True, False))
        coin_after = lambda comp: bind(comp, lambda x: mapc(sample_bits(2), lambda c: (x, c)))
        for seed in range(50):
            assert sample(cell(node), seed) == sample(cell(tree), seed)
            assert sample(coin_after(node), seed) == sample(coin_after(tree), seed)
        counter = Oracle(lambda st, inp: Return((inp, st + 1)), 0)
        with pytest.raises(TypeError, match="can only be sampled"):
            run_with_oracle(bind(node, query), counter)

    def test_default_prf_int_is_prf_small(self):
        # the default prf_int goes straight to prf.py's cache on ints, so
        # its chain and rekey encodings are pinned to prf_small on Blocks
        def mismatches(eta, pairs):
            f = HybridParams(eta, 1, 1).prf_int
            return [
                (key, value) for key, value in pairs
                if f(key, "c", value) != prf_small(Block(eta, key), Block(eta, value)).value
                or f(key, "r", value)
                != prf_small(Block(eta, key), Block(eta, value) + ZERO_OCTET).value
            ]

        for eta in range(1, 5):
            assert mismatches(eta, itertools.product(range(1 << eta), repeat=2)) == [], eta
        rng = random.Random(0x1D7)
        for eta in (16, 256):
            pairs = [(rng.getrandbits(eta), rng.getrandbits(eta)) for _ in range(200)]
            assert mismatches(eta, pairs) == [], eta

    def test_custom_prf_sees_every_call(self):
        # a PRF the caller passes gets no cache in front of it
        calls = []

        def counted(key, x):
            calls.append((key, x))
            return prf_small(key, x)

        p = HybridParams(16, 2, 2, prf=counted)
        for _ in range(3):
            p.prf_int(5, "c", 9)
            p.prf_int(5, "r", 9)
        assert calls == [(Block(16, 5), Block(16, 9)), (Block(16, 5), Block(24, 9 << 8))] * 3
        # and, through the Block wrapper, the evaluator gives the records
        # the default PRF gives
        lines = lambda prf: [c.line() for c in run_all_lemmas(params(2, 2, 2, prf=prf))]
        assert lines(counted) == lines(None)

    def test_step_list_generate_matches_drbg(self):
        # criterion 6 pins the faithful generate_spec to the DRBG; this
        # pins the step list's, which the lemmas cannot check: they hold
        # for any function in place of the PRF
        assert list(drbg_mismatches()) == []

    # Mutation analysis (DeMillo, Lipton & Sayward, "Hints on Test Data
    # Selection", IEEE Computer 1978): each one-line change to the shared
    # step list, generate call, query body or trace narrowing, to the
    # concrete interpreter's fold, to the labelled states or to the
    # runner must fail the pins named for it. The exact
    # and bad pins read the propagator, the labelled pin its labelled
    # path against the concrete one, the drbg pin the step list's generate
    # call, and the others the sampler. The exact pin must kill exactly
    # the mutants that name it: the draw-order mutants and the runner
    # leave every exact joint as it is, so only a sampler pin sees them.
    # (what the mutant does, the line, its mutation, the pins that kill
    # it)
    MUTANTS = [
        # only coins drawn after the shifted blocks show it: a cache hit
        # repeats an output, so a collision is seen either way, and the
        # first block is drawn before any hit
        ("rf draws on a cache hit",
         "rule = NEW_INPUT if cache else ALWAYS",
         "rule = ALWAYS",
         ("grid, plain coin",)),
        # the propagator raises on the k or v it reads undrawn
        ("k and v are not drawn in an oracle game",
         'elif game != "g_ideal":',
         'elif game in ("g_real", "g1_prg", "gi_prg"):',
         ("calibration", "exact")),
        ("gi_prf draws its key after k and v",
         "out = [DRAW_K, UNREAD, DRAW_V]",
         "out = [UNREAD, DRAW_V, DRAW_K]",
         ("calibration",)),
        # the fold, not the draw order: what the adversary sees
        ("a hidden v-update query is absorbed",
         "query(p, cache, visible=False)",
         "query(p, cache, visible=True)",
         ("calibration", "exact")),
        ("an ideal block is not absorbed",
         "return absorb(st[ADV], x, eta), st[K], x, st[BAD], st[ORC]",
         "return st[ADV], st[K], x, st[BAD], st[ORC]",
         ("calibration", "exact")),
        # rf keeps no answers, so it never sees a repeat. The sampler and
        # the propagators share the one query body; each mutant installs
        # it in one interpreter alone (see ALONE), so only that
        # interpreter's pins may see it
        ("rf forgets its cache in the propagator",
         "trace += ((v, x),)",
         "trace += () if cache else ((v, x),)",
         ("exact", "labelled")),
        ("rf forgets its cache in the sampler",
         "trace += ((v, x),)",
         "trace += () if cache else ((v, x),)",
         ("calibration",)),
        # the runner's new-input test alone, the step list unchanged: as
        # with the rule above, only coins drawn after the shifted blocks
        # show it
        ("the runner draws on an rf cache hit",
         "if rule is NEVER or rule is NEW_INPUT and st[V] in dict(st[ORC]):",
         "if rule is NEVER:",
         ("grid, plain coin",)),
        # k is never drawn during an oracle call, so the narrowing keeps
        # no entry and the last query never sees a repeat
        ("the narrowed trace keeps the entry at k",
         "if entry[0] == v:\n            return adv, k, v, bad, (entry,)",
         "if entry[0] == k:\n            return adv, k, v, bad, (entry,)",
         ("exact",)),
        # a query after the first then sees only the previous query's
        # input, so in a call of three queries a third input equal to the
        # first goes unseen: Pr[bad] drops, while no answer marginal moves
        ("the trace is narrowed before every query",
         "last_read.append(ORC in step.reads and ORC not in live)",
         "last_read.append(ORC in step.reads)",
         ("bad",)),
        # rekey and chain inputs are no longer kept apart. Every lemma
        # holds for any function in place of the PRF, so none sees it;
        # the pins against the faithful trees, literals or the DRBG do
        ("the rekey uses the chain kind",
         'k2 = f(k, "r", w)',
         'k2 = f(k, "c", w)',
         ("grid, plain coin", "calibration", "exact", "drbg at eta 256")),
        # the generate call's shapes: each moves every later output
        ("the spec shape drops its final v update",
         'w = f(k2, "c", w)',
         "w = w",
         ("calibration", "exact", "drbg at eta 256", "grid, plain coin")),
        ("the v shape skips its leading v update",
         'w = f(k, "c", v) if shape == "v" else v',
         "w = v",
         ("calibration", "exact", "grid, plain coin")),
        ("the rekey reads the incoming v",
         'k2 = f(k, "r", w)',
         'k2 = f(k, "r", v)',
         ("calibration", "exact", "drbg at eta 256", "grid, plain coin")),
        # a generate call's table: a state whose k has a row from another
        # v absorbs that v's outputs. The grid pin builds a node per
        # trial, so each table serves one state, and the drbg pin's
        # 256-bit keys never repeat: neither sees it
        ("the table is keyed on k alone",
         "key = k, v",
         "key = k",
         ("calibration", "exact", "language")),
        # the concrete interpreter's fold of a draw-only step into its
        # reader: an oracle call's first query then answers with its own
        # input, and the masses sum to 2^-eta. Pr[bad] of two queries is
        # 2^-eta either way, so the bad pin misses it
        ("a folded draw hands its block to a reader that also draws",
         "and at + 1 < len(plans) and not plans[at + 1].draw:",
         "and at + 1 < len(plans):",
         ("exact", "language")),
        # an equivalent mutant: a draw left in place may land in a slot
        # dead until it is overwritten, which scales every mass and the
        # denominator alike; no pin may kill it, the exact pin least of
        # all, while test_every_planned_draw_lands_live does
        ("plan moves no draw",
         "if not step.reads and step.rule is not NEVER:",
         "if False:",
         ()),
        # the rule is each step's only draw declaration: an ideal block
        # that declares no read is moved like a draw-only step, or dropped
        ("an ideal block does not declare its read of the fold",
         "Step((ADV,), (V,), ALWAYS, ideal_block)",
         "Step((), (V,), ALWAYS, ideal_block)",
         ("exact",)),
        # every rf query then answers a new input with block 0
        ("the propagator does not draw for an rf query",
         "draw = step.rule is not NEVER",
         "draw = step.rule is ALWAYS",
         ("exact", "bad")),
        # the labelled states: a draw's weights then sum past 2^eta
        ("the fresh weight is off by one",
         "fresh = [(lowest, end - lowest) for lowest, end in zip(free, bounds[1:]) if lowest < end]",
         "fresh = [(lowest, end - lowest + 1) for lowest, end in zip(free, bounds[1:]) if lowest < end]",
         ("labelled", "exact")),
        # a value drawn before first-bit's state is set counts in class 0,
        # so the next draw lands on it too often. Only an oracle call
        # first draws such a value (v), and no calibration game has one
        ("a colour is ignored",
         "free[bisect_right(bounds, x) - 1] += 1",
         "free[0] += 1",
         ("labelled",)),
        # only the collision fold holds values, and relabelling it then
        # finds no label for one it alone holds
        ("a live value is forgotten in the relabelling",
         "order += sym.held(adv)",
         "order += ()",
         ("labelled", "exact")),
    ]
    PINS = {
        "grid, plain coin": lambda: grid_mismatches(TestEvaluatorModes.PLAIN[1]),
        "calibration": calibration_mismatches,
        "exact": lambda: exact_mismatches(TestCalibrationCorpus.EXACT),
        "bad": lambda: TestBadEvent.closed_form_mismatches(collision_detector),
        "drbg at eta 256": drbg_mismatches,
        "labelled": labelled_mismatches,
        "language": language_mismatches,
    }
    # the one of games' interpreters a mutant named here is installed in;
    # every other mutant replaces both
    ALONE = {
        "rf forgets its cache in the propagator": "propagate",
        "rf forgets its cache in the sampler": "sampler",
    }
    # read when this module is imported: an edit to the tree during a run
    # then cannot move a mutated line away from the loaded code
    SOURCE = inspect.getsource(factored)

    @pytest.mark.parametrize(
        "what,line,mutation,pins", MUTANTS, ids=[m[0].replace(" ", "-") for m in MUTANTS]
    )
    def test_mutant_fails_its_pin(self, what, line, mutation, pins, monkeypatch):
        source = self.SOURCE
        assert source.count(line) == 1, "the mutated line must be in factored once"
        namespace = {"__name__": "drbglab._mutant", "__package__": "drbglab"}
        exec(compile(source.replace(line, mutation), factored.__file__, "exec"), namespace)
        for name in [self.ALONE[what]] if what in self.ALONE else ["sampler", "propagate"]:
            monkeypatch.setattr(games, name, namespace[name])
        monkeypatch.setattr(factored, "generate", namespace["generate"])

        def kills(pin: str) -> bool:
            try:
                return finds(self.PINS[pin]())
            except TypeError:  # a k or v read before it is drawn
                return True
            except KeyError:  # a value the relabelling gave no label
                return True

        assert all(kills(pin) for pin in pins if pin != "exact"), what
        assert kills("exact") == ("exact" in pins), what

    # The faithful trees are the specification every fast path is pinned
    # to, so a one-line change to games.py's interpreter of the call
    # shapes, or to a primitive it runs, must fail the lean-vs-faithful
    # pins. The exact pin reads the propagator alone, so it must kill
    # none of them. The language pin compares exact joints, so it must
    # kill exactly the interpreter's own mutants that name it: a
    # draw-order mutant moves no joint. (what the mutant does, the
    # function, the line, its mutation, the pins that kill it)
    FAITHFUL_MUTANTS = [
        ("generate_spec drops its final v update", "generate_spec",
         "v2 = p.prf(k2, v_last)",
         "v2 = v_last",
         ("grid, plain coin", "calibration")),
        ("generate_v chains from the incoming v", "generate_v",
         "blocks, v_last = gen_loop(p, state.k, v1, n)",
         "blocks, v_last = gen_loop(p, state.k, state.v, n)",
         ("grid, plain coin", "calibration")),
        ("random_func forgets its cache", "random_func",
         "if past_inp == inp:",
         "if False:",
         ("grid, plain coin", "calibration")),
        ("_generate_oc skips its leading v-update query", "_generate_oc",
         "return bind(query(state.v), lambda v1: chain(v1, n, ()))",
         "return chain(state.v, n, ())",
         ("grid, plain coin", "calibration")),
        # only the bad event reads an rb trace, and only the grid's
        # (answer, bad) jobs sample it: no calibration game does
        ("rb_oracle records no query", "rb_oracle",
         "trace + ((inp, b),)",
         "trace",
         ("grid, plain coin",)),
        ("an oracle call skips its leading v update at every index", "faithful",
         "nov=(call == 0)",
         "nov=True",
         ("grid, plain coin", "calibration", "language")),
        # two instantiate draws that nothing reads shift every later block
        ("g_ideal draws an instantiate", "faithful",
         'Return(None) if game == "g_ideal" else instantiate_spec(p)',
         "instantiate_spec(p)",
         ("grid, plain coin", "calibration")),
    ]
    FAITHFUL_SOURCES = {name: inspect.getsource(getattr(games, name))
                        for _, name, *_ in FAITHFUL_MUTANTS}

    @pytest.mark.parametrize(
        "what,builder,line,mutation,pins", FAITHFUL_MUTANTS,
        ids=[m[0].replace(" ", "-") for m in FAITHFUL_MUTANTS],
    )
    def test_faithful_mutant_fails_its_pin(self, what, builder, line, mutation, pins,
                                           monkeypatch):
        source = self.FAITHFUL_SOURCES[builder]
        assert source.count(line) == 1, f"the mutated line must be in {builder} once"
        namespace = dict(vars(games))
        exec(compile(source.replace(line, mutation), games.__file__, "exec"), namespace)
        monkeypatch.setattr(games, builder, namespace[builder])
        checked = set(pins) | {"exact"} | ({"language"} if builder == "faithful" else set())
        assert {pin for pin in checked if finds(self.PINS[pin]())} == set(pins), what


class TestLumping:
    """Slots that no later step reads are emptied, and so are the trace
    entries that its last query does not read, so states that differ only
    there merge."""

    def test_dead_slots_and_useless_draws(self):
        f = factored
        # one rf call of one block: v is drawn just before its query, which
        # empties v and the trace; nothing reads k, so neither the
        # instantiate k nor the rekey's answer is drawn. The trace is empty
        # before the one query, so nothing narrows it
        p = params(3, 1, 1)
        rf = f.steps(p, "gi_rf", ["rf"])
        assert rf[0] is rf[-1] is f.DRAW_K
        draw_v, query = f.plan(rf)
        assert draw_v == (f.DRAW_V.fn, True, None)
        assert query == (rf[2].fn, True, f.CLEAR[frozenset({f.V, f.ORC})])
        # gi_prg(1): k waits for call 1's generate, the first step to read
        # it, and the instantiate v goes, since the ideal call overwrites it
        p = params(2, 2, 1)
        step_list = f.steps(p, "gi_prg", games._call_shapes(p, "gi_prg", 1))
        draw_k, draw_v, ideal, call_1 = step_list
        assert (draw_k, draw_v) == (f.DRAW_K, f.DRAW_V)
        assert [pl.fn for pl in f.plan(step_list)] == [ideal.fn, draw_k.fn, call_1.fn]
        # an all-ideal game draws its ideal blocks and nothing else
        for game in ("g_ideal", "gi_prg", "gi_prf"):
            step_list = f.steps(p, game, ["ideal", "ideal"])
            plans = f.plan(step_list)
            assert [pl.fn for pl in plans] == [step_list[-1].fn] * 2
            assert all(pl.draw for pl in plans)
        # gi_rf(1): the hidden v-update query, the step before the last
        # visible one, leaves only the trace's entry at its answer
        step_list = f.steps(p, "gi_rf", games._call_shapes(p, "gi_rf", 1))
        plans = f.plan(step_list)
        ideal, hidden, visible = step_list[2:5]
        assert [pl.fn for pl in plans] == [ideal.fn, hidden.fn, visible.fn]
        assert plans[1].clear is f.narrow
        assert [plans[0].clear, plans[2].clear] == [None, f.CLEAR[frozenset({f.V, f.ORC})]]
        trace = ((3, 0), (2, 1), (0, 3))  # three inputs in query order
        assert f.narrow(("adv", None, 2, False, trace)) == ("adv", None, 2, False, ((2, 1),))
        assert f.narrow(("adv", None, 1, False, trace)) == ("adv", None, 1, False, ())
        # games without an oracle carry no narrowing
        jobs = [("g_real", None), ("g1_prg", None), ("g_ideal", None)]
        jobs += [(game, j) for game in ("gi_prg", "gi_prf") for j in range(3)]
        for game, j in jobs:
            step_list = f.steps(p, game, games._call_shapes(p, game, j))
            clears = {pl.clear for pl in f.plan(step_list)}
            assert clears <= {None, *f.CLEAR.values()}, (game, j)

    def test_every_planned_draw_lands_live(self):
        # what lets the propagator draw by a step's rule alone: each kept
        # draw-only step (no reads, a rule that draws) fills slots that a
        # later step reads before any overwrites them
        f, dead = factored, []
        for p, (game, j, with_bad) in grid_jobs(collision_detector):
            if with_bad:
                continue
            step_list = f.steps(p, game, games._call_shapes(p, game, j))
            by_fn = {step.fn: step for step in step_list}
            kept = [by_fn[pl.fn] for pl in f.plan(step_list)]
            for at, step in enumerate(kept):
                if step.reads or step.rule is f.NEVER:
                    continue
                for slot in step.writes:
                    uses = (s for s in kept[at + 1:] if slot in s.reads or slot in s.writes)
                    first = next(uses, None)
                    if first is None or slot not in first.reads:
                        dead.append(((p.eta, p.num_calls, p.blocks_per_call), game, j, at, slot))
        assert dead == []

    def test_shared_shape_lists_share_a_joint(self):
        # the joint memo is keyed by shape list, while each game's step
        # list also has its own instantiate draws: games that share a shape
        # list must give equal joints
        for eta, nc, bpc in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
            p = params(eta, nc, bpc)
            ideal = ["ideal"] * nc
            assert (factored.propagate(p, "g_ideal", ideal)
                    == factored.propagate(p, "gi_prg", ideal)
                    == factored.propagate(p, "gi_prf", ideal))
            shapes = games._call_shapes(p, "g1_prg", None)
            assert shapes == games._call_shapes(p, "gi_prg", 0)
            assert factored.propagate(p, "g1_prg", shapes) == factored.propagate(p, "gi_prg", shapes)

    # the peak merged-state count of one game's propagation over concrete
    # states: 12,888, 9,136 and 22,968 before dead slots were emptied,
    # then 2,808, 6,672, 8,296 and 54,256 before the trace was narrowed
    # for its last query. Over labelled states, the fifth entry. The last
    # was 4,608 before a draw-only step ran as one transition with the
    # generate call that reads its slot: the rekey's 2^eta fresh keys
    PEAKS = [((3, 2, 2), "gi_rf", 1, False, 512), ((3, 3, 2), "gi_rb", 2, False, 2304),
             ((3, 3, 2), "gi_rf", 2, False, 2304), ((4, 2, 2), "gi_rf", 1, False, 4096),
             ((3, 3, 2), "gi_rf", 2, True, 6), ((3, 3, 2), "gi_rb", 1, False, 592)]

    # ids leave the bound out, so tightening one keeps the test's name
    @pytest.mark.parametrize(
        "point,game,j,labelled,bound", PEAKS,
        ids=["{}-{}-{}-{}-{}{}".format(*pt, g, j, "-labelled" * lab) for pt, g, j, lab, _ in PEAKS],
    )
    def test_peak_states(self, point, game, j, labelled, bound, monkeypatch):
        merge, peak = factored.merge, [0]

        def counted(*transition):
            out = merge(*transition)
            peak[0] = max(peak[0], len(out))
            return out

        monkeypatch.setattr(factored, "merge", counted)
        p = params(*point)
        shapes = games._call_shapes(p, game, j)
        if labelled:
            factored.propagate(p, game, shapes)
        else:
            factored._propagate_concrete(p, factored.steps(p, game, shapes))
        assert peak[0] > 0  # the hook sees the interpreter's transitions
        assert peak[0] <= bound

    def test_joints_memoized_by_shape_list(self, monkeypatch):
        # g_ideal, gi_prg(nc) and gi_prf(nc) share one joint, and so do
        # g1_prg and gi_prg(0): a suite propagates each shape list once
        propagate, shapes = games.propagate, []

        def counted(p, game, call_shapes):
            shapes.append(tuple(call_shapes))
            return propagate(p, game, call_shapes)

        monkeypatch.setattr(games, "propagate", counted)
        p = params(2, 2, 2)
        ev = GameEvaluator(p)
        run_all_lemmas(p, evaluator=ev)
        main_theorem_check(p, ev)
        assert len(shapes) == len(set(shapes))
        assert ev._exact("g_ideal", None) is ev._exact("gi_prg", 2) is ev._exact("gi_prf", 2)
        assert ev._exact("g1_prg", None) is ev._exact("gi_prg", 0)
        assert len(shapes) == 10  # 3 of the 13 games reuse a joint


class TestLabelledStates:
    """A list whose steps only compare block values runs over labelled
    states, one per orbit of the value relabellings that keep the fold's
    colours, and gives the concrete interpreter's joint."""

    def test_equal_to_the_concrete_interpreter(self, monkeypatch):
        want = concrete_joints()
        assert len(want) == 353

        def concrete(*args):
            raise AssertionError("a labelled list ran over concrete states")

        monkeypatch.setattr(factored, "_propagate_concrete", concrete)
        assert list(labelled_mismatches()) == []

    def test_lists_that_read_values_stay_concrete(self, monkeypatch):
        # a generate call reads its key, and a plain callable's fold has no
        # symmetric form
        def labelled(*args):
            raise AssertionError("a list that reads values ran over labelled states")

        monkeypatch.setattr(factored, "_propagate_labelled", labelled)
        p = params(2, 2, 1)
        plain = params(2, 2, 1, adversary=TestEvaluatorModes.PLAIN[1])
        for q, game, shapes in ((p, "gi_prg", ["ideal", "v"]), (p, "gi_rf", ["rf", "v"]),
                                (p, "gi_prf", ["prf", "ideal"]), (plain, "g_ideal", ["ideal"] * 2)):
            step_list = factored.steps(q, game, shapes)
            assert factored.propagate(q, game, shapes) == factored._propagate_concrete(q, step_list)

    @pytest.mark.parametrize("adv", [collision_detector, first_bit], ids=["collision", "first-bit"])
    def test_bad_event_in_closed_form_at_wide_eta(self, adv):
        # a second derivation of the birthday probability of
        # TestBadEvent::test_closed_form_on_the_grid, at widths whose
        # concrete states could never be listed; the evaluator does not
        # admit these points, so its records stay Monte Carlo
        for point in ((16, 2, 2), (16, 3, 2), (128, 2, 2), (256, 3, 4)):
            p = params(*point, adversary=adv)
            i = p.num_calls - 1
            for game in ("gi_rf", "gi_rb"):
                joint = factored.propagate(p, game, games._call_shapes(p, game, i))
                pr_bad = sum((pr for (_, bad), pr in joint.items() if bad), F(0))
                assert pr_bad == birthday_exact(p.blocks_per_call + (i > 0), 1 << p.eta), (point, game)


class TestCallShapes:
    # every (game, i) at num_calls 3, written out from the ten builders the
    # one faithful interpreter replaced: g_real ran generate_spec at every
    # call; g1_prg and gi_prg(i) ran i ideal calls, then generate_noV at
    # call 0 and generate_v after it; prf_adversary(i), under the oracle
    # of gi_prf, gi_rf or gi_rb, ran gi_prg(i)'s calls with call i
    # routed through the oracle; g_ideal ran ideal calls on no state.
    # _call_shapes feeds both the faithful trees and the step lists, so
    # only a table stated apart from it sees a wrong mapping
    NAMED = {
        ("g_real", None): ["spec", "spec", "spec"],
        ("g1_prg", None): ["nov", "v", "v"],
        ("g_ideal", None): ["ideal", "ideal", "ideal"],
        ("gi_prg", 0): ["nov", "v", "v"],
        ("gi_prg", 1): ["ideal", "v", "v"],
        ("gi_prg", 2): ["ideal", "ideal", "v"],
        ("gi_prg", 3): ["ideal", "ideal", "ideal"],
        ("gi_prf", 0): ["prf", "v", "v"],
        ("gi_prf", 1): ["ideal", "prf", "v"],
        ("gi_prf", 2): ["ideal", "ideal", "prf"],
        ("gi_prf", 3): ["ideal", "ideal", "ideal"],
        ("gi_rf", 0): ["rf", "v", "v"],
        ("gi_rf", 1): ["ideal", "rf", "v"],
        ("gi_rf", 2): ["ideal", "ideal", "rf"],
        ("gi_rb", 0): ["rb", "v", "v"],
        ("gi_rb", 1): ["ideal", "rb", "v"],
        ("gi_rb", 2): ["ideal", "ideal", "rb"],
    }
    # the pairs of the seven games that name no game, at i in -1..4 or
    # None: an index on a whole-run game, or a missing or out-of-range
    # hybrid index (rf and rb need a call i to serve)
    REFUSED = {
        "g_real": (-1, 0, 1, 2, 3, 4),
        "g1_prg": (-1, 0, 1, 2, 3, 4),
        "g_ideal": (-1, 0, 1, 2, 3, 4),
        "gi_prg": (None, -1, 4),
        "gi_prf": (None, -1, 4),
        "gi_rf": (None, -1, 3, 4),
        "gi_rb": (None, -1, 3, 4),
    }

    def test_named_games_at_three_calls(self):
        p = params(2, 3, 1)
        assert {job: games._call_shapes(p, *job) for job in self.NAMED} == self.NAMED
        refused = [(game, i) for game, indices in self.REFUSED.items() for i in indices]
        for game, i in refused + [("g_prf", None), ("gi_prg ", 0)]:
            with pytest.raises(ValueError):
                games._call_shapes(p, game, i)
        # the two tables hold every pair exactly once
        pairs = {(game, i) for game in self.REFUSED for i in (None, -1, 0, 1, 2, 3, 4)}
        assert set(self.NAMED) | set(refused) == pairs
        assert len(self.NAMED) + len(refused) == len(pairs)

    def test_propagator_matches_faithful_on_the_shape_language(self):
        # the whole language, not only the named games' lists: the
        # soundness gate for a rewrite of the step list or the propagator
        assert len(LANGUAGE_CASES) == 1004
        assert list(language_mismatches()) == []


class TestStepList:
    def test_a_prf_call_runs_on_the_oracle_key(self):
        # a deterministic call before a prf call takes the oracle key as
        # its instantiate key and leaves its rekey in the k slot
        p = params(2, 3, 1)
        for shapes in (["nov", "prf", "ideal"], ["ideal", "spec", "prf"], ["v", "ideal", "prf"]):
            with pytest.raises(ValueError, match="a prf call must precede"):
                factored.steps(p, "gi_prf", shapes)
        # every named game's list is accepted
        for nc in (1, 2, 3):
            p = params(2, nc, 1)
            jobs = [("g_real", None), ("g1_prg", None), ("g_ideal", None)]
            jobs += [(game, j) for game in ("gi_prg", "gi_prf") for j in range(nc + 1)]
            jobs += [(game, j) for game in ("gi_rf", "gi_rb") for j in range(nc)]
            for game, j in jobs:
                assert factored.steps(p, game, games._call_shapes(p, game, j))


class TestIvAlgebra:
    def test_exact_equality_and_order(self):
        a, b = Iv.of_fraction(F(1, 2)), Iv.of_fraction(F(1, 2))
        c = Iv.of_fraction(F(1, 3))
        assert iv_equal(a, b) and not iv_equal(a, c)
        assert iv_leq(c, a) and not iv_leq(a, c)

    def test_interval_equality_is_overlap(self):
        est = Iv(0.4, 0.5, 0.6, False)
        assert iv_equal(est, Iv.of_fraction(F(1, 2)))
        assert not iv_equal(est, Iv.of_fraction(F(39, 100)))
        assert iv_leq(est, Iv.of_fraction(F(45, 100)))  # plausible, not refuted

    def test_absdiff_clamps_at_zero(self):
        a = Iv(0.4, 0.5, 0.6, False)
        b = Iv(0.45, 0.5, 0.55, False)
        d = iv_absdiff(a, b)
        assert d.lo == 0 and d.hi == pytest.approx(0.15)

    def test_add_scale(self):
        a = Iv.of_fraction(F(1, 4))
        assert iv_add(a, a).mid == F(1, 2)
        s = iv_scale(3, a)
        assert (s.lo, s.mid, s.hi, s.exact) == (F(3, 4), F(3, 4), F(3, 4), True)

    def test_str_forms(self):
        assert str(Iv.of_fraction(F(1, 8))) == "1/2^3"
        assert str(Iv(0.1, 0.2, 0.3, False)) == "~0.20000 ci[0.10000, 0.30000]"


class TestReporting:
    def test_lemma_check_line(self):
        checks = check_lemma(params(2, 1, 1), "G_real_is_first_hybrid")
        line = checks[0].line()
        assert line.startswith("G_real_is_first_hybrid: pass [exact] ")
        assert " == " in line

    def test_line_carries_index_and_detail(self):
        checks = check_lemma(params(2, 2, 1), "fundamental_lemma", i=1)
        line = checks[0].line()
        assert " i=1: " in line and " <= " in line and line.endswith(")")


@pytest.fixture(scope="module")
def calibration():
    return calibration_games()


class TestCalibrationCorpus:
    def test_twenty_named_enumerable_games(self, calibration):
        assert len(calibration) == 20
        names = [name for name, _, _ in calibration]
        assert len(set(names)) == 20
        for name, comp, exact in calibration:
            assert 0 <= exact <= 1
            assert " eta=" in name and " adv=" in name

    def test_exact_values_are_reproducible(self, calibration):
        # each value, the factored evaluator's, is the enumeration of the
        # faithful tree; 8 of these games have no other
        # factored-vs-enumeration pin
        assert len(calibration) == len(CALIBRATION_SPECS)
        for (name, _, exact), spec in zip(calibration, CALIBRATION_SPECS):
            game, eta, nc, bpc, adversary, _, i = spec
            p = HybridParams(eta, nc, bpc, adversary=adversary)
            assert exact_dist(build_game(p, game, i), max_path_bits=18).pr_true == exact, name

    # the 20 exact values in CALIBRATION_SPECS order: enumeration and the
    # factored evaluator share prf_small, so only literals catch a drift
    # in its input encoding
    EXACT = [
        F(1), F(31, 32), F(5, 8), F(1), F(29, 32),
        F(151, 256), F(1, 2), F(1), F(63, 64), F(29, 32),
        F(297, 512), F(1), F(63, 64), F(43, 64), F(11, 64),
        F(253, 256), F(61, 64), F(63, 64), F(1, 4), F(1, 2),
    ]

    def test_exact_values_are_pinned(self, calibration):
        assert [exact for _, _, exact in calibration] == self.EXACT

    def test_factored_values_are_pinned(self):
        # the propagator alone, with no enumeration: the mutation matrix's
        # exact pin
        assert list(exact_mismatches(self.EXACT)) == []


class TestSeededHitCounts:
    """Monte Carlo hit counts are a function of the seed and of each
    tree's draw order, so a change to how a game or the evaluator is
    written must leave every one of them unchanged."""

    # every estimate_pr_true call of the eta-16 first-bit suite, in order
    ETA16_SUITE = [
        51, 51, 51, 61, 55, 40, 55, 52, 52, 55, 55, 0, 55, 0, 45,
        0, 55, 0, 45, 0, 55, 0, 45, 0, 55, 0, 45, 55, 55,
    ]
    # the same for the collision suite, which the benchmark runs; recorded
    # from the faithful trees before Monte Carlo moved to the lean sampler
    ETA16_COLLISION = [
        1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 100,
        0, 0, 0, 100, 0, 0, 0, 100, 0, 0, 0, 100, 0, 0,
    ]
    # the same for a plain adversary that ORs its own coin with an order
    # test: its coins come last, after every output. Recorded before the
    # lean sampler folded the adversary instead of collecting its outputs
    ETA16_COIN = [
        77, 77, 77, 75, 79, 78, 76, 82, 84, 77, 77, 0, 77, 0, 23,
        0, 77, 0, 23, 0, 77, 0, 23, 0, 77, 0, 23, 77, 77,
    ]
    # calibration_games() at 100 trials, seed 0xCA11 + j for game j
    CALIBRATION = [
        100, 97, 65, 100, 90, 59, 46, 100, 96, 90,
        66, 100, 99, 70, 24, 99, 93, 97, 23, 41,
    ]

    @staticmethod
    def suite_hits(monkeypatch, adversary) -> list[int]:
        """The hit count of every estimate_pr_true call of the eta-16
        suite at 100 trials and seed 0, in call order."""
        hits = []

        def counted(comp, trials, seed, confidence=0.99):
            est = estimate_pr_true(comp, trials, seed, confidence)
            hits.append(est.hits)
            return est

        monkeypatch.setattr(games, "estimate_pr_true", counted)
        p = HybridParams(16, 2, 2, adversary=adversary)
        ev = GameEvaluator(p, trials=100, seed=0)
        run_all_lemmas(p, evaluator=ev)
        main_theorem_check(p, evaluator=ev)
        return hits

    def test_eta16_suite(self, monkeypatch):
        assert self.suite_hits(monkeypatch, first_bit) == self.ETA16_SUITE

    def test_eta16_collision_suite(self, monkeypatch):
        assert self.suite_hits(monkeypatch, collision_detector) == self.ETA16_COLLISION

    def test_eta16_coin_suite(self, monkeypatch):
        assert self.suite_hits(monkeypatch, TestEvaluatorModes.PLAIN[1]) == self.ETA16_COIN

    def test_calibration_games(self, calibration):
        hits = [
            estimate_pr_true(comp, 100, 0xCA11 + j).hits
            for j, (_, comp, _) in enumerate(calibration)
        ]
        assert hits == self.CALIBRATION


class TestBenchmarkHooks:
    def test_hooked_names_exist(self):
        # perfbench looks these up by name (getattr and setattr) to lap
        # and count the work, and tier-1 does not run it
        assert games.exact_dist is prob.exact_dist
        assert games.estimate_pr_true is prob.estimate_pr_true
        for name in ("pr", "pr_bad", "pr_joint_no_bad"):
            assert callable(getattr(GameEvaluator, name)), name
