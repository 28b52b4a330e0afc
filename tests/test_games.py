"""The hybrid-game suite: builders, the two evaluation paths, and lemmas.

The heavyweight cross-checks (every lemma over the full parameter grid)
live in the acceptance tests; here each moving part is exercised at the
smallest sizes that still distinguish right from wrong.
"""

from fractions import Fraction

import pytest

from drbglab import factored, games
from drbglab.bounds import birthday_exact, pr_collisions
from drbglab.games import (
    ALL_CHECKS,
    CALIBRATION_SPECS,
    EQUALITY_LEMMAS,
    INEQUALITY_CHECKS,
    KV,
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
    gi_rb_bad,
    gi_rf_dups_bad,
    iv_absdiff,
    iv_add,
    iv_equal,
    iv_leq,
    iv_scale,
    main_theorem_check,
    run_all_lemmas,
    _play,
)
from drbglab.prf import Block, prf_small
from drbglab.prob import (
    EnumerationCapExceeded,
    Return,
    clopper_pearson,
    estimate_pr_true,
    exact_dist,
    mapc,
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

    def test_collision_fold_agrees_with_call(self):
        adv = CollisionAdversary()
        outputs = [[Block(2, 1), Block(2, 3)], [Block(2, 3)]]
        st = adv.initial()
        for sub in outputs:
            for b in sub:
                st = adv.absorb(st, b.value, 2)
        assert adv.finish_pr(st) == exact_dist(adv(outputs)).pr_true == 1

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
        # pr("gi_rf"/"gi_rb") is this joint's answer mass, so one
        # enumeration per oracle game pins the joint and the win probability
        for adv in (collision_detector, first_bit):
            p = HybridParams(eta, nc, bpc, adversary=adv)
            ev = GameEvaluator(p)
            for j in range(nc):
                for oracle, builder in (("rb", gi_rb_bad), ("rf", gi_rf_dups_bad)):
                    want = exact_dist(builder(p, j), max_path_bits=20)
                    joint = ev._exact(f"gi_{oracle}", j)
                    assert joint == dict(want.items()), (adv, oracle, j)
                    answer_true = sum((pr for (a, _), pr in joint.items() if a), F(0))
                    assert ev.pr(f"gi_{oracle}", j).mid == answer_true
                    for answer in (True, False):
                        no_bad = ev.pr_joint_no_bad(oracle, j, answer).mid
                        assert no_bad == want.pr((answer, False))
            assert ev.mode == "exact"


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

    def test_rf_keeps_its_cache(self, monkeypatch):
        # wherever a repeat can happen, the collision adversary sees an rf
        # answer it from the cache, so the rf and rb joints differ; every
        # rf/rb lemma still holds for an rf that forgets its cache (served
        # as rb), so no lemma catches one
        with_bad, equal = self.rf_equal_to_rb()
        assert len(with_bad) == 9 and equal == []
        steps = factored.steps
        forgetful = lambda p, shapes: steps(p, ["rb" if s == "rf" else s for s in shapes])
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
                for game, tree in (("gi_rb", gi_rb_bad), ("gi_rf", gi_rf_dups_bad)):
                    assert ev._exact(game, j) == dict(exact_dist(tree(p, j)).items()), (game, j)
            assert ev.mode == "exact"

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
        bad = estimate_pr_true(mapc(gi_rb_bad(p, 1), lambda out: out[1]), 500, 3)
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
                games.gi_prg(p, 7)


class TestLumping:
    """Slots that no later step reads are emptied, so states that differ
    only in them merge."""

    def test_dead_slots_and_useless_draws(self):
        # one rf call of one block: the query's trace and v die with it,
        # and the rekey's answer lands only in a dead k, so it is not drawn
        p = params(3, 1, 1)
        query, rekey = factored.plan(factored.steps(p, ["rf"]))
        assert query.lazy == (factored.V,) and query.draw
        assert query.clear is factored.CLEAR[frozenset({factored.V, factored.ORC})]
        assert not rekey.draw and rekey.clear is factored.CLEAR[frozenset({factored.K})]

    # the peak merged-state count of one game's propagation: 12,888,
    # 9,136 and 22,968 before dead slots were emptied
    PEAKS = [((3, 2, 2), "gi_rf", 1, 2808), ((3, 3, 2), "gi_rb", 2, 6672),
             ((3, 3, 2), "gi_rf", 2, 8296)]

    @pytest.mark.parametrize("point,game,j,bound", PEAKS)
    def test_peak_states(self, point, game, j, bound, monkeypatch):
        merge, peak = factored.merge, [0]

        def counted(pairs):
            out = merge(pairs)
            peak[0] = max(peak[0], len(out))
            return out

        monkeypatch.setattr(factored, "merge", counted)
        p = params(*point)
        factored.propagate(p, games._call_shapes(p, game, j))
        assert peak[0] <= bound

    def test_joints_memoized_by_shape_list(self, monkeypatch):
        # g_ideal, gi_prg(nc) and gi_prf(nc) share one joint, and so do
        # g1_prg and gi_prg(0): a suite propagates each shape list once
        propagate, shapes = games.propagate, []

        def counted(p, call_shapes):
            shapes.append(tuple(call_shapes))
            return propagate(p, call_shapes)

        monkeypatch.setattr(games, "propagate", counted)
        p = params(2, 2, 2)
        ev = GameEvaluator(p)
        run_all_lemmas(p, evaluator=ev)
        main_theorem_check(p, ev)
        assert len(shapes) == len(set(shapes))
        assert ev._exact("g_ideal", None) is ev._exact("gi_prg", 2) is ev._exact("gi_prf", 2)
        assert ev._exact("g1_prg", None) is ev._exact("gi_prg", 0)
        assert len(shapes) == 10  # 3 of the 13 games reuse a joint


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
        # each value is the enumeration of the tree the estimator samples;
        # 8 of these games have no other factored-vs-enumeration pin
        assert len(calibration) == len(CALIBRATION_SPECS)
        for (name, _, exact), spec in zip(calibration, CALIBRATION_SPECS):
            game, eta, nc, bpc, adversary, _, i = spec
            p = HybridParams(eta, nc, bpc, adversary=adversary)
            assert GameEvaluator(p).pr(game, i).mid == exact, name

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


class TestSeededHitCounts:
    """Monte Carlo hit counts are a function of the seed and of each
    tree's draw order, so a change to how a game or the evaluator is
    written must leave every one of them unchanged."""

    # every estimate_pr_true call of the eta-16 first-bit suite, in order
    ETA16_SUITE = [
        51, 51, 51, 61, 55, 40, 55, 52, 52, 55, 55, 0, 55, 0, 45,
        0, 55, 0, 45, 0, 55, 0, 45, 0, 55, 0, 45, 55, 55,
    ]
    # calibration_games() at 100 trials, seed 0xCA11 + j for game j
    CALIBRATION = [
        100, 97, 65, 100, 90, 59, 46, 100, 96, 90,
        66, 100, 99, 70, 24, 99, 93, 97, 23, 41,
    ]

    def test_eta16_suite(self, monkeypatch):
        hits = []

        def counted(comp, trials, seed, confidence=0.99):
            est = estimate_pr_true(comp, trials, seed, confidence)
            hits.append(est.hits)
            return est

        monkeypatch.setattr(games, "estimate_pr_true", counted)
        p = HybridParams(16, 2, 2, adversary=first_bit)
        ev = GameEvaluator(p, trials=100, seed=0)
        run_all_lemmas(p, evaluator=ev)
        main_theorem_check(p, evaluator=ev)
        assert hits == self.ETA16_SUITE

    def test_calibration_games(self, calibration):
        hits = [
            estimate_pr_true(comp, 100, 0xCA11 + j).hits
            for j, (_, comp, _) in enumerate(calibration)
        ]
        assert hits == self.CALIBRATION
