"""The probability monad: exact enumeration, oracles, and the sampler."""

import math
import random
from fractions import Fraction

import pytest

from drbglab.prob import (
    AdvantageEstimate,
    Distribution,
    EnumerationCapExceeded,
    Oracle,
    Query,
    Return,
    Sample,
    bind,
    clopper_pearson,
    estimate_pr_true,
    exact_dist,
    mapc,
    query,
    run_with_oracle,
    sample,
    sample_bits,
    statistical_distance,
)

F = Fraction


def coin() -> Sample:
    return sample_bits(1)


class TestCombinators:
    def test_return_is_point_mass(self):
        d = exact_dist(Return(42))
        assert d.pr(42) == 1
        assert d.support() == [42]

    def test_sample_uniform(self):
        d = exact_dist(sample_bits(3))
        assert all(d.pr(x) == F(1, 8) for x in range(8))

    def test_bind_sequences(self):
        # sum of two independent coin flips: 1/4, 1/2, 1/4
        comp = bind(coin(), lambda a: mapc(coin(), lambda b: a + b))
        d = exact_dist(comp)
        assert d.pr(0) == F(1, 4)
        assert d.pr(1) == F(1, 2)
        assert d.pr(2) == F(1, 4)

    def test_bind_respects_left_identity(self):
        f = lambda x: mapc(coin(), lambda b: (x, b))
        assert exact_dist(bind(Return(9), f)) == exact_dist(f(9))

    def test_bind_associativity_on_distributions(self):
        f = lambda x: mapc(coin(), lambda b: x + b)
        g = lambda x: mapc(coin(), lambda b: x * 2 + b)
        left = bind(bind(coin(), f), g)
        right = bind(coin(), lambda x: bind(f(x), g))
        assert exact_dist(left) == exact_dist(right)

    def test_sample_width_validated(self):
        with pytest.raises(ValueError):
            Sample(0, Return)


class TestExactDist:
    def test_cap_enforced(self):
        wide = sample_bits(30)
        with pytest.raises(EnumerationCapExceeded):
            exact_dist(wide, max_path_bits=24)
        # caps count cumulative path bits, not node count
        two = bind(sample_bits(13), lambda _: sample_bits(13))
        with pytest.raises(EnumerationCapExceeded):
            exact_dist(two, max_path_bits=25)

    def test_cap_fails_on_the_first_path(self):
        # a tree too wide to enumerate must fail before the branches of
        # its first sample are built: the game evaluator relies on that
        # to fall back to Monte Carlo cheaply
        built = []
        comp = Sample(16, lambda x: built.append(x) or sample_bits(16))
        with pytest.raises(EnumerationCapExceeded):
            exact_dist(comp, max_path_bits=22)
        assert built == [0]

    def test_unresolved_query_rejected(self):
        with pytest.raises(TypeError):
            exact_dist(query("x"))

    def test_probabilities_sum_to_one(self):
        comp = bind(sample_bits(4), lambda a: Return(a % 3))
        d = exact_dist(comp)
        assert sum(p for _, p in d.items()) == 1


class TestOracles:
    def test_counting_oracle_threads_state(self):
        # oracle answers with its call index and counts invocations
        oracle = Oracle(lambda n, inp: Return((n, n + 1)), 0)
        comp = bind(query("a"), lambda x: mapc(query("b"), lambda y: (x, y)))
        result = exact_dist(run_with_oracle(comp, oracle))
        assert result.pr(((0, 1), 2)) == 1

    def test_randomized_oracle(self):
        # oracle flips a coin per query; state records every answer
        oracle = Oracle(
            lambda hist, inp: mapc(coin(), lambda b: (b, hist + (b,))), ()
        )
        comp = bind(query(0), lambda a: mapc(query(1), lambda b: a ^ b))
        d = exact_dist(run_with_oracle(comp, oracle))
        # xor of two fair coins is a fair coin; state holds both flips
        assert d.map(lambda rs: rs[0]).pr(1) == F(1, 2)
        assert d.pr((0, (1, 1))) == F(1, 4)

    def test_oracle_state_survives_samples(self):
        oracle = Oracle(lambda n, inp: Return((inp * 2, n + 1)), 0)
        comp = bind(coin(), lambda c: mapc(query(c), lambda a: (c, a)))
        d = exact_dist(run_with_oracle(comp, oracle))
        assert d.pr(((1, 2), 1)) == F(1, 2)


DEPTH = 2000  # twice Python's default recursion limit


def left_nested(first, step) -> object:
    """bind(...bind(bind(first, step(1)), step(2))..., step(DEPTH))."""
    comp = first
    for j in range(1, DEPTH + 1):
        comp = bind(comp, step(j))
    return comp


def binomial(n: int, offset: int) -> Distribution:
    return Distribution.from_dict(
        {offset + k: F(math.comb(n, k), 2**n) for k in range(n + 1)}
    )


class TestDeepBinds:
    """A left-nested chain of binds runs without recursion, so its
    depth is bounded by memory, not by Python's recursion limit."""

    def test_sample(self):
        comp = left_nested(coin(), lambda j: lambda x: mapc(coin(), lambda b: x + b))

        def flat(n: int, acc: int) -> Sample:
            # the same DEPTH + 1 draws, with no bind at all
            return Sample(1, lambda b: Return(acc + b) if n == 0 else flat(n - 1, acc + b))

        for seed in range(3):
            assert sample(comp, seed) == sample(flat(DEPTH, 0), seed)

    def test_exact_dist(self):
        # a coin first and at every 400th step, +1 at every other step
        def step(j: int):
            if j % 400:
                return lambda x: Return(x + 1)
            return lambda x: mapc(coin(), lambda b: x + b)

        comp = left_nested(coin(), step)
        assert exact_dist(comp) == binomial(6, DEPTH - 5)

    def test_run_with_oracle(self):
        # the oracle answers input + 1, plus a coin on every 500th query
        def transition(n: int, inp: int) -> object:
            if n % 500:
                return Return((inp + 1, n + 1))
            return mapc(coin(), lambda b: (inp + 1 + b, n + 1))

        comp = left_nested(query(0), lambda j: query)
        plain = run_with_oracle(comp, Oracle(transition, 0))
        want = binomial(5, DEPTH + 1).map(lambda a: (a, DEPTH + 1))
        assert exact_dist(plain) == want
        assert sample(plain, 7) in want.support()


class TestDistribution:
    def test_from_dict_validates(self):
        with pytest.raises(ValueError):
            Distribution.from_dict({0: F(1, 2)})
        with pytest.raises(ValueError):
            Distribution.from_dict({0: F(3, 2), 1: F(-1, 2)})

    def test_map_merges(self):
        d = exact_dist(sample_bits(2)).map(lambda x: x % 2)
        assert d.pr(0) == d.pr(1) == F(1, 2)

    def test_statistical_distance(self):
        a = exact_dist(sample_bits(1))
        b = Distribution.from_dict({0: F(1), 1: F(0)})
        assert statistical_distance(a, b) == F(1, 2)
        assert statistical_distance(a, a) == 0
        # distance counts outcomes absent from one side
        c = Distribution.from_dict({7: F(1)})
        assert statistical_distance(a, c) == 1

    def test_pr_true(self):
        d = exact_dist(mapc(coin(), lambda b: b == 1))
        assert d.pr_true == F(1, 2)


class TestSampler:
    def test_deterministic_in_seed(self):
        comp = bind(sample_bits(8), lambda a: mapc(sample_bits(8), lambda b: (a, b)))
        assert sample(comp, 123) == sample(comp, 123)
        outs = {sample(comp, s) for s in range(64)}
        assert len(outs) > 32  # distinct seeds explore distinct paths

    def test_wide_samples(self):
        # widths beyond one 64-bit word draw from the buffered stream
        value = sample(sample_bits(200), 5)
        assert 0 <= value < (1 << 200)

    def test_query_rejected(self):
        with pytest.raises(TypeError):
            sample(query("x"), 0)

    def test_empirical_frequency_tracks_exact(self):
        comp = mapc(sample_bits(2), lambda x: x == 0)
        hits = sum(1 for s in range(4000) if sample(comp, s))
        assert abs(hits / 4000 - 0.25) < 0.03


class TestEstimate:
    def test_interval_contains_truth_here(self):
        comp = mapc(coin(), lambda b: b == 1)
        est = estimate_pr_true(comp, trials=5000, seed=11)
        assert est.trials == 5000
        assert est.ci_low < 0.5 < est.ci_high
        assert est.contains(F(1, 2))

    def test_extremes(self):
        always = estimate_pr_true(Return(True), trials=200, seed=0)
        assert always.estimate == 1.0 and always.ci_high == 1.0
        never = estimate_pr_true(Return(False), trials=200, seed=0)
        assert never.estimate == 0.0 and never.ci_low == 0.0

    def test_minimum_trials(self):
        with pytest.raises(ValueError):
            estimate_pr_true(Return(True), trials=99, seed=0)

    def test_reproducible(self):
        comp = mapc(sample_bits(3), lambda x: x < 3)
        a = estimate_pr_true(comp, trials=500, seed=42)
        b = estimate_pr_true(comp, trials=500, seed=42)
        assert a == b

    def test_interval_is_exact_binomial(self):
        # a 99% Clopper-Pearson interval is conservative: it must cover
        # the true value in a healthy majority of replications
        comp = mapc(sample_bits(4), lambda x: x < 5)
        truth = F(5, 16)
        covered = sum(
            1
            for rep in range(20)
            if estimate_pr_true(comp, trials=400, seed=1000 * rep).contains(truth)
        )
        assert covered >= 18


TRIALS = [100, 200, 400, 500, 1000, 10**5, 10**6]


class TestClopperPearson:
    @pytest.mark.parametrize("n", TRIALS + [10**7])
    def test_closed_forms_at_the_edges(self, n):
        # at 0, 1, n-1 and n hits the beta quantiles have closed forms
        q = 0.005  # alpha/2 at 99%
        assert clopper_pearson(0, n)[0] == 0.0 and clopper_pearson(n, n)[1] == 1.0
        closed = {
            (0, 1): -math.expm1(math.log(q) / n),  # 1 - (alpha/2)^(1/n)
            (1, 0): -math.expm1(math.log1p(-q) / n),  # 1 - (1 - alpha/2)^(1/n)
            (n - 1, 1): math.exp(math.log1p(-q) / n),  # (1 - alpha/2)^(1/n)
            (n, 0): math.exp(math.log(q) / n),  # (alpha/2)^(1/n)
        }
        for (hits, side), want in closed.items():
            got = clopper_pearson(hits, n)[side]
            assert got == pytest.approx(want, rel=1e-9, abs=0), (hits, side)

    @pytest.mark.parametrize("n", TRIALS)
    def test_matches_scipy_beta_quantiles(self, n):
        beta = pytest.importorskip("scipy.stats").beta
        rng = random.Random(n)
        hit_counts = {0, 1, n - 1, n, n // 2}
        hit_counts |= {rng.randrange(n + 1) for _ in range(12)}
        hit_counts |= {rng.randrange(40) for _ in range(6)}  # the thin tail
        for hits in sorted(hit_counts):
            for confidence in (0.99, 0.95):
                alpha = 1 - confidence
                low, high = clopper_pearson(hits, n, confidence)
                want_low = 0.0 if hits == 0 else beta.ppf(alpha / 2, hits, n - hits + 1)
                want_high = 1.0 if hits == n else beta.ppf(1 - alpha / 2, hits + 1, n - hits)
                assert low == pytest.approx(want_low, rel=1e-9, abs=0), hits
                assert high == pytest.approx(want_high, rel=1e-9, abs=0), hits

    def test_interval_brackets_the_frequency(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.choice([100, 137, 10**4, 10**7])
            hits = rng.randrange(n + 1)
            confidence = rng.choice([0.5, 0.9, 0.99, 1 - 1e-9])
            low, high = clopper_pearson(hits, n, confidence)
            assert 0.0 <= low < hits / n < high <= 1.0 or hits in (0, n)
            wider = clopper_pearson(hits, n, (1 + confidence) / 2)
            assert wider[0] <= low and high <= wider[1]


def test_advantage_estimate_contains():
    est = AdvantageEstimate(50, 0.4, 0.6, 100)
    assert est.hits == 50 and est.estimate == 0.5
    assert est.contains(0.5) and est.contains(F(2, 5))
    assert not est.contains(0.39)
