"""The probability layer the games are built on.

A randomized computation is a value of type Comp: a tree of four node
kinds. Return holds a result, Sample draws uniform bits, Query asks an
oracle, and Bind sequences a computation with the function that
consumes its result. ``bind`` builds one Bind node (on a Return it
applies the function at once), so it costs the same however long the
chain it extends; running a computation walks the Bind nodes onto one
stack of pending continuations. The same tree
can be enumerated exactly (every probability a Fraction), run once with
a seeded PRNG, or sampled many times for a confidence interval.

Run:  python3 demos/05_probability_monad.py
"""

from fractions import Fraction

from drbglab.prob import (
    Oracle,
    Return,
    bind,
    estimate_pr_true,
    exact_dist,
    mapc,
    query,
    run_with_oracle,
    sample,
    sample_bits,
    statistical_distance,
)

# Two dice (3-bit samples folded to 1..6 the lazy way: reject by remap).
die = mapc(sample_bits(3), lambda x: x % 6 + 1)
two = bind(die, lambda a: mapc(die, lambda b: a + b))

dist = exact_dist(two)
print("sum of two (slightly loaded) dice:")
for total, pr in sorted(dist.items()):
    print(f"  {total:>2}: {pr}  ({float(pr):.4f})")
print()

# The monad is lazy about randomness: bits that are never inspected
# still count against the enumeration budget, nothing more.
print(f"one seeded run: {sample(two, seed=1)}, again: {sample(two, seed=1)}, "
      f"other seed: {sample(two, seed=2)}")
print()

# Query nodes talk to an oracle chosen later. The same client program
# can face a stateless function or a stateful, randomized one.
client = bind(query("x"), lambda a: mapc(query("x"), lambda b: a + b))

echo = Oracle(lambda st, inp: Return((len(inp), st)), None)
counter = Oracle(lambda st, inp: Return((st, st + 10)), 1)
coin_memory = Oracle(
    lambda st, inp: (
        Return((st[inp], st)) if inp in st
        else mapc(sample_bits(1), lambda b: (b, {**st, inp: b}))
    ),
    {},
)

result_of = lambda oracle: mapc(run_with_oracle(client, oracle), lambda rs: rs[0])
print(f"against echo    : {exact_dist(result_of(echo)).support()}")
print(f"against counter : {exact_dist(result_of(counter)).support()}")
lazy = exact_dist(result_of(coin_memory))
print(f"against lazily sampled function: both queries get the SAME flip, "
      f"so the sum is never 1: {dict(lazy.items())}")
print()

# Exact answers calibrate the estimator: the 99% interval should
# contain the true value (and here it does).
biased = mapc(sample_bits(4), lambda x: x < 5)
truth = exact_dist(biased).pr_true
est = estimate_pr_true(biased, trials=50_000, seed=3)
print(f"Pr[x < 5 for 4-bit x] = {truth} = {float(truth):.4f}")
print(f"estimated {est.estimate:.4f}, 99% ci [{est.ci_low:.4f}, {est.ci_high:.4f}], "
      f"contains the truth: {est.contains(truth)}")
print()

# Statistical distance between exact distributions is a Fraction too.
fair = exact_dist(sample_bits(1))
skew = exact_dist(mapc(sample_bits(2), lambda x: 1 if x else 0))
print(f"distance(fair coin, 3/4 coin) = {statistical_distance(fair, skew)}")
