"""The pseudorandomness argument as executable experiments.

At full size nothing here could run — the state space is 2^256 wide.
At eta = 2 or 3 bits per block every game is a finite probability tree
and every step of the argument becomes a machine-checkable identity
between exact rationals.

Run:  python3 demos/03_hybrid_games.py
"""

from drbglab.bounds import birthday_exact, pr_collisions
from drbglab.games import (
    GameEvaluator,
    HybridParams,
    check_lemma,
    end_to_end_distance,
    main_theorem_check,
    run_all_lemmas,
)

# 2-bit blocks, 2 generate calls, 2 blocks per call; the adversary is a
# collision detector (outputs "pseudorandom!" when it sees a repeat).
p = HybridParams(eta=2, num_calls=2, blocks_per_call=2)
ev = GameEvaluator(p)

real = ev.pr("g_real")
ideal = ev.pr("g_ideal")
print(f"Pr[adversary says true | real generator ] = {real}")
print(f"Pr[adversary says true | uniform blocks ] = {ideal}")
print(f"advantage = {abs(real.mid - ideal.mid)}\n")

# The argument walks from real to ideal through hybrids: hybrid i
# answers the first i calls with uniform blocks and the rest with the
# generator. Hybrid 0 is the real game, hybrid num_calls the ideal one.
for i in range(p.num_calls + 1):
    print(f"Pr[hybrid {i} says true] = {ev.pr('gi_prg', i)}")
print()

# Each named lemma is a checkable (in)equality. One at a time:
for line in (
    check_lemma(p, "Generate_move_v_update", evaluator=ev)
    + check_lemma(p, "Gi_prog_equiv_rb_oracle", i=1, evaluator=ev)
    + check_lemma(p, "fundamental_lemma", i=1, evaluator=ev)
):
    print(line.line())
print()

# The bad event — an oracle input repeating — has a closed form: it is
# exactly a birthday collision among the blocks one call touches.
for i in range(p.num_calls):
    bad = ev.pr_bad("rb", i)
    draws = p.blocks_per_call + (1 if i > 0 else 0)
    print(f"Pr[bad at hybrid {i}] = {bad} "
          f"(= birthday({draws} draws, 4 values) = {birthday_exact(draws, 4)}; "
          f"bound {pr_collisions(p.blocks_per_call, p.eta)})")
print()

# Everything at once: all seven equalities, all three inequalities.
checks = run_all_lemmas(p, evaluator=ev)
failures = [c for c in checks if not c.passed]
print(f"full suite: {len(checks)} checks, {len(failures)} failures\n")

# The telescoping decomposition and the headline bound:
walk = end_to_end_distance(p, evaluator=ev)
print(f"|Pr[first hybrid] - Pr[last hybrid]| = {walk.end_to_end}")
print(f"sum of adjacent distances           = {walk.total}")

theorem = main_theorem_check(p, evaluator=ev)
print(f"\nadvantage {theorem.lhs} <= num_calls * (prf_gap {theorem.prf_gap} "
      f"+ collisions {theorem.collisions}) = {theorem.rhs}: "
      f"{'holds' if theorem.check.passed else 'VIOLATED'}")

# Widen the blocks to 16 bits and the factored evaluator no longer
# admits the adversary; it falls back to Monte Carlo with confidence
# intervals.
wide = HybridParams(eta=16, num_calls=2, blocks_per_call=2)
wide_ev = GameEvaluator(wide, trials=20_000, seed=7)
check = check_lemma(wide, "G_real_is_first_hybrid", evaluator=wide_ev)[0]
print(f"\neta=16 ({wide_ev.mode}): {check.line()}")
