"""
Noise-free benchmarks: metric ratios under skewed marginals
===========================================================

The registry holds eleven two-variable benchmarks whose datasets are
deterministic: cell counts are the joint probabilities times N, rounded
half away from zero.  The interesting cases pair an almost-constant
variable with a near-uniform one, where the BDeu prior weight alpha0
decides which structure wins.
"""

from bnscore import EXAMPLES, ratio_table_csv, run_example

# Example 1: both variables constant.  K2 is indifferent (ratio 1), GU
# favours independence, BDeu favours the arc more strongly as N grows.
rows = run_example(EXAMPLES[1])
print("example 1 (both marginals degenerate):")
for row in rows:
    if row.metric in ("bdeu_sweep", "bdeu_max"):
        continue
    a0 = f"(alpha0={row.alpha0:g})" if row.alpha0 is not None else ""
    print(f"  n={row.n:>6}  {row.metric}{a0:>14}: ratio={row.ratio:.6g}")

# Example 10: X nearly constant, Y nearly uniform, independent.  Every
# metric's ratio falls toward zero as the sample grows -- more data
# makes the (true) independent structure win more clearly.
print("\nexample 10 (independent, skewed x uniform):")
for row in run_example(EXAMPLES[10]):
    if row.metric == "k2":
        print(f"  n={row.n:>5}  k2 log10 ratio = {row.log10_ratio:+.4f}")

# Example 11 sweeps alpha0 over six decades on the same joint.  The
# ratio peaks at a data-dependent alpha0; past it the prior drowns the
# data and the curve decays again.
best = next(r for r in run_example(EXAMPLES[11]) if r.metric == "bdeu_max" and r.n == 1000)
print(f"\nexample 11, n=1000: max BDeu ratio {best.ratio:.3f} at alpha0 = {best.alpha0:.3g}")

# The same table the CLI writes, reproducible byte for byte:
csv_text = ratio_table_csv(run_example(EXAMPLES[2]))
print(f"\nexample 2 CSV is {len(csv_text.splitlines()) - 1} rows, header:")
print(" ", csv_text.splitlines()[0])
