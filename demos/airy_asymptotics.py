"""Stretched-exponential asymptotics of maximally reticulated networks.

The counts grow like (n!)^d gamma^n e^(3 a1 beta n^(1/3)) n^alpha where a1
is the largest root of the Airy function.  This script evaluates that
expression against exact counts, extracts the stretched-exponential
coefficient from the linear recurrence, and sweeps the sub/super-solution
inequalities that certify it.
"""

import math

from treechild import asymptotics as asym
from treechild import words

a1 = asym.airy_root_a1()
print(f"Largest Airy root: a1 = {a1:.9f},  Ai(a1) = {asym.airy_ai(a1):.2e}")

print()
print("Parameters per multiplicity:")
for d in (2, 3, 4):
    p = asym.params(d)
    print(f"  d={d}: gamma={p.gamma:.4f} alpha={p.alpha:+.4f} beta={p.beta:.4f} "
          f"stretched coefficient 3*a1*beta = {3 * a1 * p.beta:+.4f}")

print()
print("Residual ln(exact) - ln(theta expression) stays in a narrow band")
print("(and explodes if the root's sign is flipped):")
log_c = {d: words.c_log_sequence(d, 1999) for d in (2, 3)}
for d in (2, 3):
    window = asym.theta_residual_window(d, 500, 2000, log_c=log_c[d])
    flipped = asym.theta_residual_window(d, 500, 2000, a1=-a1, log_c=log_c[d])
    print(f"  d={d}: oscillation {window['oscillation']:.4f} over n in [500, 2000]; "
          f"with +|a1| it becomes {flipped['oscillation']:.1f}")

print()
print("Fitting ln(e_diagonal * 4^-n) = c0 + c1 n^(1/3) + c2 ln n recovers the")
print("stretched-exponential coefficient from the recurrence alone:")
for d in (2, 3):
    fit = asym.fit_e_diagonal(d, 5000)
    print(f"  d={d}: c1 = {fit.c1:+.5f} vs target {fit.target_c1:+.5f} "
          f"(relative error {fit.rel_err:.2%})")

print()
print("The e-rows take the Airy shape in the bulk (d=2, row 4000):")
seq = asym.e_sequence(2, 4000)
dev = asym.airy_profile_deviation(seq, 4000)
print(f"  max relative deviation over the first 12 admissible m: {dev:.2%}")

print()
print("Sub/super-solution sweeps.  The printed coefficient '3d^2+12-11' only")
print("admits thresholds as 3d^2+12d-11 (a dropped 'd'); at d=2 that is 25:")
for q in (13, 25):
    sub = asym.check_subsolution(2, q_coeff=q)
    sup = asym.check_supersolution(2, q_coeff=q)
    print(f"  q={q}: sub-solution threshold {sub.n_threshold}, "
          f"super-solution threshold {sup.n_threshold} "
          f"({len(sup.violations)} violations)")

print()
print("The explicit lower-bound product tracks the same n^(1/3) growth:")
import numpy as np

ns = np.arange(100, 1200)
series = np.array(
    [asym.lower_bound_product(2, int(n)) - 2 * n * math.log(2) for n in ns]
)
fit = asym.stretched_fit(ns, series, target_c1=3 * a1 * asym.params(2).beta)
print(f"  fitted c1 = {fit.c1:+.4f} vs 3*a1*beta = {fit.target_c1:+.4f}")

print()
print("Exact log-counts feeding the residuals come from the integer")
print(f"recurrence: ln TC(2, 2000, 1999) = "
      f"{math.lgamma(2001) + log_c[2][1999]:.2f}")
