"""
The general route: bound augmentation plus a stationarity stop test
===================================================================

Without convexity or a finite-convergence rank certificate, the hierarchy
only produces lower bounds.  The general route augments the constraints with
a ball of radius R and a denominator floor g*, then runs a stop test at each
candidate: solve the inner problem over the index set, collect near-active
constraints, and measure how far the candidate is from stationarity.
"""

from dataclasses import replace

import numpy as np

from fsipp import instances
from fsipp.certify import certify_point
from fsipp.relax import choose_g_star, classify_case, solve_hierarchy

prob, opts = instances.quarter_circle_problem()
print("tag:", classify_case(prob).tag.value)

# The two augmentation parameters can be preset (as in the packaged options)
# or derived from hints: a norm bound on some minimizer gives R = 1.5 * bound
# and, because the denominator here is nonlinear, one known feasible point
# gives the floor g*.
hints = {"bound": 4.0 / 3.0, "feasible_point": [0.5, 0.5]}
R, g_star = 1.5 * hints["bound"], choose_g_star(prob, hints)
print(f"derived from hints:   R = {R},  g* = {g_star}")
print(f"packaged options use: R = {opts.R},  g* = {opts.g_star}")

trace = solve_hierarchy(prob, replace(opts, k_min=4, k=4))
print(f"\nk = 4:  r_dual = {trace.r_dual:.6f}")
print("candidate minimizer:", np.round(trace.candidate, 4))

# ---------------------------------------------------------------------------
# The stop test, spelled out.  p* is the inner minimum of the semi-infinite
# constraint at the candidate (near zero: the constraint is active), Lambda
# holds the index points achieving it, and omega is the squared residual of
# the best nonnegative multiplier combination of active gradients.
# ---------------------------------------------------------------------------
kkt = certify_point(np.asarray(trace.candidate), prob, tau=1e-3)
print(f"\ninner minimum p*      = {kkt.p_star:.3e}")
print("active index points   =",
      [np.round(np.asarray(y), 4).tolist() for y in kkt.Lambda])
print("active psi indices    =", kkt.J)
print(f"stationarity residual = {kkt.omega:.3e}")
print("feasible within tau   =", kkt.feasible_within_tau)
print("verdict:", kkt.verdict)
