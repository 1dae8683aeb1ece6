"""
Classifying a problem and solving the convex routes
===================================================

A fractional program with convex data and a simple index set collapses to a
single semidefinite program: no hierarchy, no certificate chasing.  This
script classifies two such instances and solves each in one shot.
"""

import numpy as np

from fsipp import instances
from fsipp.relax import classify_case, convexity_findings, solve_hierarchy

# ---------------------------------------------------------------------------
# An instance with an interval index set.  Every piece of the data is
# sos-convex, which the classifier verifies symbolically, so the tag comes
# back "Case1" and a single relaxation order is exact.
# ---------------------------------------------------------------------------
prob, opts = instances.case1_problem()

print("convexity findings:")
for name, ok in convexity_findings(prob):
    print(f"  {name}: {'sos-convex' if ok else 'not sos-convex'}")
print("tag:", classify_case(prob).tag.value)

trace = solve_hierarchy(prob, opts)
row = trace.rows[0]
print(f"solved one SDP at order {row.k}:")
print(f"  r_primal = {row.r_primal:.6f}")
print(f"  r_dual   = {row.r_dual:.6f}")
print("  minimizer:", np.round(trace.candidate, 4))
print("  stop:", trace.stop_reason)

# ---------------------------------------------------------------------------
# Same story with a quadratically parameterized index set.  The index set
# enters through a single quadratic inequality in y of degree <= 2, so the
# membership test for the constraint cone reduces to one extra PSD block.
# ---------------------------------------------------------------------------
prob, opts = instances.case2_problem()
print()
print("tag:", classify_case(prob).tag.value)

trace = solve_hierarchy(prob, opts)
print(f"  optimal value  = {trace.r_dual:.6f}   (exact: 0.5)")
print("  minimizer:", np.round(trace.candidate, 4), "  (exact: [0.5 0.5])")
