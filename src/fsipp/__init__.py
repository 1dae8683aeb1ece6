"""Solver toolkit for fractional semi-infinite polynomial programs.

Subpackages and modules:

* :mod:`fsipp.poly`     -- sparse polynomial arithmetic and calculus
* :mod:`fsipp.sdp`      -- equality-form SDP model, builder and
  interior-point solver
* :mod:`fsipp.moment`   -- monomial bases, moment matrices, truncated
  quadratic modules and their duals
* :mod:`fsipp.extract`  -- rank tests and atomic-measure extraction
* :mod:`fsipp.certify`  -- lower-level solves, KKT residuals, feasibility
  and convexity certificates
* :mod:`fsipp.indexset` -- the index-set kinds with their generators,
  exact lower levels, y-sweeps and file forms
* :mod:`fsipp.relax`    -- problem classes, conic reformulations and the
  relaxation hierarchy driver
* :mod:`fsipp.multiobj` -- scalarization loop for multi-objective instances
* :mod:`fsipp.cli`      -- command-line front end and JSON formats

The bundled :mod:`fsipp.instances` module provides ready-made problems for
every solver route; the ``demos/`` directory of the repository walks through
each capability with one of them.
"""

from .certify import KktReport, certify_point
from .indexset import Interval, QuadraticSet, Semialgebraic
from .multiobj import (MultiFsippProblem, efficiency_audit,
                       epsilon_constraint_solve, image_grid)
from .poly import BivariatePoly, Polynomial
from .relax import (CaseTag, FsippProblem, HierarchyTrace, RelaxOptions,
                    choose_g_star, classify_case, convexity_findings,
                    solve_hierarchy)

__all__ = [
    "BivariatePoly",
    "CaseTag",
    "FsippProblem",
    "HierarchyTrace",
    "Interval",
    "KktReport",
    "MultiFsippProblem",
    "Polynomial",
    "QuadraticSet",
    "RelaxOptions",
    "Semialgebraic",
    "certify_point",
    "choose_g_star",
    "classify_case",
    "convexity_findings",
    "efficiency_audit",
    "epsilon_constraint_solve",
    "image_grid",
    "solve_hierarchy",
]
__version__ = "0.1.0"
