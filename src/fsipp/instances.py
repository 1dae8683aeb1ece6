"""Ready-made problem instances used by the tests, demos and docs.

Two families of fixtures live here.  The single-objective constructors
return ``(problem, options)`` pairs covering every solver route: the two
routes with a single exact relaxation (interval index set, quadratic
index set), the two finite-convergence routes built around convex but
not sum-of-squares-convex data, and the general hierarchy on a
quarter-circle index set.  The multi-objective constructors return
``(problem, initial point, options)`` triples for the sequential
efficient-point scheme.  ``planted_convex_quadratic`` synthesizes random
instances whose exact minimum is known by construction.
"""

from __future__ import annotations

import numpy as np

from .indexset import Interval, QuadraticSet, Semialgebraic
from .multiobj import MultiFsippProblem
from .poly import BivariatePoly, Polynomial
from .relax import CaseTag, FsippProblem, RelaxOptions


def convex_octic_form() -> Polynomial:
    """A homogeneous degree-8 form in three variables that is convex but
    not sum-of-squares-convex."""
    return Polynomial(3, {
        (8, 0, 0): 32.0, (6, 2, 0): 118.0, (6, 0, 2): 40.0,
        (4, 4, 0): 25.0, (4, 2, 2): -43.0, (4, 0, 4): -35.0,
        (2, 4, 2): 3.0, (2, 2, 4): -16.0, (2, 0, 6): 24.0,
        (0, 8, 0): 16.0, (0, 6, 2): 44.0, (0, 4, 4): 70.0,
        (0, 2, 6): 60.0, (0, 0, 8): 30.0,
    })


def convex_sextic_poly() -> Polynomial:
    """A bivariate sextic that is convex but not sum-of-squares-convex."""
    return Polynomial(2, {
        (0, 0): 89.0, (1, 0): 48.0, (0, 1): -364.0,
        (2, 0): 721.0, (1, 1): 316.0, (0, 2): 3817.0 / 4.0,
        (3, 0): -14.0, (2, 1): -2550.0, (1, 2): -968.0,
        (0, 3): -2060.0, (4, 0): 363.0, (3, 1): 794.0,
        (2, 2): 7269.0 / 2.0, (1, 3): 49.0, (0, 4): 49171.0 / 16.0,
        (5, 0): -9.0, (4, 1): -363.0, (3, 2): -3825.0 / 2.0,
        (2, 3): -4041.0 / 2.0, (1, 4): 1710.0, (0, 5): -9005.0 / 4.0,
        (6, 0): 77.0, (5, 1): -301.0 / 2.0, (4, 2): 2143.0 / 4.0,
        (3, 3): 1671.0 / 2.0, (2, 4): 14901.0 / 16.0,
        (1, 5): -1399.0 / 2.0, (0, 6): 51531.0 / 64.0,
    })


def _pad_x(poly: Polynomial, total: int) -> Polynomial:
    """Reinterpret an x-polynomial inside a joint (x, y) variable tuple."""
    extra = total - poly.nvars
    return Polynomial(total,
                      {e + (0,) * extra: c for e, c in poly.terms.items()})


def _octic_slice_2d() -> Polynomial:
    """The octic form with its third variable frozen at one."""
    h1 = convex_octic_form()
    x1 = Polynomial(2, {(1, 0): 1.0})
    x2 = Polynomial(2, {(0, 1): 1.0})
    return h1.compose([x1, x2, Polynomial.constant(2, 1.0)])


def case1_problem() -> tuple[FsippProblem, RelaxOptions]:
    """Quadratic-over-affine objective, interval index set; minimum 1/4 at
    (-1/2, -1/2)."""
    f = Polynomial(2, {(2, 0): 1.0, (1, 0): 2.0, (0, 2): 1.0, (0, 1): 2.0,
                       (0, 0): 2.0})
    g = Polynomial(2, {(1, 0): -1.0, (0, 1): -1.0, (0, 0): 1.0})
    joint = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 2): 1.0, (1, 1, 1): 2.0,
                           (1, 0, 0): 1.0, (0, 1, 0): 1.0})
    prob = FsippProblem(f, g, (), BivariatePoly.from_joint(joint, 2, 1),
                        Interval())
    return prob, RelaxOptions()


def case2_problem() -> tuple[FsippProblem, RelaxOptions]:
    """Quadratic fractional objective over a disc-indexed family; minimum
    1/2 at (1/2, 1/2)."""
    f = Polynomial(2, {(2, 0): 1.0, (1, 0): -2.0, (0, 2): 1.0, (0, 1): -2.0,
                       (0, 0): 2.0})
    g = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    psi = Polynomial(2, {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0,
                         (1, 0): -1.5, (0, 1): -1.5, (0, 0): 0.5})
    joint = Polynomial(4, {(2, 0, 2, 0): 1.0, (2, 0, 0, 2): 1.0,
                           (0, 2, 0, 0): 0.5, (0, 2, 1, 1): -1.0,
                           (0, 0, 0, 0): -1.0})
    disc = QuadraticSet(Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0,
                                       (0, 2): -1.0}), (0.0, 0.0))
    prob = FsippProblem(f, g, (psi,), BivariatePoly.from_joint(joint, 2, 2),
                        disc)
    return prob, RelaxOptions()


def case3_problem() -> tuple[FsippProblem, RelaxOptions]:
    """Interval-indexed instance whose constraint family carries the
    non-sum-of-squares-convex sextic; minimum about -0.8745 at
    (0.9044, 0.8460)."""
    f = Polynomial(2, {(2, 0): 1.0, (1, 0): -2.0, (0, 2): 1.0, (0, 1): -2.0})
    g = Polynomial(2, {(1, 0): -1.0, (0, 1): -1.0, (0, 0): 4.0})
    psi = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -4.0})
    h2 = convex_sextic_poly().scale(1e-3)
    joint = _pad_x(h2, 3) + Polynomial(3, {(1, 0, 1): -1.0, (0, 1, 2): -1.0,
                                           (0, 0, 0): -1.0})
    prob = FsippProblem(f, g, (psi,), BivariatePoly.from_joint(joint, 2, 1),
                        Interval())
    return prob, RelaxOptions(R=2.0, k=4, case_override=CaseTag.CASE3)


def case4_problem() -> tuple[FsippProblem, RelaxOptions]:
    """Disc-indexed companion of :func:`case3_problem`; minimizer about
    (0.7211, 0.6912)."""
    f = Polynomial(2, {(2, 0): 1.0, (1, 0): -4.0, (0, 2): 1.0, (0, 1): -4.0,
                       (0, 0): 7.0})
    g = Polynomial(2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 4.0})
    psi = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    h2 = convex_sextic_poly().scale(1e-3)
    joint = _pad_x(h2, 4) + Polynomial(4, {(1, 0, 1, 1): 1.0,
                                           (0, 1, 1, 1): 1.0,
                                           (0, 0, 0, 0): -1.0})
    disc = QuadraticSet(Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0,
                                       (0, 2): -1.0}), (0.0, 0.0))
    prob = FsippProblem(f, g, (psi,), BivariatePoly.from_joint(joint, 2, 2),
                        disc)
    return prob, RelaxOptions(R=2.0, k=4, case_override=CaseTag.CASE4)


def quarter_circle_problem() -> tuple[FsippProblem, RelaxOptions]:
    """General-route instance indexed by the quarter circle
    {y >= 0, ||y|| = 1}; the constraint family rotates the octic form.

    The order-4 relaxation gives about 0.0274 with minimizer near
    (0.7377, 0.6033).
    """
    x1 = Polynomial(2, {(1, 0): 1.0})
    x2 = Polynomial(2, {(0, 1): 1.0})
    sub = [x1 - Polynomial.constant(2, 1.0), x2 - Polynomial.constant(2, 1.0)]
    f = convex_sextic_poly().compose(sub).scale(1e-4)
    g = Polynomial(2, {(2, 0): -1.0, (0, 2): -1.0, (0, 0): 4.0})
    psi = Polynomial(2, {(2, 0): 0.5, (0, 2): 2.0, (0, 0): -1.0})
    v1 = Polynomial(4, {(1, 0, 1, 0): 1.0, (0, 1, 0, 1): -1.0})
    v2 = Polynomial(4, {(1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0})
    joint = (convex_octic_form()
             .compose([v1, v2, Polynomial.constant(4, 1.0)]).scale(1e-2)
             + v1 - v2 - Polynomial.constant(4, 1.0))
    y1 = Polynomial(2, {(1, 0): 1.0})
    y2 = Polynomial(2, {(0, 1): 1.0})
    circle = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    arc = Semialgebraic((y1, y2, circle, circle.scale(-1.0)))
    prob = FsippProblem(f, g, (psi,), BivariatePoly.from_joint(joint, 2, 2),
                        arc)
    return prob, RelaxOptions(R=2.0, g_star=1.0, k=4,
                              case_override=CaseTag.GENERAL)


def biobjective_case1() -> tuple[MultiFsippProblem, np.ndarray, RelaxOptions]:
    """Two objectives over an ellipse encoded by an interval-indexed
    family; the walk from (-1, 1) ends near (-0.2138, 0.8319)."""
    f1 = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0})
    g1 = Polynomial(2, {(0, 1): 1.0, (0, 0): 1.0})
    f2 = Polynomial(2, {(2, 0): 1.0, (0, 1): -1.0, (1, 0): 1.0})
    g2 = Polynomial.constant(2, 1.0)
    joint = Polynomial(3, {(1, 0, 4): 1.0, (1, 0, 3): 2.0, (1, 0, 2): -3.0,
                           (1, 0, 1): -2.0, (1, 0, 0): 1.0,
                           (0, 1, 3): 2.0, (0, 1, 1): -2.0,
                           (0, 0, 2): -2.0})
    mprob = MultiFsippProblem(((f1, g1), (f2, g2)),
                              BivariatePoly.from_joint(joint, 2, 1),
                              Interval())
    return mprob, np.array([-1.0, 1.0]), RelaxOptions()


def biobjective_case2() -> tuple[MultiFsippProblem, np.ndarray, RelaxOptions]:
    """Two objectives over a lens cut from the unit disc, disc-indexed
    family; the walk from (0, 1) ends near (0.6822, -0.1476)."""
    f1 = Polynomial(2, {(0, 2): 1.0, (1, 0): -1.0, (0, 0): 1.0})
    g1 = Polynomial(2, {(2, 0): -1.0, (0, 0): 2.0})
    f2 = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0})
    g2 = Polynomial.constant(2, 1.0)
    joint = Polynomial(4, {(1, 1, 2, 0): 1.0, (1, 1, 1, 1): -2.0,
                           (1, 1, 0, 2): 1.0, (2, 0, 0, 0): 1.0,
                           (0, 2, 0, 0): 1.0, (0, 0, 0, 0): -1.0})
    disc = QuadraticSet(Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0,
                                       (0, 2): -1.0}), (0.0, 0.0))
    mprob = MultiFsippProblem(((f1, g1), (f2, g2)),
                              BivariatePoly.from_joint(joint, 2, 2),
                              disc)
    return mprob, np.array([0.0, 1.0]), RelaxOptions()


def biobjective_case3() -> tuple[MultiFsippProblem, np.ndarray, RelaxOptions]:
    """Interval-indexed pair whose constraint family carries the octic
    slice; one stage suffices and ends near (0.000, -0.1623)."""
    f1 = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    g1 = Polynomial(2, {(2, 0): -1.0, (0, 1): -1.0, (0, 0): 3.0})
    f2 = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.0, (0, 0): 1.0})
    g2 = Polynomial.constant(2, 1.0)
    hx = _octic_slice_2d().scale(1e-2)
    joint = _pad_x(hx, 3) + Polynomial(3, {(1, 0, 1): -1.0, (0, 1, 2): -1.0,
                                           (0, 0, 0): -1.0})
    mprob = MultiFsippProblem(((f1, g1), (f2, g2)),
                              BivariatePoly.from_joint(joint, 2, 1),
                              Interval())
    return mprob, np.array([-0.6, 0.5]), RelaxOptions(
        R=2.0, k=4, case_override=CaseTag.CASE3)


def biobjective_case4() -> tuple[MultiFsippProblem, np.ndarray, RelaxOptions]:
    """Disc-indexed companion of :func:`biobjective_case3`; one stage
    suffices and ends near (0.1231, 0.000)."""
    f1 = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0})
    g1 = Polynomial(2, {(0, 2): -1.0, (1, 0): 1.0, (0, 0): 4.0})
    f2 = Polynomial(2, {(2, 0): 1.0, (0, 1): 1.0})
    g2 = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0, (0, 0): 2.0})
    hx = _octic_slice_2d().scale(1e-2)
    joint = _pad_x(hx, 4) + Polynomial(4, {(1, 0, 1, 1): -1.0,
                                           (0, 1, 1, 1): -1.0,
                                           (0, 0, 0, 0): -1.0})
    disc = QuadraticSet(Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0,
                                       (0, 2): -1.0}), (0.0, 0.0))
    mprob = MultiFsippProblem(((f1, g1), (f2, g2)),
                              BivariatePoly.from_joint(joint, 2, 2),
                              disc)
    return mprob, np.array([-0.5, 0.5]), RelaxOptions(
        R=2.0, k=4, case_override=CaseTag.CASE4)


def planted_convex_quadratic(seed: int) -> tuple[FsippProblem, RelaxOptions,
                                                 float, np.ndarray]:
    """A random strictly convex quadratic over a perturbed ball, with the
    planted interior minimizer and its exact minimum returned.

    Even seeds use the interval index set (single exact relaxation); odd
    seeds wrap the same interval as a generic semialgebraic description,
    which forces the general hierarchy.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-0.35, 0.35, size=2)
    c0 = float(rng.uniform(0.5, 2.0))
    A = rng.normal(size=(2, 2))
    M = A.T @ A + 0.5 * np.eye(2)
    terms: dict[tuple[int, ...], float] = {}

    def bump(expo, coef):
        terms[expo] = terms.get(expo, 0.0) + coef

    for i in range(2):
        for j in range(2):
            expo = tuple(
                (1 if k == i else 0) + (1 if k == j else 0) for k in range(2))
            bump(expo, M[i, j])
            ei = tuple(1 if k == i else 0 for k in range(2))
            bump(ei, -M[i, j] * a[j])
            ej = tuple(1 if k == j else 0 for k in range(2))
            bump(ej, -M[i, j] * a[i])
            bump((0, 0), M[i, j] * a[i] * a[j])
    bump((0, 0), c0)
    f = Polynomial(2, terms)
    g = Polynomial.constant(2, 1.0)
    psi = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -2.0})
    joint = Polynomial(3, {(2, 0, 0): 1.0, (0, 2, 0): 1.0, (0, 0, 0): -1.0,
                           (1, 0, 1): 0.05})
    p = BivariatePoly.from_joint(joint, 2, 1)
    if seed % 2 == 0:
        index_set = Interval()
        opts = RelaxOptions()
    else:
        index_set = Semialgebraic(
            (Polynomial(1, {(0,): 1.0, (2,): -1.0}),))
        opts = RelaxOptions(R=1.5)
    prob = FsippProblem(f, g, (psi,), p, index_set)
    return prob, opts, c0, a
