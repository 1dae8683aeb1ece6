"""Session-scoped fixtures: each bundled problem is solved exactly once.

Hierarchy runs, certification reports, efficient-point walks and the
per-order value tables are cached here and shared by the unit tests and
the acceptance suite.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from fsipp import instances
from fsipp.certify import certify_point
from fsipp.errors import NumericalTroubleError
from fsipp.indexset import minimize_on_semialgebraic
from fsipp.moment import MomentFunctional, QModule, membership_margin
from fsipp.multiobj import epsilon_constraint_solve, scalarize
from fsipp.poly import Polynomial, ceil_half, monomials_up_to
from fsipp.relax import solve_hierarchy
from fsipp.sdp import LinExpr, SdpBuilder, solve

# bounding boxes (per coordinate) that contain each biobjective feasible set,
# used for grid audits and image exports
AUDIT_BOXES = {
    "I": ((-2.7, 0.75), (-0.65, 2.7)),
    "II": ((-1.0, 1.0), (-1.0, 1.0)),
    "III": ((-1.6, 1.6), (-1.6, 1.6)),
    "IV": ((-1.6, 1.6), (-1.6, 1.6)),
}

PLANTED_SEEDS = tuple(range(20))


# ---------------------------------------------------------------- oracles
# Direct definitions, independent of the SDP compilers they check.

def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def apply_functional(L, poly):
    """L(poly) = sum of coefficient times moment over poly's terms."""
    return sum(c * L.value(m) for m, c in poly.terms.items())


def from_atoms(nvars, order, atoms):
    """The order-``order`` moment functional of the atomic measure
    sum_j w_j * delta(u_j), from ``atoms`` = [(u_j, w_j), ...]."""
    vals = []
    for mono in monomials_up_to(nvars, 2 * order):
        acc = 0.0
        for point, weight in atoms:
            term = weight
            for e, c in zip(mono, point):
                term *= float(c) ** e
            acc += term
        vals.append(acc)
    return MomentFunctional(nvars, order, np.array(vals))


def is_member(target, cone, threshold=1e-7):
    """Cone membership decided by the sign of the feasibility margin."""
    t_star, sol = membership_margin(target, cone)
    if np.isnan(t_star):
        raise NumericalTroubleError(
            f"membership solve ended with status {sol.status}")
    return t_star >= -threshold


def localizing_matrix(L, q, k):
    """Matrix with entry (alpha, beta) = L(q * x^(alpha+beta)), rows and
    columns indexed by N^m_{k - ceil(deg q / 2)}."""
    basis = monomials_up_to(L.nvars, k - ceil_half(q.degree))
    M = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j in range(i + 1):
            prod = _add(a, basis[j])
            M[i, j] = M[j, i] = sum(c * L.value(_add(prod, d))
                                    for d, c in q.terms.items())
    return M


def audit_y_points_on_quadratic_set(index_set):
    """The y-sweep of the grid audit on a 2-D quadratic set, one direction
    at a time with scalar evaluations of phi: y0, then per direction d the
    points y0 + frac * t_edge * d, t_edge the step to the boundary."""
    y0 = index_set.representative_point()
    angles = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    phi = index_set.phi
    f0 = phi(y0)
    pts = [y0]
    for d in dirs:
        fp, fm = phi(y0 + d), phi(y0 - d)
        a = 0.5 * (fp + fm) - f0
        b = 0.5 * (fp - fm)
        if a < -1e-12:
            t_edge = (-b - np.sqrt(max(b * b - 4.0 * a * f0, 0.0))) / (2.0 * a)
        elif b < 0.0 and b * b - 4.0 * a * f0 >= 0.0:
            # phi is not concave along d but still leaves Y: its first root
            t_edge = 2.0 * f0 / (np.sqrt(b * b - 4.0 * a * f0) - b)
        else:
            t_edge = 10.0
        for frac in (0.5, 0.8, 0.95, 1.0):
            pts.append(y0 + (frac * t_edge) * d)
    return np.array(pts)


def audit_y_points_on_semialgebraic(index_set):
    """The y-sweep of the grid audit on a semialgebraic set: the points of
    an n-dimensional grid over [-b, b]^n (b the square root of the ball
    hint, else 1) with ceil(16384^(1/n)) points per axis that satisfy
    every generator, thinned by an even stride to at most 4,096."""
    n = index_set.n_y
    hint = index_set.archimedean_hint
    bound = math.sqrt(hint) if hint else 1.0
    per_axis = max(3, int(math.ceil(16384 ** (1.0 / n))))
    axis = np.linspace(-bound, bound, per_axis)
    pts = np.array(list(itertools.product(axis, repeat=n)))
    keep = [all(q(y) >= 0 for q in index_set.generators) for y in pts]
    inside = pts[np.array(keep, dtype=bool)]
    if len(inside) > 4096:
        inside = inside[np.linspace(0, len(inside) - 1, 4096).astype(int)]
    return inside


def full_hessian_form(prob):
    """z^T (d^2 p / dx^2) z in the variables (x, y, z), from the partial
    derivatives of the joint polynomial, summed over both orders (i, j)."""
    joint = prob.p.to_joint()
    m = prob.m
    terms = {}
    for i in range(m):
        for j in range(m):
            for exp, c in joint.partial(i).partial(j).terms.items():
                wide = exp + tuple(int(t == i) + int(t == j) for t in range(m))
                terms[wide] = terms.get(wide, 0.0) + c
    return Polynomial(joint.nvars + m, terms)


def full_basis_family_margin(prob):
    """Membership margin of the Hessian form of p in the quadratic module
    of the index-set generators over all monomials in (x, y, z) of degree
    <= ceil(deg / 2): the family test as it stood before its Gram bases
    were restricted to squares linear in z."""
    form = full_hessian_form(prob)
    m, n = prob.m, prob.p.n_y
    gens = tuple(Polynomial(form.nvars, {(0,) * m + e + (0,) * m: c
                                         for e, c in q.terms.items()})
                 for q in prob.index_set.as_generators())
    t_star, _ = membership_margin(form, QModule(gens, ceil_half(form.degree)))
    return t_star


def zlinear_gram_margin(h):
    """The s.o.s-convexity margin of a polynomial of degree >= 3 by a Gram
    matrix on {x^alpha z_i} written entry by entry: maximal t with the
    Hessian form (normalized by its largest coefficient) equal to the
    Gram form of G + t*I, G PSD."""
    m = h.nvars
    terms = {}
    for i in range(m):
        for j in range(m):
            for exp, c in h.partial(i).partial(j).terms.items():
                key = exp + tuple(int(t == i) + int(t == j) for t in range(m))
                terms[key] = terms.get(key, 0.0) + c
    scale = max(abs(c) for c in terms.values())
    terms = {e: c / scale for e, c in terms.items() if c != 0.0}
    dz = (int(h.degree) - 1) // 2
    basis = [xm + tuple(int(t == i) for t in range(m))
             for i in range(m) for xm in monomials_up_to(m, dz)]
    builder = SdpBuilder()
    G = builder.psd_block(len(basis))
    pair = builder.nonneg_block(2)
    t = pair.entry(0) - pair.entry(1)  # free
    rows = {}
    for i1 in range(len(basis)):
        for i2 in range(i1, len(basis)):
            prod = _add(basis[i1], basis[i2])
            rows.setdefault(prod, LinExpr()).add_term(
                G.entry_index(i2, i1), 1.0 if i1 == i2 else 2.0)
    for b in basis:
        for k, v in t.coeffs.items():
            rows.setdefault(_add(b, b), LinExpr()).add_term(k, v)
    for mono in set(rows) | set(terms):
        builder.add_equality(rows.get(mono, LinExpr())
                             - LinExpr.constant(terms.get(mono, 0.0)), 0.0)
    builder.set_objective(t.scaled(-1.0))
    sol = solve(builder.build())
    assert sol.status == "Optimal", sol.status
    return -sol.primal_value


def hierarchy_lower_level(h, index_set, sdp_tol=1e-8):
    """The moment hierarchy's bound for min h over the index set at the
    orders lower_level_solve runs it: k_min, then k_min + 1 unless k_min
    certifies; the best over the orders that end Optimal."""
    gens = index_set.as_generators()
    k0 = max(ceil_half(q.degree) for q in gens)
    k_min = max(ceil_half(h.degree), k0, 1)
    best = -math.inf
    for k in (k_min, k_min + 1):
        status, bound, _, cert, _ = minimize_on_semialgebraic(
            h, gens, k, k0, sdp_tol=sdp_tol)
        if status == "Optimal":
            best = max(best, bound)
            if cert is not None:
                break
    return best


@pytest.fixture(scope="session")
def case1_run():
    prob, opts = instances.case1_problem()
    return prob, opts, solve_hierarchy(prob, opts)


@pytest.fixture(scope="session")
def case2_run():
    prob, opts = instances.case2_problem()
    return prob, opts, solve_hierarchy(prob, opts)


@pytest.fixture(scope="session")
def case3_run():
    prob, opts = instances.case3_problem()
    return prob, opts, solve_hierarchy(prob, replace(opts, k_min=4, k=4))


@pytest.fixture(scope="session")
def case4_run():
    prob, opts = instances.case4_problem()
    return prob, opts, solve_hierarchy(prob, replace(opts, k_min=4, k=4))


@pytest.fixture(scope="session")
def quarter_run():
    prob, opts = instances.quarter_circle_problem()
    return prob, opts, solve_hierarchy(prob, replace(opts, k_min=4, k=4))


@pytest.fixture(scope="session")
def quarter_kkt(quarter_run):
    prob, _, trace = quarter_run
    return certify_point(trace.candidate, prob, tau=1e-3)


@pytest.fixture(scope="session")
def stage1_run():
    """First scalarized stage of the biobjective interval fixture."""
    mprob, u0, opts = instances.biobjective_case1()
    sub = scalarize(mprob, 1, u0)
    return sub, opts, solve_hierarchy(sub, opts)


@pytest.fixture(scope="session")
def bio_runs():
    makers = {
        "I": instances.biobjective_case1,
        "II": instances.biobjective_case2,
        "III": instances.biobjective_case3,
        "IV": instances.biobjective_case4,
    }
    out = {}
    for name, make in makers.items():
        mprob, u0, opts = make()
        out[name] = (mprob, u0, opts, epsilon_constraint_solve(mprob, u0, opts))
    return out


def _order_rows(make, orders):
    prob, opts = make()
    return [solve_hierarchy(prob, replace(opts, k_min=k, k=k)).rows[0]
            for k in orders]


@pytest.fixture(scope="session")
def sandwich_data(case1_run, case2_run, stage1_run):
    """(rows, r_star) per fixture: per-order value rows and the frozen
    reference optimum each dual value must stay below (within 1e-3)."""
    data = {
        "interval-route": (case1_run[2].rows, 0.25),
        "ball-route": (case2_run[2].rows, 0.5),
        "stage1-route": (stage1_run[2].rows, 0.47907755003264546),
        "rank-route-interval": (_order_rows(instances.case3_problem,
                                            (3, 4, 5)), -0.8745),
        "rank-route-ball": (_order_rows(instances.case4_problem,
                                        (3, 4, 5)), 0.7822589392611532),
        "general-route": (_order_rows(instances.quarter_circle_problem,
                                      (4, 5)), 0.0274),
    }
    return data


@pytest.fixture(scope="session")
def planted_runs():
    """Random convex-quadratic instances with the optimum planted at c0."""
    out = []
    for seed in PLANTED_SEEDS:
        prob, opts, c0, argmin = instances.planted_convex_quadratic(seed)
        if seed % 2 == 0:
            rows = solve_hierarchy(prob, opts).rows
        else:
            rows = [solve_hierarchy(prob, replace(opts, k_min=k, k=k)).rows[0]
                    for k in (1, 2, 3)]
        out.append((seed, prob, c0, np.asarray(argmin), rows))
    return out
