"""Tests for the certification layer: nonnegative least squares, lower-level
solves over the index set, KKT residuals, feasibility and the s.o.s-convexity
test."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsipp import certify, extract, indexset, instances
from fsipp.certify import (active_sets, certify_point, feasibility_check,
                           kkt_residual, lower_level_solve, nnls,
                           sos_convexity_check)
from fsipp.errors import NumericalTroubleError
from fsipp.indexset import (Interval, QuadraticSet, Semialgebraic,
                            minimize_on_semialgebraic)
from fsipp.moment import QModule, membership_margin
from fsipp.multiobj import _audit_y_points
from fsipp.poly import BivariatePoly, Polynomial, ceil_half
from fsipp.relax import FsippProblem

from conftest import apply_functional, from_atoms, hierarchy_lower_level

# ---------------------------------------------------------------- nnls

def test_nnls_clips_negative_directions():
    A = np.eye(2)
    x, resid = nnls(A, np.array([1.0, -2.0]))
    np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-12)
    assert resid == pytest.approx(2.0, abs=1e-12)


def test_nnls_exact_on_consistent_nonnegative_systems():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(6, 3))
    x_true = np.abs(rng.normal(size=3)) + 0.1
    x, resid = nnls(A, A @ x_true)
    np.testing.assert_allclose(x, x_true, atol=1e-9)
    assert resid <= 1e-10


def test_nnls_degenerate_shapes():
    x, resid = nnls(np.zeros((3, 0)), np.array([1.0, 2.0, 2.0]))
    assert x.size == 0 and resid == pytest.approx(3.0)
    with pytest.raises(ValueError):
        nnls(np.eye(2), np.ones(3))


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 10_000))
def test_nnls_agrees_with_scipy(seed):
    from scipy.optimize import nnls as scipy_nnls

    rng = np.random.default_rng(seed)
    A = rng.normal(size=(int(rng.integers(2, 8)), int(rng.integers(1, 6))))
    b = rng.normal(size=A.shape[0])
    x, resid = nnls(A, b)
    x_ref, resid_ref = scipy_nnls(A, b)
    assert resid == pytest.approx(resid_ref, abs=1e-9)
    np.testing.assert_allclose(A @ x, A @ x_ref, atol=1e-7)


# ------------------------------------------------------- lower-level solve

def test_lower_level_constant_objective_short_circuits():
    prob, _ = instances.case1_problem()
    # x = 0 sends every y-dependent slice of p to zero
    p_star, Lambda, certified = lower_level_solve(np.zeros(2), prob)
    assert certified
    assert p_star == pytest.approx(0.0, abs=1e-12)
    assert len(Lambda) == 1


def test_lower_level_minimizers_lie_on_the_index_set(monkeypatch):
    # Atom extraction is checked against the index set's generators, so a
    # certified minimizer is a point of the quarter arc.
    prob, _ = instances.quarter_circle_problem()
    gens = prob.index_set.as_generators()
    seen = []
    original = extract.extract_atoms

    def spy(L, cert, **kw):
        seen.append(kw.get("gens"))
        return original(L, cert, **kw)

    monkeypatch.setattr(extract, "extract_atoms", spy)
    p_star, Lambda, certified = lower_level_solve(np.array([0.7377, 0.6033]), prob)
    assert certified and seen and all(list(g) == list(gens) for g in seen)
    for y in Lambda:
        assert min(y) >= -1e-6 and abs(float(np.hypot(*y)) - 1.0) <= 1e-6


def test_lower_level_is_a_lower_bound_on_grids():
    prob, _ = instances.quarter_circle_problem()
    # the index set is the quarter arc {y >= 0, |y| = 1}: grid it directly
    theta = np.linspace(0.0, np.pi / 2, 10_000)
    ys = np.column_stack([np.cos(theta), np.sin(theta)])
    for u in (np.array([0.7377, 0.6033]), np.array([0.2, 0.1])):
        p_star, _, _ = lower_level_solve(u, prob)
        joint = prob.p.substitute_x(u)
        grid_min = min(float(-joint(y)) for y in ys)
        assert p_star <= grid_min + 1e-6


def test_lower_level_takes_the_bound_from_the_orders_that_end_optimal(
        monkeypatch):
    # the first order of the default pair stops at its iteration cap: the
    # bound, support and certificate are the second order's alone
    prob, _ = instances.quarter_circle_problem()
    u = np.array([0.7377, 0.6033])
    h = prob.p.substitute_x(u).scale(-1.0)
    gens = prob.index_set.as_generators()
    k_min = ceil_half(h.degree)
    _, bound, L, cert, atoms = minimize_on_semialgebraic(
        h, gens, k_min + 1, max(ceil_half(q.degree) for q in gens))
    expected = (bound, [pt for pt, _ in atoms] if cert else [L.point()],
                cert is not None)
    real_solve = indexset.solve
    calls = []

    def capped(first_only):
        def solve(sdp, **kw):
            calls.append(sdp)
            sol = real_solve(sdp, **kw)
            if first_only and len(calls) > 1:
                return sol
            return replace(sol, status="IterLimit")
        return solve

    monkeypatch.setattr(indexset, "solve", capped(first_only=True))
    p_star, Lambda, certified = lower_level_solve(u, prob)
    assert len(calls) == 2
    assert p_star == expected[0] and certified == expected[2]
    np.testing.assert_array_equal(Lambda, expected[1])

    # when no order ends Optimal there is no bound: the error names both
    monkeypatch.setattr(indexset, "solve", capped(first_only=False))
    with pytest.raises(NumericalTroubleError) as err:
        lower_level_solve(u, prob)
    assert f"order {k_min}: IterLimit" in str(err.value)
    assert f"order {k_min + 1}: IterLimit" in str(err.value)


def _constant_in_y(index_set):
    """A problem whose p(u, .) is the constant x2 - 1 wherever
    x1 (|y|^2 - 0.49) vanishes: at x1 = 0, or on the circle |y|^2 = 0.49."""
    joint = Polynomial(4, {(1, 0, 2, 0): 1.0, (1, 0, 0, 2): 1.0,
                           (1, 0, 0, 0): -0.49, (0, 1, 0, 0): 1.0,
                           (0, 0, 0, 0): -1.0})
    return FsippProblem(Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}),
                        Polynomial.constant(2, 1.0), (),
                        BivariatePoly.from_joint(joint, 2, 2), index_set)


def test_lower_level_locates_a_point_of_an_index_set_without_interior():
    # Y is a circle, which no grid hits.  At u = (0, 0.5), p(u, y) = -0.5
    # does not depend on y, so the solve reports a point of Y that the
    # moment hierarchy locates as the minimizer of 0.6 y1 + 0.8 y2
    q = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -0.49})
    prob = _constant_in_y(Semialgebraic((q, q.scale(-1.0))))
    p_star, Lambda, certified = lower_level_solve(np.array([0.0, 0.5]), prob)
    assert (p_star, certified) == (0.5, True) and len(Lambda) == 1
    assert abs(Lambda[0] @ Lambda[0] - 0.49) <= 1e-6
    np.testing.assert_allclose(Lambda[0], [-0.42, -0.56], atol=1e-6)
    # off the origin too: the circle of centre (0.3, 0.31) and radius 0.114
    # passes between the points of a 41-per-axis grid of the unit square
    q = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -0.6,
                       (0, 1): -0.62, (0, 0): 0.1731})
    point = Semialgebraic((q, q.scale(-1.0))).representative_point()
    assert abs(q(point)) <= 1e-6


def test_lower_level_refuses_an_index_set_no_linear_form_locates():
    # on the chord {0.6 y1 + 0.8 y2 = 0} of the unit disc the linear form
    # is constant, so no order certifies a minimizer: the solve needs a
    # point of Y to report and must not make one up
    line = Polynomial(2, {(1, 0): 0.6, (0, 1): 0.8})
    disc = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    prob = _constant_in_y(Semialgebraic((line, line.scale(-1.0), disc)))
    with pytest.raises(ValueError, match="no order of the moment hierarchy"):
        lower_level_solve(np.array([0.0, 0.5]), prob)


def test_active_sets_split_by_tau():
    prob, _ = instances.case2_problem()
    u = np.array([0.5, 0.5])  # psi = (x1+x2-1)(x1+x2-0.5) = 0 at u
    lower = lower_level_solve(u, prob)
    Lambda, J = active_sets(u, prob, tau=1e-3, lower=lower)
    assert J == [0]
    _, J_far = active_sets(np.array([0.55, 0.55]), prob, tau=1e-6, lower=lower)
    assert J_far == []


def test_feasibility_and_slater():
    prob, _ = instances.case2_problem()
    ok, margin = feasibility_check(np.array([0.5, 0.5]), prob, tau=1e-3)
    assert ok and margin <= 1e-3
    bad, bad_margin = feasibility_check(np.array([2.0, 2.0]), prob, tau=1e-3)
    assert not bad and bad_margin > 1.0
    # a Slater point: every constraint holds strictly
    strict, slack = feasibility_check(np.array([0.4, 0.4]), prob, tau=0.0)
    assert strict and slack < 0.0


def test_kkt_residual_vanishes_at_interior_stationary_point():
    prob, _, _, argmin = instances.planted_convex_quadratic(0)
    omega, multipliers = kkt_residual(np.asarray(argmin), prob, [], [])
    assert omega <= 1e-16
    assert multipliers == {"gamma": {}, "eta": {}}


def test_kkt_residual_rejects_nonpositive_denominator():
    prob, _ = instances.case1_problem()  # g = 1 - x1 - x2
    with pytest.raises(ValueError):
        kkt_residual(np.array([2.0, 2.0]), prob, [], [])


def test_certify_point_feasible_but_not_stationary():
    prob, _ = instances.quarter_circle_problem()
    report = certify_point(np.zeros(2), prob, tau=1e-3)
    assert report.feasible_within_tau
    assert report.omega > 1e-3
    assert not report.passes
    round_trip = report.as_dict()
    assert round_trip["passes"] is False
    assert round_trip["omega"] == pytest.approx(report.omega)


# ------------------------------------------------ exact lower level

def _quadratic(n, c0, b, A):
    """c0 + b.y + y.A y in n variables, A symmetric."""
    terms = {(0,) * n: float(c0)}
    for i in range(n):
        terms[tuple(int(t == i) for t in range(n))] = float(b[i])
        for j in range(i, n):
            e = tuple(int(t == i) + int(t == j) for t in range(n))
            terms[e] = float(A[i, j] if i == j else 2.0 * A[i, j])
    return Polynomial(n, terms)


def _univariate(coef):
    """The polynomial of a numpy coefficient vector, highest power first."""
    d = len(coef) - 1
    return Polynomial(1, {(d - i,): float(c) for i, c in enumerate(coef)})


def _ball_sample(n):
    """Points of the closed unit ball, its sphere included: 101 radii on
    4,000 directions in the plane, 41 radii on 3,000 Fibonacci directions
    in space."""
    if n == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, 4000, endpoint=False)
        dirs = np.column_stack([np.cos(theta), np.sin(theta)])
        radii = np.linspace(0.0, 1.0, 101)
    else:
        k = np.arange(3000) + 0.5
        polar, azim = np.arccos(1.0 - k / 1500.0), np.pi * (1.0 + 5 ** 0.5) * k
        dirs = np.column_stack([np.cos(azim) * np.sin(polar),
                                np.sin(azim) * np.sin(polar), np.cos(polar)])
        radii = np.linspace(0.0, 1.0, 41)
    return (radii[:, None, None] * dirs[None]).reshape(-1, n)


# (centre, semi-axes, rotation seed or None): the unit disc, an offset
# disc, a rotated ellipse and a rotated ellipsoid in three variables
ELLIPSOIDS = {"unit-disc": ((0.0, 0.0), (1.0, 1.0), None),
              "offset-disc": ((0.2, -0.1), (0.7, 0.7), None),
              "ellipse": ((0.3, -0.4), (1.8, 0.6), 5),
              "ellipsoid-3d": ((0.1, -0.2, 0.3), (1.2, 0.5, 0.8), 6)}


def _ellipsoid(name):
    """The QuadraticSet 1 - (y - c).M(y - c) >= 0, M = R diag(a^-2) R^T,
    the points of the dense ball sample mapped onto it by y = c + R (a z),
    and the inverse map z(y) as n affine polynomials."""
    c, axes, seed = (np.array(v) if v is not None else None
                     for v in ELLIPSOIDS[name])
    n = c.size
    R = np.eye(n) if seed is None else np.linalg.qr(
        np.random.default_rng(int(seed)).normal(size=(n, n)))[0]
    M = R @ np.diag(axes ** -2.0) @ R.T
    index_set = QuadraticSet(_quadratic(n, 1.0 - c @ M @ c, 2.0 * M @ c, -M),
                             tuple(c))
    W = R / axes  # z = W^T (y - c)
    to_z = [_quadratic(n, -W[:, i] @ c, W[:, i], np.zeros((n, n)))
            for i in range(n)]
    return index_set, c + (_ball_sample(n) * axes) @ R.T, to_z


def _check_exact(h, index_set, sample, certified=True):
    """The oracle's value is no more than the sample's least, within 1e-9
    of the hierarchy's solved to 1e-10, and attained in Y.  (Whether the
    hierarchy's rank test certifies at that tolerance depends on the BLAS
    kernel on the rotated hard case, so only its value is compared.)"""
    value, minimizers, cert = index_set.minimum(h, 1e-8)
    assert cert is certified
    assert value <= h.eval_many(sample).min() + 1e-12
    ref = hierarchy_lower_level(h, index_set, sdp_tol=1e-10)
    assert abs(value - ref) <= 1e-9
    assert minimizers and value == min(h(y) for y in minimizers)
    for y in minimizers:
        assert min(q(y) for q in index_set.as_generators()) >= -1e-12
        assert h(y) <= value + 1e-9 * (1.0 + abs(value))
    return minimizers


INTERVAL_CASES = {
    **{f"seeded-degree-{d}": _univariate(np.random.default_rng(d).normal(
        size=d + 1)) for d in range(1, 7)},
    "quartic-(y-0.3)^4": _univariate(np.poly([0.3] * 4)),
    "quartic-(y+0.77)^4": _univariate(np.poly([-0.77] * 4)),
    "h'-double-root": _univariate(np.polyint(np.poly([-0.4, -0.4, 0.5]))),
    "two-minimizers": _univariate(np.polyint(np.poly([-0.5, 0.0, 0.5]))),
}


@pytest.mark.parametrize("name", sorted(INTERVAL_CASES))
def test_exact_lower_level_on_the_interval(name):
    h = INTERVAL_CASES[name]
    sample = np.linspace(-1.0, 1.0, 200_001)[:, None]
    minimizers = _check_exact(h, Interval(), sample)
    assert len(minimizers) == (2 if name == "two-minimizers" else 1)


@pytest.mark.parametrize("name", sorted(ELLIPSOIDS))
def test_exact_lower_level_on_ellipsoids(name):
    # six seeded quadratics per set: the even ones convex, the odd ones
    # indefinite
    index_set, sample, _ = _ellipsoid(name)
    n = index_set.n_y
    rng = np.random.default_rng(len(name))
    for trial in range(6):
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        lam = rng.uniform(0.2, 2.0, size=n)
        lam[0] *= -1.0 if trial % 2 else 1.0
        h = _quadratic(n, rng.normal(), rng.normal(size=n),
                       V @ np.diag(lam) @ V.T)
        _check_exact(h, index_set, sample)


@pytest.mark.parametrize("name", ["unit-disc", "ellipse"])
def test_exact_lower_level_interior_and_hard_case(name):
    # each h is written in the coordinates z of the unit ball; on the
    # rotated ellipse rounding leaves g a tiny part along E
    index_set, sample, to_z = _ellipsoid(name)

    def z_of(y):
        return [q(y) for q in to_z]

    # an interior minimizer near the sphere, at z = (0.6, 0.5)
    bowl = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (1, 0): -1.2,
                          (0, 1): -1.0})
    (y,) = _check_exact(bowl.compose(to_z), index_set, sample)
    np.testing.assert_allclose(z_of(y), [0.6, 0.5], atol=1e-9)
    # the hard case: g is orthogonal to the z1 axis, the eigenvector of the
    # negative eigenvalue; the minimizers are z = (+-sqrt(1 - 0.15^2), -0.15)
    h = Polynomial(2, {(2, 0): -1.0, (0, 1): 0.3}).compose(to_z)
    minimizers = _check_exact(h, index_set, sample)
    t = np.sqrt(1 - 0.15 ** 2)
    np.testing.assert_allclose(sorted(z_of(y) for y in minimizers),
                               [[-t, -0.15], [t, -0.15]], atol=1e-9)


def test_exact_lower_level_continua():
    # walk II's chord y1 = y2 and the whole circle
    disc, sample, _ = _ellipsoid("unit-disc")
    chord = Polynomial(2, {(0, 0): 0.5128, (2, 0): 0.1007, (1, 1): -0.2014,
                           (0, 2): 0.1007})
    (y,) = _check_exact(chord, disc, sample, certified=False)
    assert abs(y[0] - y[1]) <= 1e-12
    (y,) = _check_exact(Polynomial(2, {(2, 0): -1.0, (0, 2): -1.0}), disc,
                        sample, certified=False)
    assert abs(y @ y - 1.0) <= 1e-12


def _family(h, index_set):
    """A problem in one variable x whose p(x, y) = x - h(y), so that the
    lower level at x = 0 minimizes h."""
    n = index_set.n_y
    joint = {(0,) + e: -c for e, c in h.terms.items()}
    joint[(1,) + (0,) * n] = 1.0
    p = BivariatePoly.from_joint(Polynomial(1 + n, joint), 1, n)
    return FsippProblem(Polynomial(1, {(2,): 1.0}),
                        Polynomial.constant(1, 1.0), (), p, index_set)


def test_exact_lower_level_leaves_other_sets_to_the_hierarchy(monkeypatch):
    # a non-concave phi (an unbounded Y) and a cubic in y on the disc keep
    # the moment hierarchy
    calls = []
    real = indexset.minimize_on_semialgebraic

    def spy(h, gens, k, k0, **kw):
        calls.append(k)
        return real(h, gens, k, k0, **kw)

    monkeypatch.setattr(indexset, "minimize_on_semialgebraic", spy)
    parabola = QuadraticSet(Polynomial(2, {(0, 0): 1.0, (0, 1): -1.0,
                                           (2, 0): 1.0}), (0.0, 0.0))
    disc, sample, _ = _ellipsoid("unit-disc")
    cubic = Polynomial(2, {(3, 0): 1.0, (1, 1): 0.5, (0, 1): -0.2})
    bowl = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 1): -6.0, (0, 0): 9.0})
    values = []
    for h, index_set in ((bowl, parabola), (cubic, disc)):
        calls.clear()
        values.append(lower_level_solve(np.zeros(1), _family(h, index_set))[0])
        assert calls
    # the bowl's least value over y2 <= 1 + y1^2 is 1.75, at y1^2 = 1.5
    assert abs(values[0] - 1.75) <= 1e-8
    assert values[1] <= cubic.eval_many(sample).min() + 1e-8


# ------------------------------------------------------- s.o.s-convexity

def test_sos_convexity_accepts_low_degree_and_separable_quartics():
    assert sos_convexity_check(Polynomial(2, {(1, 0): 3.0, (0, 1): -1.0}))
    assert sos_convexity_check(Polynomial.constant(2, 5.0))
    assert sos_convexity_check(Polynomial(2, {(4, 0): 1.0, (0, 4): 1.0}))


def test_sos_convexity_rejects_concave_and_indefinite():
    assert not sos_convexity_check(Polynomial(2, {(2, 0): -1.0, (0, 2): -1.0}))
    assert not sos_convexity_check(Polynomial(2, {(1, 1): 1.0}))
    assert not sos_convexity_check(Polynomial(1, {(3,): 1.0}))


def test_sos_convexity_rejects_the_bundled_convex_sextic():
    assert sos_convexity_check(instances.convex_sextic_poly()) is False


def _packaged_quadratics():
    """Every quadratic datum of the packaged and planted instances: f, -g,
    the constraints and slices of p at sampled index points."""
    singles = [make()[0] for make in (
        instances.case1_problem, instances.case2_problem,
        instances.case3_problem, instances.case4_problem,
        instances.quarter_circle_problem)]
    singles += [instances.planted_convex_quadratic(s)[0] for s in range(16)]
    data = [(prob.f, prob.g, prob.psis, prob.p, prob.index_set)
            for prob in singles]
    for make in (instances.biobjective_case1, instances.biobjective_case2,
                 instances.biobjective_case3, instances.biobjective_case4):
        mprob = make()[0]
        for f, g in mprob.objectives:
            data.append((f, g, mprob.psis, mprob.p, mprob.index_set))
    polys = []
    for f, g, psis, p, index_set in data:
        if isinstance(index_set, Semialgebraic):  # sweep [-1, 1]^n
            index_set = replace(index_set, archimedean_hint=1.0)
        polys += [f, g.scale(-1.0), *psis]
        polys += [p.substitute_y(y) for y in _audit_y_points(index_set)[::1000]]
    return [h for h in polys if h.degree == 2]


def _random_quadratics(count: int):
    """Quadratics in 1-4 variables, half with a PSD Hessian and half
    indefinite, each with its smallest normalized eigenvalue at least 0.05
    away from zero."""
    rng = np.random.default_rng(19)
    out = []
    while len(out) < count:
        m = int(rng.integers(1, 5))
        V = np.linalg.qr(rng.normal(size=(m, m)))[0]
        lam = rng.uniform(0.1, 3.0, size=m) * 10.0 ** rng.integers(-2, 3)
        if len(out) % 2:
            lam[0] = -rng.uniform(0.1, 1.0) * lam.max()
        H = V @ np.diag(lam) @ V.T
        terms = {(0,) * m: float(rng.normal())}
        for i in range(m):
            e = [0] * m
            e[i] = 1
            terms[tuple(e)] = float(rng.normal())
            for j in range(i, m):
                e = [0] * m
                e[i] += 1
                e[j] += 1
                terms[tuple(e)] = float(H[i, i] / 2 if i == j else H[i, j])
        h = Polynomial(m, terms)
        if abs(certify.sos_convexity_margin(h)) >= 0.05:
            out.append(h)
    return out


def _hessian_form(h: Polynomial) -> Polynomial:
    """z^T H z for the constant Hessian H of a quadratic, in z alone."""
    H = h.hessian_at(np.zeros(h.nvars))
    terms = {}
    for i in range(h.nvars):
        for j in range(h.nvars):
            e = [0] * h.nvars
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0.0) + float(H[i, j])
    return Polynomial(h.nvars, {e: c for e, c in terms.items() if c != 0.0})


def test_quadratic_sos_convexity_margin_matches_the_membership_sdp():
    # A quadratic's margin is read off the normalized Hessian without an
    # SDP.  The moment-layer SDP for the Hessian form in QModule((), 1) has
    # the same normalization, but its Gram basis also holds the constant
    # monomial, whose diagonal entry is -t: its margin is min(t*, 0).
    quads = _packaged_quadratics()
    assert len(quads) >= 40
    signs = set()
    for h in quads + _random_quadratics(50):
        margin = certify.sos_convexity_margin(h)
        t_ref, _ = membership_margin(_hessian_form(h), QModule((), 1))
        assert abs(min(margin, 0.0) - t_ref) <= 1e-6, h
        assert sos_convexity_check(h) is bool(t_ref >= -1e-7)
        signs.add(margin > 0)
    assert signs == {False, True}


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_jensen_inequality_for_sos_convex_polynomials(seed):
    """L(h) >= L(1) * h(L(x)/L(1)) for s.o.s-convex h and atomic L."""
    rng = np.random.default_rng(seed)
    B = rng.normal(size=(2, 2))
    Q = B.T @ B
    c = rng.normal(size=2)
    h = Polynomial(2, {(2, 0): Q[0, 0], (1, 1): 2 * Q[0, 1], (0, 2): Q[1, 1],
                       (4, 0): c[0] ** 4, (3, 1): 4 * c[0] ** 3 * c[1],
                       (2, 2): 6 * c[0] ** 2 * c[1] ** 2,
                       (1, 3): 4 * c[0] * c[1] ** 3, (0, 4): c[1] ** 4})
    atoms = [(rng.uniform(-1, 1, size=2), w)
             for w in rng.uniform(0.1, 1.0, size=int(rng.integers(1, 4)))]
    L = from_atoms(2, 2, atoms)
    lhs = apply_functional(L, h)
    rhs = L.mass() * h(L.point())
    assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
