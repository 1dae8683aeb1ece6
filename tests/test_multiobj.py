"""Tests for the sequential efficient-point scheme: scalarization with
no-worsening constraints, walk bookkeeping, grid audits and image export."""

from dataclasses import replace

import numpy as np
import pytest

from fsipp import certify, indexset, instances
from fsipp import multiobj
from fsipp.indexset import Interval, QuadraticSet, Semialgebraic, raster
from fsipp.multiobj import (MultiFsippProblem, efficiency_audit,
                            epsilon_constraint_solve, image_grid, scalarize)
from fsipp.poly import BivariatePoly, Polynomial
from fsipp.relax import RelaxOptions

from conftest import (AUDIT_BOXES, audit_y_points_on_quadratic_set,
                      audit_y_points_on_semialgebraic, hierarchy_lower_level)


def _identical_pair_problem():
    f = Polynomial(2, {(2, 0): 1.0, (1, 0): -0.6, (0, 2): 1.0, (0, 1): 0.4,
                       (0, 0): 0.2})
    g = Polynomial.constant(2, 1.0)
    psi = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -2.0})
    joint = Polynomial(3, {(1, 0, 1): 1.0, (0, 0, 0): -2.0})
    p = BivariatePoly.from_joint(joint, 2, 1)
    return MultiFsippProblem(objectives=((f, g), (f, g)), p=p,
                             index_set=Interval(), psis=(psi,))


# ---------------------------------------------------------------- records

def test_problem_requires_at_least_two_objectives():
    mprob = _identical_pair_problem()
    with pytest.raises(ValueError):
        MultiFsippProblem(objectives=mprob.objectives[:1], p=mprob.p,
                          index_set=mprob.index_set)


def test_objective_vector_evaluates_each_ratio():
    mprob, u0, _ = instances.biobjective_case1()
    vec = mprob.objective_vector(u0)
    f1, g1 = mprob.objectives[0]
    f2, g2 = mprob.objectives[1]
    np.testing.assert_allclose(vec, [f1(u0) / g1(u0), f2(u0) / g2(u0)])


def test_base_problem_carries_shared_constraints():
    mprob, _, _ = instances.biobjective_case2()
    base = mprob.base_problem(2)
    assert base.f == mprob.objectives[1][0]
    assert base.g == mprob.objectives[1][1]
    assert base.psis == mprob.psis
    assert base.p is mprob.p


# ---------------------------------------------------------------- scalarize

def test_scalarize_appends_no_worsening_constraints():
    mprob, u0, _ = instances.biobjective_case1()
    sub = scalarize(mprob, 1, u0)
    assert len(sub.psis) == len(mprob.psis) + 1
    # g2(u0) f2 - f2(u0) g2 with f2(u0) = -1, g2 = 1
    assert sub.psis[-1] == Polynomial(2, {(2, 0): 1.0, (1, 0): 1.0,
                                          (0, 1): -1.0, (0, 0): 1.0})
    # the anchor itself always sits on the boundary of the new constraint
    assert sub.psis[-1](u0) == pytest.approx(0.0, abs=1e-12)


def test_scalarize_stage_index_selects_the_objective():
    mprob, u0, _ = instances.biobjective_case2()
    sub2 = scalarize(mprob, 2, u0)
    assert sub2.f == mprob.objectives[1][0]
    assert len(sub2.psis) == len(mprob.psis) + 1


# ---------------------------------------------------------------- the walk

def test_identical_objectives_keep_the_stage_one_minimizer():
    mprob = _identical_pair_problem()
    report = epsilon_constraint_solve(mprob, np.zeros(2), RelaxOptions())
    assert report.stopped_by == "Exhausted_t"
    assert len(report.path) == 2
    stage1 = report.path[0][1]
    np.testing.assert_allclose(report.final_point, stage1, atol=1e-4)
    np.testing.assert_allclose(stage1, [0.3, -0.2], atol=1e-4)


def test_walk_paths_never_worsen_any_objective(bio_runs):
    for name, (mprob, u0, _, report) in bio_runs.items():
        prev = mprob.objective_vector(u0)
        for _, point, _ in report.path:
            cur = mprob.objective_vector(point)
            assert np.all(cur <= prev + 1e-6), (name, cur, prev)
            prev = cur


def test_walk_reports_are_consistent(bio_runs):
    for name, (mprob, _, _, report) in bio_runs.items():
        stages = [i for i, _, _ in report.path]
        assert stages == list(range(1, len(stages) + 1)), name
        np.testing.assert_allclose(report.final_point, report.path[-1][1])
        np.testing.assert_allclose(report.objective_vector,
                                   mprob.objective_vector(report.final_point))
        assert len(report.traces) == len(report.path)
        if report.stopped_by == "Uniqueness":
            assert len(report.path) < mprob.t


def test_walk_rejects_infeasible_start():
    mprob, _, opts = instances.biobjective_case1()
    with pytest.raises(ValueError):
        epsilon_constraint_solve(mprob, np.array([5.0, 5.0]), opts)


def test_walk_rejects_an_infeasible_anchor(monkeypatch):
    # a stage whose candidate breaks the original constraints: the walk
    # checks it as stage 2's anchor, before stage 2 is set up
    real, stages = multiobj.solve_hierarchy, []

    def outside(sub, *args):
        stages.append(sub)
        return replace(real(sub, *args), candidate=[5.0, 5.0])

    monkeypatch.setattr(multiobj, "solve_hierarchy", outside)
    with pytest.raises(ValueError, match="^stage 2: anchor point infeasible: "
                       r"constraint margin .* > 0\.001$"):
        epsilon_constraint_solve(*instances.biobjective_case1())
    assert len(stages) == 1


def test_walks_make_no_lower_level_sdp(monkeypatch):
    """The packaged walks index p by the interval or the unit disc, where
    the lower level is exact: their feasibility checks solve no SDP, and
    each value is the hierarchy's, at the orders it ran, within 1e-8."""
    lower, sdps = [], []
    real_lower, real_solve = certify.lower_level_solve, indexset.solve

    def spy_lower(u, prob, **kw):
        out = real_lower(u, prob, **kw)
        h = prob.p.substitute_x(np.asarray(u, dtype=float)).scale(-1.0)
        lower.append((h, prob.index_set, out[0]))
        return out

    def spy_solve(sdp, **kw):
        sdps.append(sdp)
        return real_solve(sdp, **kw)

    monkeypatch.setattr(certify, "lower_level_solve", spy_lower)
    monkeypatch.setattr(indexset, "solve", spy_solve)
    for make in (instances.biobjective_case1, instances.biobjective_case2,
                 instances.biobjective_case3, instances.biobjective_case4):
        epsilon_constraint_solve(*make())
    epsilon_constraint_solve(_identical_pair_problem(), np.zeros(2),
                             RelaxOptions())
    monkeypatch.undo()
    # two calls on walk I, two on II, one each on III and IV, two on the
    # identical pair; the hierarchy solved six SDPs for them
    assert len(lower) == 8 and sdps == []
    for h, index_set, p_star in lower:
        if h.degree > 0:
            assert abs(p_star - hierarchy_lower_level(h, index_set)) <= 1e-8


# ---------------------------------------------------------------- audits

def test_audit_rejects_dominated_points():
    mprob, _, _ = instances.biobjective_case3()
    box = AUDIT_BOXES["III"]
    for probe in [(0.3, 0.3), (0.0, 0.5), (0.5, -0.2)]:
        assert efficiency_audit(mprob, np.array(probe), grid_size=120,
                                box=box) is False


def test_audit_matches_the_full_sweep_verdict(bio_runs):
    """The audit sweeps y only over the scalar-feasible points dominating
    u_star; its verdict must equal the one read from image_grid's mask,
    which sweeps every point.  Probes are the walk's final point and every
    97th grid point."""
    sweep_decided = set()
    for name, (mprob, _, _, report) in bio_runs.items():
        box = AUDIT_BOXES[name]
        pts, feas, vals = image_grid(mprob, box, grid_size=60)
        scalar_ok = np.all([psi.eval_many(pts) <= 0.0 for psi in mprob.psis]
                           + [g.eval_many(pts) > 0.0
                              for _, g in mprob.objectives], axis=0)
        for u in [report.final_point, *pts[::97]]:
            star = mprob.objective_vector(u)
            dominates = (np.all(vals <= star + 1e-6, axis=1)
                         & np.any(vals < star - 1e-6, axis=1))
            expected = not np.any(feas & dominates)
            assert efficiency_audit(mprob, u, grid_size=60,
                                    box=box) is expected, (name, u)
            if np.any(scalar_ok & dominates):
                sweep_decided.add(expected)
    # candidates survived the scalar checks, and the sweep both kept one
    # (verdict False) and rejected them all (verdict True)
    assert sweep_decided == {False, True}


@pytest.mark.parametrize("size", [0, -3])
def test_audit_and_image_grid_refuse_a_grid_below_one(size):
    # at grid 0 the audit used to check no point and pass (0.3, 0.3), which
    # grid 120 refutes; a negative size leaked numpy's linspace message
    mprob, _, _ = instances.biobjective_case3()
    box = AUDIT_BOXES["III"]
    refused = f"grid_size must be at least 1; got {size}"
    with pytest.raises(ValueError, match=refused):
        efficiency_audit(mprob, np.array([0.3, 0.3]), grid_size=size, box=box)
    with pytest.raises(ValueError, match=refused):
        image_grid(mprob, box, grid_size=size)


@pytest.mark.parametrize("name, make", [("I", instances.biobjective_case1),
                                        ("II", instances.biobjective_case2)])
def test_image_grid_equals_the_per_point_reference(name, make):
    """Points and values equal eval_many on the raster's points bit for
    bit, and the mask is the scalar tests and a per-y maximum of p over
    the y-sweep, point by point."""
    mprob, _, _ = make()
    box = AUDIT_BOXES[name]
    pts, feas, vals = image_grid(mprob, box, grid_size=31)
    want = raster([(float(lo), float(hi)) for lo, hi in box], 31)
    assert pts.shape == want.shape and pts.tobytes() == want.tobytes()
    ok = np.ones(len(want), dtype=bool)
    for psi in mprob.psis:
        ok &= psi.eval_many(want) <= 0.0
    for idx, (f, g) in enumerate(mprob.objectives):
        den = g.eval_many(want)
        ok &= den > 0.0
        assert vals[:, idx].tobytes() == (f.eval_many(want) / den).tobytes()
    worst = np.full(len(want), -np.inf)
    for y in mprob.index_set.y_sweep():
        worst = np.maximum(worst, mprob.p.substitute_y(y).eval_many(want))
    assert np.array_equal(feas, ok & (worst <= -1e-4))
    assert 0 < int(feas.sum()) < len(want)


def test_audit_y_points_match_the_scalar_sweep():
    """The vectorized y-sweep on a quadratic set returns the scalar loop's
    points: bit for bit on every packaged index set, and to the last few
    bits on random ones, where CPython's float ** 2 (C pow) and numpy's
    x * x can round phi differently."""
    packaged = [make()[0].index_set for make in (
        instances.biobjective_case2, instances.biobjective_case4,
        instances.case2_problem, instances.case4_problem)]
    for index_set in packaged:
        assert isinstance(index_set, QuadraticSet)
        assert np.array_equal(multiobj._audit_y_points(index_set),
                              audit_y_points_on_quadratic_set(index_set))
    rng = np.random.default_rng(8)
    for trial in range(12):
        c = rng.normal(size=2)
        B = rng.normal(size=(2, 2))
        Q = B @ B.T + 0.1 * np.eye(2)
        if trial % 3 == 0:  # indefinite: some directions never leave Y
            Q -= 1.2 * np.linalg.eigvalsh(Q)[0] * np.eye(2)
            Q[1, 1] -= 3.0
        r2 = rng.uniform(0.1, 4.0)
        Qc = Q @ c
        phi = Polynomial(2, {(2, 0): -Q[0, 0], (1, 1): -2.0 * Q[0, 1],
                             (0, 2): -Q[1, 1], (1, 0): 2.0 * Qc[0],
                             (0, 1): 2.0 * Qc[1], (0, 0): r2 - c @ Qc})
        index_set = QuadraticSet(phi, tuple(c))
        got = multiobj._audit_y_points(index_set)
        want = audit_y_points_on_quadratic_set(index_set)
        assert got.shape == want.shape == (8001, 2)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        unbounded = np.isclose(np.linalg.norm(want - c, axis=1), 10.0)
        assert unbounded.any() == (trial % 3 == 0)


def test_audit_y_points_stop_where_a_convex_ray_leaves_the_set():
    """phi = 1 - y2 + y1^2 is convex along every ray from 0, yet the rays
    with tan(angle) >= 2 leave Y at their first root: the sweep ends
    there instead of at t = 10, and matches the scalar loop."""
    phi = Polynomial(2, {(0, 0): 1.0, (0, 1): -1.0, (2, 0): 1.0})
    index_set = QuadraticSet(phi, (0.0, 0.0))
    ys = multiobj._audit_y_points(index_set)
    assert phi.eval_many(ys).min() >= -1e-12
    np.testing.assert_allclose(ys, audit_y_points_on_quadratic_set(index_set),
                               rtol=1e-12, atol=1e-12)
    assert np.isclose(np.linalg.norm(ys, axis=1), 10.0).any()


def test_audit_y_points_on_a_three_dimensional_quadratic_set():
    """Off the plane the rays follow 2,000 fixed Halton directions: y0, four
    points per ray, all in Y, the same on every call."""
    phi = Polynomial(3, {(0, 0, 0): 1.5, (2, 0, 0): -1.0, (0, 2, 0): -2.0,
                         (0, 0, 2): -0.5, (1, 1, 0): 0.3, (0, 0, 1): 0.2})
    y0 = (0.1, -0.2, 0.3)
    index_set = QuadraticSet(phi, y0)
    ys = multiobj._audit_y_points(index_set)
    assert ys.shape == (8001, 3)
    np.testing.assert_array_equal(ys[0], y0)
    assert phi.eval_many(ys).min() >= -1e-12
    assert np.array_equal(ys, multiobj._audit_y_points(index_set))


@pytest.mark.parametrize("index_set", [
    Semialgebraic((Polynomial(3, {(1, 0, 0): 1.0}),), archimedean_hint=2.0),
    Semialgebraic((Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}),),
                  archimedean_hint=1.0),
    Semialgebraic((Polynomial(1, {(0,): 1.0, (2,): -1.0}),),
                  archimedean_hint=1.0),
    replace(instances.quarter_circle_problem()[0].index_set,
            archimedean_hint=1.0),
], ids=["half-ball-3d", "disc", "interval", "arc"])
def test_audit_y_points_on_semialgebraic_sets(index_set):
    got = multiobj._audit_y_points(index_set)
    want = audit_y_points_on_semialgebraic(index_set)
    assert got.shape == want.shape and np.array_equal(got, want)


def _arc_pair():
    """The quarter circle's data with a second, affine objective x1 + 3.
    Its index set {y >= 0, |y| = 1} has no interior."""
    prob, opts = instances.quarter_circle_problem()
    second = (Polynomial(2, {(1, 0): 1.0, (0, 0): 3.0}),
              Polynomial.constant(2, 1.0))
    mprob = MultiFsippProblem(((prob.f, prob.g), second), prob.p,
                              prob.index_set, prob.psis)
    return mprob, np.array([0.7377, 0.6033]), opts


def test_an_empty_y_sweep_refuses_to_check_feasibility():
    # The grid misses the arc, so the sweep has no point.  An empty sweep
    # used to make the worst p -inf and pass 315 of the 41 x 41 points,
    # 189 of them infeasible somewhere on the arc.  The hint 1 grids the
    # cube [-1, 1]^2 around it.
    mprob, u0, _ = _arc_pair()
    mprob = replace(mprob, index_set=replace(mprob.index_set,
                                             archimedean_hint=1.0))
    assert len(multiobj._audit_y_points(mprob.index_set)) == 0
    with pytest.raises(ValueError, match="y-sweep"):
        image_grid(mprob, [(-2.0, 2.0), (-2.0, 2.0)], grid_size=41)
    # (1, 0) is dominated by grid points, so the audit must sweep
    with pytest.raises(ValueError, match="y-sweep"):
        efficiency_audit(mprob, np.array([1.0, 0.0]), grid_size=41,
                         box=[(-2.0, 2.0), (-2.0, 2.0)])
    # no grid point dominates u0: nothing to sweep, nothing refuted
    assert efficiency_audit(mprob, u0, grid_size=41,
                            box=[(-2.0, 2.0), (-2.0, 2.0)])


def test_a_semialgebraic_sweep_needs_the_archimedean_hint():
    # Y = {4 - y^2 >= 0} and p = y - x1, so x is feasible iff x1 >= 2.
    # Without a hint the sweep used to grid [-1, 1] only and flag 620 of
    # the 31 x 31 points, 279 of them with x1 < 2.
    disc = Semialgebraic((Polynomial(1, {(0,): 4.0, (2,): -1.0}),))
    p = BivariatePoly.from_joint(
        Polynomial(3, {(0, 0, 1): 1.0, (1, 0, 0): -1.0}), 2, 1)
    one = Polynomial.constant(2, 1.0)
    objectives = ((Polynomial(2, {(1, 0): 1.0}), one),
                  (Polynomial(2, {(0, 1): 1.0}), one))
    box = [(0.0, 3.0), (0.0, 1.0)]
    with pytest.raises(ValueError, match="archimedean_hint") as raised:
        image_grid(MultiFsippProblem(objectives, p, disc), box, grid_size=31)
    assert "y-sweep" in str(raised.value)
    hinted = MultiFsippProblem(objectives, p,
                               replace(disc, archimedean_hint=4.0))
    pts, feas, _ = image_grid(hinted, box, grid_size=31)
    assert feas.any() and pts[feas, 0].min() >= 2.0


def test_image_grid_shapes_flags_and_determinism():
    mprob, _, _ = instances.biobjective_case1()
    box = [(-2.7, 0.75), (-0.65, 2.7)]
    pts, feas, vals = image_grid(mprob, box, grid_size=30)
    assert pts.shape == (900, 2) and feas.shape == (900,)
    assert vals.shape == (900, 2)
    assert 0 < int(feas.sum()) < 900
    again = image_grid(mprob, box, grid_size=30)
    assert all(np.array_equal(a, b) for a, b in zip((pts, feas, vals), again))
    # flagged-feasible points satisfy the scalar constraints and a sampled
    # slice of the index family
    ys = np.linspace(-1.0, 1.0, 201).reshape(-1, 1)
    for idx in np.flatnonzero(feas)[:10]:
        u = pts[idx]
        joint = mprob.p.substitute_x(u)
        assert max(float(joint(y)) for y in ys) <= 1e-9
        for _, g in mprob.objectives:
            assert g(u) > 0
