"""Tests for problem records, route classification, parameter selection and
the relaxation hierarchy driver."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fsipp import extract, instances, relax
from fsipp.certify import KktReport, feasibility_check
from fsipp.errors import (MissingHintError, NumericalTroubleError,
                          OptimumKnownSignal)
from fsipp.indexset import Interval, QuadraticSet, Semialgebraic
from fsipp.multiobj import _audit_y_points
from fsipp.poly import BivariatePoly, Polynomial
from fsipp.relax import (CaseTag, FsippProblem, HierarchyRow, HierarchyTrace,
                         RelaxOptions, build_primal_sdp, check_tag,
                         choose_g_star, classify_case, convexity_findings,
                         solve_hierarchy)
from fsipp.sdp import LmiBlock, solve


def _toy(f, g, psis=(), joint=None, index_set=None, n_y=1):
    if joint is None:
        joint = Polynomial(2 + n_y, {(0,) * (2 + n_y): -1.0})
    p = BivariatePoly.from_joint(joint, 2, n_y)
    return FsippProblem(f, g, tuple(psis), p, index_set or Interval())


# ---------------------------------------------------------------- records

def test_problem_degree_is_the_max_over_numerator_denominator_psis_p():
    f = Polynomial(2, {(2, 0): 1.0})
    g = Polynomial(2, {(0, 0): 1.0})
    psi = Polynomial(2, {(4, 0): 1.0, (0, 0): -1.0})
    joint = Polynomial(3, {(1, 0, 2): 1.0, (0, 0, 0): -1.0})
    prob = _toy(f, g, [psi], joint)
    assert prob.d == 4  # psi dominates; deg_x p = 1, deg f = 2


def test_index_set_descriptions():
    iv = Interval()
    assert [q((0.5,)) for q in iv.as_generators()] == [pytest.approx(0.75)]
    pts = _audit_y_points(iv)
    assert pts.shape == (2001, 1) and np.all(np.abs(pts) <= 1.0)

    phi = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    disc = QuadraticSet(phi=phi, interior_point=(0.0, 0.0))
    np.testing.assert_allclose(disc.representative_point(), [0.0, 0.0])
    sampled = _audit_y_points(disc)
    assert phi.eval_many(sampled).min() >= -1e-12

    gens = (Polynomial(1, {(0,): 1.0, (2,): -1.0}),)
    semi = Semialgebraic(generators=gens, archimedean_hint=1.0)
    expanded = semi.as_generators()
    assert expanded[0] == gens[0]
    # the hint appends the redundant ball constraint 1 - y^2
    assert expanded[1] == Polynomial(1, {(0,): 1.0, (2,): -1.0})
    assert len(Semialgebraic(generators=gens).as_generators()) == 1


def test_check_tag_validates_structure():
    prob2, _ = instances.case2_problem()
    with pytest.raises(ValueError):
        check_tag(prob2, CaseTag.CASE1)  # needs the interval index set
    prob1, _ = instances.case1_problem()
    with pytest.raises(ValueError):
        check_tag(prob1, CaseTag.CASE2)
    check_tag(prob1, CaseTag.CASE3)  # interval: structurally fine


# ---------------------------------------------------------------- routes

def test_classification_of_bundled_instances():
    expected = {
        "case1_problem": CaseTag.CASE1,
        "case2_problem": CaseTag.CASE2,
        # the sextic inside p is convex but fails the s.o.s-convexity
        # test, so automatic classification stays conservative
        "case3_problem": CaseTag.GENERAL,
        "case4_problem": CaseTag.GENERAL,
        "quarter_circle_problem": CaseTag.GENERAL,
    }
    for name, tag in expected.items():
        prob, _ = getattr(instances, name)()
        assert classify_case(prob).tag is tag, name


def test_case_override_is_validated_then_honored():
    prob, opts = instances.case3_problem()
    assert opts.case_override is CaseTag.CASE3
    assert classify_case(prob, opts.case_override).tag is CaseTag.CASE3
    with pytest.raises(ValueError):
        classify_case(prob, CaseTag.CASE4)  # wrong index-set shape


def test_convexity_findings_name_the_failing_polynomial():
    prob, _ = instances.case3_problem()
    findings = dict(convexity_findings(prob))
    assert findings["f"] and findings["-g"] and findings["psi[0]"]
    assert findings["p"] is False
    # check the quarter-circle numerator directly: full findings on that
    # instance would solve its family SDP, 3,720 rows with Gram blocks of
    # 408, 280 and 280 (p's Hessian depends on y)
    from fsipp.certify import sos_convexity_check
    quarter, _ = instances.quarter_circle_problem()
    assert sos_convexity_check(quarter.f) is False


# ---------------------------------------------------------------- cones

def _poly2(terms):
    return Polynomial(2, terms)


_BALL_R2 = _poly2({(0, 0): 4.0, (2, 0): -1.0, (0, 2): -1.0})  # R = 2
_INTERVAL = Polynomial(1, {(0,): 1.0, (2,): -1.0})
_DISC = _poly2({(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
_CIRCLE = _poly2({(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})


@pytest.mark.parametrize("make, tag, x_cone, y_cone", [
    (instances.case1_problem, CaseTag.CASE1, ((), 2), ((_INTERVAL,), 1)),
    (instances.case2_problem, CaseTag.CASE2, ((), 2), ((_DISC,), 1)),
    (instances.case3_problem, CaseTag.CASE3, ((_BALL_R2,), 4),
     ((_INTERVAL,), 1)),
    (instances.case4_problem, CaseTag.CASE4, ((_BALL_R2,), 4), ((_DISC,), 1)),
    # x-cone: the ball and g - g_star; y-cone: the quarter circle
    (instances.quarter_circle_problem, CaseTag.GENERAL,
     ((_BALL_R2, _poly2({(2, 0): -1.0, (0, 2): -1.0, (0, 0): 3.0})), 4),
     ((_poly2({(1, 0): 1.0}), _poly2({(0, 1): 1.0}), _CIRCLE,
       _CIRCLE.scale(-1.0)), 4)),
], ids=["case1", "case2", "case3", "case4", "quarter"])
def test_each_tag_compiles_quadratic_modules(make, tag, x_cone, y_cone):
    prob, opts = make()
    assert classify_case(prob, opts.case_override).tag is tag
    cones = (relax._x_cone(prob, opts, tag, opts.k),
             relax._y_cone(prob, tag, opts.k))
    for cone, (gens, order) in zip(cones, (x_cone, y_cone)):
        assert (cone.generators, cone.order, cone.nz) == (gens, order, 0)


def test_y_cone_checks_its_degree_bound_on_every_tag():
    # p = y1^4 - 1 over the disc is above the S-lemma cone's degree 2
    joint = Polynomial(4, {(0, 0, 4, 0): 1.0, (0, 0, 0, 0): -1.0})
    quartic = _toy(_poly2({(2, 0): 1.0}), _poly2({(0, 0): 1.0}), joint=joint,
                   index_set=QuadraticSet(_DISC, (0.0, 0.0)), n_y=2)
    with pytest.raises(ValueError, match="degree overflow"):
        relax._y_cone(quartic, CaseTag.CASE2, None)
    quarter, _ = instances.quarter_circle_problem()  # degree 8 in y
    with pytest.raises(ValueError, match="degree overflow"):
        relax._y_cone(quarter, CaseTag.GENERAL, 3)


# ------------------------------------------------------- parameter choice

def test_choose_g_star_affine_denominators():
    prob1, _ = instances.case1_problem()  # g affine
    g_star = choose_g_star(prob1, {"bound": 2.0})
    assert g_star > 0.0
    prob3, _ = instances.case3_problem()  # g affine, general route solve
    gs3 = choose_g_star(prob3, {"bound": 4.0 / 3.0})
    assert gs3 == pytest.approx(1.1242, abs=1e-3)


def test_choose_g_star_nonlinear_denominator_needs_a_point():
    quarter, _ = instances.quarter_circle_problem()
    with pytest.raises(MissingHintError):
        choose_g_star(quarter, {"bound": 4.0 / 3.0})
    g_star = choose_g_star(quarter, {"bound": 4.0 / 3.0,
                                     "feasible_point": [0.5, 0.5]})
    # any positive floor below g at the minimizer (about 3.09) is valid
    assert 0.0 < g_star <= 3.0
    with pytest.raises(MissingHintError):
        choose_g_star(quarter, {})


def test_failed_auxiliary_solve_raises_with_its_status(monkeypatch):
    prob, _ = instances.case1_problem()  # g affine: one auxiliary Case1 solve
    monkeypatch.setattr(relax, "solve",
                        lambda sdp, tol: solve(sdp, tol=tol, max_iter=1))
    with pytest.raises(NumericalTroubleError, match="IterLimit"):
        choose_g_star(prob, {"bound": 2.0})
    prob3, _ = instances.case3_problem()  # g affine, two General orders
    with pytest.raises(NumericalTroubleError, match="k=3: IterLimit; k=4: IterLimit"):
        choose_g_star(prob3, {"bound": 4.0 / 3.0})


def test_choose_g_star_detects_a_zero_of_the_numerator():
    x1 = Polynomial.variable(2, 0)
    x2 = Polynomial.variable(2, 1)
    f = x1 * x1 + x2 * x2
    g = Polynomial(2, {(0, 0): 2.0, (2, 0): -1.0})  # nonlinear, positive near 0
    prob = _toy(f, g)
    with pytest.raises(OptimumKnownSignal) as info:
        choose_g_star(prob, {"bound": 1.0, "feasible_point": [0.0, 0.0]})
    assert info.value.r_star == 0.0
    np.testing.assert_allclose(info.value.point, [0.0, 0.0])


# ------------------------------------------------------- hierarchy driver

def test_single_solve_routes_report_exact_values_and_feasible_points():
    for make, r_star in ((instances.case1_problem, 0.25),
                         (instances.case2_problem, 0.5)):
        prob, opts = make()
        trace = solve_hierarchy(prob, opts)
        assert trace.stop_reason == "single"
        assert len(trace.rows) == 1
        assert trace.r_dual == pytest.approx(r_star, abs=5e-4)
        ok, margin = feasibility_check(trace.candidate, prob, tau=1e-3)
        assert ok, margin


def test_hierarchy_respects_requested_orders():
    prob, opts = instances.case3_problem()
    trace = solve_hierarchy(prob, replace(opts, k_min=4, k=5))
    assert [row.k for row in trace.rows] == [4]  # certificate stops the walk
    assert trace.stop_reason == "rank"
    assert trace.hessian_pd is True


def test_hierarchy_records_iteration_counts():
    prob, opts = instances.case1_problem()
    row = solve_hierarchy(prob, opts).rows[0]
    assert row.dual_iterations > 0


def test_hierarchy_extraction_checks_the_x_cone_localizers(monkeypatch):
    # the atoms must satisfy the generators the moment SDP localized L by:
    # on the quarter circle the ball and g - g_star
    seen = []
    real = extract.extract_atoms

    def spy(L, cert, **kwargs):
        seen.append(kwargs.get("gens"))
        return real(L, cert, **kwargs)

    monkeypatch.setattr(extract, "extract_atoms", spy)
    prob, opts = instances.quarter_circle_problem()
    trace = solve_hierarchy(prob, replace(opts, k_min=4, k=4))
    assert trace.stop_reason == "rank"
    assert seen == [relax._x_cone(prob, opts, CaseTag.GENERAL, 4).generators]
    assert len(seen[0]) == 2


def test_planted_instances_recover_the_planted_optimum():
    for seed in (0, 1):
        prob, opts, c0, argmin = instances.planted_convex_quadratic(seed)
        trace = solve_hierarchy(prob, opts)
        assert trace.r_dual == pytest.approx(c0, abs=1e-6)
        np.testing.assert_allclose(trace.candidate, argmin, atol=1e-4)


@pytest.mark.parametrize("seed", (384, 434, 464, 632, 652, 686, 756))
def test_degenerate_case1_planted_instances_recover_the_planted_optimum(seed):
    # Case1 seeds whose moment SDP drives the Schur matrix ill-conditioned
    prob, opts, c0, argmin = instances.planted_convex_quadratic(seed)
    trace = solve_hierarchy(prob, opts)
    assert trace.r_dual == pytest.approx(c0, abs=1e-3)
    np.testing.assert_allclose(trace.candidate, argmin, atol=1e-3)


def test_infeasible_constraint_family_is_reported_not_raised():
    # p == 1 > 0 for every x, y: the moment side has no feasible functional
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    g = Polynomial.constant(2, 1.0)
    joint = Polynomial(3, {(0, 0, 0): 1.0})
    prob = _toy(f, g, joint=joint)
    trace = solve_hierarchy(prob, RelaxOptions())
    assert trace.candidate is None
    assert trace.stop_reason == "exhausted"
    assert all(row.dual_status == "PrimalInfeasible" for row in trace.rows)
    # the certificate side, its conic dual, is unbounded: rho -> infinity
    # is not certified, and no finite value is reported
    assert all(row.primal_status == "DualInfeasible" for row in trace.rows)
    assert all(row.r_primal == float("-inf") for row in trace.rows)
    assert trace.r_dual == float("inf")


def _rows(*statuses):
    return [HierarchyRow(k=k, dual_status=s) for k, s in enumerate(statuses, 1)]


def _certificate(passed):
    return extract.RankCertificate(k_prime=2, rank_low=1, rank_high=1,
                                   singular_values_low=np.ones(1),
                                   singular_values_high=np.ones(1),
                                   passed=passed)


def _kkt(omega):
    return KktReport(p_star=0.0, Lambda=[], J=[], omega=omega, multipliers={},
                     feasible_within_tau=True, tau=1e-3, lower_certified=True)


@pytest.mark.parametrize("fields, verdict", [
    pytest.param({}, "INCONCLUSIVE", id="no-rows-nothing-pinned"),
    pytest.param({"known_optimum": 0.0}, "CERTIFIED", id="pinned-optimum"),
    pytest.param({"rows": _rows("PrimalInfeasible", "PrimalInfeasible")},
                 "INFEASIBLE", id="every-row-infeasible"),
    pytest.param({"rows": _rows("PrimalInfeasible", "NumericalTrouble")},
                 "INCONCLUSIVE", id="mixed-rows"),
    pytest.param({"rows": _rows("PrimalInfeasible", "")}, "INCONCLUSIVE",
                 id="infeasible-then-failed-build"),
    pytest.param({"rows": _rows("Optimal"), "certificate": _certificate(True)},
                 "CERTIFIED", id="rank-certificate"),
    pytest.param({"rows": _rows("Optimal"), "certificate": _certificate(False)},
                 "INCONCLUSIVE", id="failed-rank-test"),
    pytest.param({"rows": _rows("Optimal"), "kkt": _kkt(0.0)}, "CERTIFIED",
                 id="stop-test-passes"),
    pytest.param({"rows": _rows("Optimal"), "kkt": _kkt(1.0)}, "INCONCLUSIVE",
                 id="stop-test-fails"),
])
def test_trace_verdict_on_hand_built_traces(fields, verdict):
    assert HierarchyTrace(CaseTag.GENERAL, **fields).verdict == verdict


# ------------------------------------------------- one solve per order

@pytest.mark.parametrize("make, k_range", [(instances.case1_problem, None),
                                           (instances.quarter_circle_problem,
                                            (4, 4))])
def test_hierarchy_solves_one_sdp_per_order(monkeypatch, make, k_range):
    calls = []

    def counted(sdp, *args, **kwargs):
        calls.append(sdp)
        return real_solve(sdp, *args, **kwargs)

    real_solve = relax.solve
    monkeypatch.setattr(relax, "solve", counted)
    prob, opts = make()
    if k_range is not None:
        opts = replace(opts, k_min=k_range[0], k=k_range[1])
    trace = solve_hierarchy(prob, opts)
    assert len(trace.rows) == 1
    assert len(calls) == len(trace.rows)
    assert trace.rows[0].dual_iterations > 0


# ------------------------------------------------- moments as free variables

@pytest.mark.parametrize("k, rows", [(4, 19), (5, 23), (6, 27), (7, 31)])
def test_quarter_circle_moment_sdp_has_only_coefficient_rows(k, rows):
    # The moments are the free vector of one LMI block whose diagonal blocks
    # are the moment matrix and the localizers, so the rows are L(g) = 1,
    # L(psi) + slack = 0 and the y-side coefficient rows: no row ties a
    # matrix entry to a moment.  The arc's pair circle >= 0, -circle >= 0 is
    # the ideal (circle), so the y-side rows are its 4k + 1 standard
    # monomials of degree <= 2k (y1 to at most the first power).
    prob, opts = instances.quarter_circle_problem()
    tag = classify_case(prob, opts.case_override).tag
    sdp, vmap = relax.build_dual_sdp(prob, opts, tag, k)
    assert sdp.A.shape[0] == rows
    (lmi,) = [bl for bl in sdp.blocks if isinstance(bl, LmiBlock)]
    assert lmi.nvars == math.comb(prob.m + 2 * k, prob.m)
    assert len(lmi.dims) == 1 + len(relax._x_cone(prob, opts, tag,
                                                   k).generators)
    assert lmi.dims[0] == math.comb(prob.m + k, prob.m)
    # only the normalization L(g) = 1 lives on the moments alone
    offset = vmap.block.offset
    A = sdp.A
    on_moments = (A.cols >= offset) & (A.cols < offset + lmi.nvars)
    only = [bool(on_moments[A.rows == r].all()) for r in range(rows)]
    assert sum(only) == 1


@pytest.mark.parametrize("k, r_dual", [(5, 0.027350345809), (6, 0.027350339903)])
def test_quarter_circle_orders_five_and_six_keep_value_and_certificate(k, r_dual):
    # r_dual as the canonical-entry formulation (one equality row per
    # moment-matrix alias and localizer entry) computed it
    prob, opts = instances.quarter_circle_problem()
    trace = solve_hierarchy(prob, replace(opts, k_min=k, k=k))
    (row,) = trace.rows
    assert row.dual_status == "Optimal"
    assert abs(row.r_dual - r_dual) <= 1e-7
    assert trace.stop_reason == "rank" and trace.certificate.passed
    assert len(trace.atoms) == 1


@pytest.mark.parametrize("run", ["case1_run", "case2_run", "case3_run",
                                 "case4_run", "quarter_run"])
def test_multiplier_value_matches_the_certificate_sdp(request, run):
    # r_primal is read from the moment SDP's multipliers; the separately
    # compiled certificate SDP must reach the same rho
    prob, opts, trace = request.getfixturevalue(run)
    for row in trace.rows:
        assert row.primal_status == row.dual_status == "Optimal"
        sdp, _ = build_primal_sdp(prob, opts, trace.tag, row.k)
        sol = solve(sdp, tol=opts.sdp_tol)
        assert sol.status == "Optimal"
        assert row.r_primal == pytest.approx(-sol.primal_value, abs=1e-7)
        assert row.r_primal <= row.r_dual + 1e-7
