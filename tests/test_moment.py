"""Tests for moment functionals, moment/localizing matrices and cone
membership on both the Gram and the moment side."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from math import comb

from fsipp import certify, indexset, instances, moment
from fsipp.errors import NumericalTroubleError
from fsipp.moment import (MomentFunctional, MomentVarMap, QModule,
                          membership_margin, moment_matrix,
                          sos_membership_blocks)
from fsipp.poly import BivariatePoly, Polynomial, monomials_up_to
from fsipp.sdp import SdpBuilder, solve

from conftest import apply_functional, from_atoms, is_member, localizing_matrix

points = st.lists(
    st.tuples(st.floats(-1, 1, allow_nan=False), st.floats(-1, 1, allow_nan=False)),
    min_size=1, max_size=3)


# ---------------------------------------------------------------- functionals

def test_from_atoms_matches_direct_sum():
    atoms = [((0.5, -0.25), 2.0), ((-1.0, 0.75), 0.5)]
    L = from_atoms(2, 2, atoms)
    for mono in [(0, 0), (1, 0), (2, 1), (0, 4)]:
        direct = sum(w * p[0] ** mono[0] * p[1] ** mono[1] for p, w in atoms)
        assert L.value(mono) == pytest.approx(direct, abs=1e-14)
    assert L.mass() == pytest.approx(2.5)
    mean = (2.0 * np.array([0.5, -0.25]) + 0.5 * np.array([-1.0, 0.75])) / 2.5
    np.testing.assert_allclose(L.point(), mean)


def test_apply_is_linear_in_the_polynomial():
    L = from_atoms(2, 2, [((0.3, 0.7), 1.25)])
    p = Polynomial(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 0): 3.0})
    q = Polynomial(2, {(0, 2): 4.0})
    assert apply_functional(L, p + q) == pytest.approx(
        apply_functional(L, p) + apply_functional(L, q))
    assert apply_functional(L, p) == pytest.approx(1.25 * p((0.3, 0.7)))


def test_functional_degree_guards():
    with pytest.raises(ValueError):
        MomentFunctional(1, 1, np.ones(4))  # the moments up to degree 3
    L = from_atoms(1, 1, [((0.5,), 1.0)])
    with pytest.raises(ValueError):
        moment_matrix(L, 2)


@settings(deadline=None, max_examples=25)
@given(st.tuples(st.floats(-2, 2), st.floats(-2, 2)))
def test_dirac_moment_matrix_is_rank_one(point):
    L = from_atoms(2, 2, [(point, 1.0)])
    M = moment_matrix(L, 2)
    v = np.array([point[0] ** a * point[1] ** b
                  for a, b in monomials_up_to(2, 2)])
    np.testing.assert_allclose(M, np.outer(v, v), atol=1e-10)


@settings(deadline=None, max_examples=25)
@given(points)
def test_atomic_moment_matrix_is_psd_with_atom_count_rank(atom_pts):
    atoms = [(p, 1.0) for p in atom_pts]
    L = from_atoms(2, 3, atoms)
    M = moment_matrix(L, 3)
    w = np.linalg.eigvalsh(M)
    assert w.min() >= -1e-9
    distinct = {tuple(np.round(p, 12)) for p in atom_pts}
    assert np.sum(w > 1e-9 * max(w.max(), 1.0)) <= len(distinct)


def test_localizing_matrix_against_direct_sum():
    q = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    atoms = [((0.5, 0.25), 1.5), ((-0.3, 0.1), 0.75)]
    L = from_atoms(2, 2, atoms)
    Mq = localizing_matrix(L, q, 2)
    basis = monomials_up_to(2, 1)
    direct = np.zeros((len(basis), len(basis)))
    for p, w in atoms:
        v = np.array([p[0] ** a * p[1] ** b for a, b in basis])
        direct += w * q(p) * np.outer(v, v)
    np.testing.assert_allclose(Mq, direct, atol=1e-12)
    # atoms inside {q >= 0}, so the localizing matrix is PSD
    assert np.linalg.eigvalsh(Mq).min() >= -1e-12


def test_localizing_matrix_flags_outside_atom():
    q = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    L = from_atoms(1, 2, [((2.0,), 1.0)])  # q(2) = -3 < 0
    assert np.linalg.eigvalsh(localizing_matrix(L, q, 2)).min() < -1e-6


# ---------------------------------------------------------------- cones

_INTERVAL = Polynomial(1, {(0,): 1.0, (2,): -1.0})               # 1 - y^2
_DISC = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})  # 1 - |y|^2
_CIRCLE = -_DISC                                                  # |y|^2 - 1
_Y1 = Polynomial(2, {(1, 0): 1.0})
_Y2 = Polynomial(2, {(0, 1): 1.0})


@pytest.mark.parametrize("cone, members, outsider", [
    # the interval cone theta0 + theta1*(1 - y^2) of degree <= 2
    (QModule((_INTERVAL,), 1),
     [_INTERVAL, Polynomial(1, {(0,): 4.0, (1,): -4.0, (2,): 1.0})],  # (y-2)^2
     Polynomial(1, {(1,): 1.0})),                                     # y
    # the S-lemma cone theta + lam*phi
    (QModule((_DISC,), 1),
     [Polynomial(2, {(0, 0): 2.0, (2, 0): -1.0, (0, 2): -1.0}), _DISC],  # 1 + phi
     Polynomial(2, {(1, 0): 1.0})),
    (QModule((_INTERVAL,), 2),
     [_INTERVAL, Polynomial(1, {(0,): 1.25, (1,): -1.0, (2,): 0.25})],
     Polynomial(1, {(0,): -2.0, (1,): 1.0})),
    # the equality circle = 0, written as the pair circle >= 0, -circle >= 0
    (QModule((_CIRCLE, -_CIRCLE), 2),
     [Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0}),    # 1 - y1^2 = y2^2 on it
      (_Y1 - _Y2) * (_Y1 - _Y2) * _CIRCLE + _Y2 * _Y2],
     _Y1),
], ids=["interval", "s-lemma", "order-2", "equality"])
def test_qmodule_cone_membership(cone, members, outsider):
    for target in members:
        assert is_member(target, cone)
    assert not is_member(outsider, cone)


# q's leading monomial is y1^2 either way; the second's tail has a term
# of the same degree, y1*y2, so one division step can need another
_CURVE = Polynomial(2, {(2, 0): 1.0, (1, 1): 1.0, (0, 1): -1.0, (0, 0): 0.3})


def _on_curve(q, rng):
    """100 seeded points of {q = 0}: the circle by angle, the curve
    y1^2 + y1*y2 - y2 + 0.3 = 0 as y2 = (y1^2 + 0.3) / (1 - y1)."""
    if q == _CIRCLE:
        t = rng.uniform(0.0, 2.0 * np.pi, 100)
        return np.column_stack([np.cos(t), np.sin(t)])
    y1 = rng.uniform(-1.0, 0.5, 100)
    return np.column_stack([y1, (y1 * y1 + 0.3) / (1.0 - y1)])


@pytest.mark.parametrize("q", [_CIRCLE, _CURVE], ids=["circle", "curve"])
def test_equality_normal_form_is_standard_and_agrees_on_the_variety(q):
    rng = np.random.default_rng(16)
    assert moment._leading(q) == (2, 0)
    for _ in range(5):
        p = Polynomial(2, {m: rng.normal() for m in monomials_up_to(2, 8)})
        tuples, _, code, rank = moment._monomials(2, 8)
        ranks = rank(code(list(p.terms)))
        rows, _, vals = moment._reduce(
            (ranks, np.zeros_like(ranks), np.array(list(p.terms.values()))),
            2, 8, (q,), 1)
        reduced = Polynomial(2, {tuples[r]: v for r, v in zip(rows, vals)})
        assert not any(m[0] >= 2 for m in reduced.terms)  # y1^2 divides none
        pts = _on_curve(q, rng)
        np.testing.assert_allclose(q.eval_many(pts), 0.0, atol=1e-12)
        np.testing.assert_allclose(reduced.eval_many(pts), p.eval_many(pts),
                                   rtol=0.0, atol=1e-12)


def _compile_both_sides(gens):
    """y2^2 in QModule(gens, 2) on the Gram side, and a moment map whose
    localizers are gens with L(1) = 1, in one SDP."""
    builder = SdpBuilder()
    sos_membership_blocks(builder, _Y2 * _Y2, QModule(gens, 2), 2)
    mv = MomentVarMap(builder, 2, 2, gens)
    builder.add_equality(mv.lin((0, 0)), 1.0)
    return builder.build()


def test_equality_pairs_compile_as_ideals_only_with_coprime_leads():
    # circle and y1^2 - y2 both lead with y1^2: the two pairs are not a
    # Groebner basis, so each stays two inequalities on both sides: five
    # Gram blocks, one row per monomial of degree <= 4, five LMI blocks
    parabola = Polynomial(2, {(2, 0): 1.0, (0, 1): -1.0})
    gens = (_CIRCLE, -_CIRCLE, parabola, -parabola)
    assert QModule(gens, 2).equalities == ()
    sdp = _compile_both_sides(gens)
    assert [bl.dim for bl in sdp.blocks[:-1]] == [6, 3, 3, 3, 3]
    assert sdp.blocks[-1].dims == (6, 3, 3, 3, 3)
    assert sdp.A.shape[0] == 15 + 1
    # y2^2 - 0.5 leads with y2^2, coprime to y1^2: both pairs reduce.  The
    # standard monomials are 1, y1, y2, y1*y2, so one Gram block of four
    # and four coefficient rows; the moment side keeps the four standard
    # moments, and its moment matrix on the same four is all of its LMI
    line = _Y2 * _Y2 - Polynomial.constant(2, 0.5)
    gens = (_CIRCLE, -_CIRCLE, -line, line)
    assert QModule(gens, 2).equalities == (_CIRCLE, -line)
    sdp = _compile_both_sides(gens)
    assert [bl.dim for bl in sdp.blocks[:-1]] == [4]
    assert (sdp.blocks[-1].nvars, sdp.blocks[-1].dims) == (4, (4,))
    assert sdp.A.shape[0] == 4 + 1


def test_a_repeated_side_of_a_pair_keeps_the_ideal():
    # (circle, -circle, circle) is the pair written with one side twice:
    # one equality, and the same blocks and rows as the pair on both sides
    gens = (_CIRCLE, -_CIRCLE, _CIRCLE)
    assert QModule(gens, 2).equalities == (_CIRCLE,)
    once, twice = _compile_both_sides(gens[:2]), _compile_both_sides(gens)
    assert ([bl.dim for bl in twice.blocks[:-1]]
            == [bl.dim for bl in once.blocks[:-1]])
    assert twice.blocks[-1].dims == once.blocks[-1].dims
    assert twice.A.shape == once.A.shape
    for part in ("rows", "cols", "vals"):
        np.testing.assert_array_equal(getattr(twice.A, part),
                                      getattr(once.A, part))
    np.testing.assert_array_equal(twice.b, once.b)
    np.testing.assert_array_equal(twice.objective, once.objective)


def test_lower_level_sdp_compiles_the_arc_equality_in_the_quotient(monkeypatch):
    # min -p(u, y) over the arc {y1, y2 >= 0, circle = 0} at order 4: the
    # moments are those of the 17 standard monomials (y1^2 divides none),
    # the LMI holds the moment matrix and the localizers of y1 and y2 on
    # standard bases, and the one row is L(1) = 1
    prob, _ = instances.quarter_circle_problem()
    u = (0.7377, 0.6033)
    sdps, orders = [], []
    real_solve, real_order = indexset.solve, indexset.minimize_on_semialgebraic
    monkeypatch.setattr(indexset, "solve", lambda sdp, **kw: (
        sdps.append(sdp), real_solve(sdp, **kw))[1])
    monkeypatch.setattr(indexset, "minimize_on_semialgebraic", lambda *a, **kw: (
        orders.append(real_order(*a, **kw)), orders[-1])[1])
    p_star, Lambda, certified = certify.lower_level_solve(u, prob)
    assert certified and abs(_CIRCLE(Lambda[0])) <= 1e-6
    sdp = sdps[0]
    (lmi,) = sdp.blocks
    assert (lmi.nvars, lmi.dims) == (17, (9, 7, 7))
    got = np.zeros((1, lmi.nvars))
    got[sdp.A.rows, sdp.A.cols] = sdp.A.vals
    np.testing.assert_array_equal(got, np.eye(1, lmi.nvars))
    np.testing.assert_array_equal(sdp.b, [1.0])
    # read() expands the functional to every monomial, and it vanishes on
    # the ideal: L(circle * m) = 0 for deg m <= 6
    L = orders[0][2]
    assert L.order == 4
    for m in monomials_up_to(2, 6):
        terms = [c * L.value((m[0] + d[0], m[1] + d[1]))
                 for d, c in _CIRCLE.terms.items()]
        assert abs(sum(terms)) <= 1e-12 * sum(map(abs, terms))
    # the bound is the arc's minimum up to solver accuracy
    t = np.linspace(0.0, np.pi / 2, 10_000)
    h = prob.p.substitute_x(np.array(u)).scale(-1.0)
    arc_min = h.eval_many(np.column_stack([np.cos(t), np.sin(t)])).min()
    assert abs(p_star - arc_min) <= 1e-8


def test_sos_cone_rejects_nonneg_non_sos():
    motzkin = Polynomial(2, {(4, 2): 1.0, (2, 4): 1.0, (2, 2): -3.0,
                             (0, 0): 1.0})
    assert not is_member(motzkin, QModule((), 3))
    assert is_member(Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}), QModule((), 1))


def test_membership_margin_sign_and_boundary():
    cone = QModule((), 1)
    interior, _ = membership_margin(Polynomial(1, {(0,): 1.0, (2,): 1.0}), cone)
    boundary, _ = membership_margin(Polynomial(1, {(2,): 1.0}), cone)
    assert interior > 1e-3
    assert boundary == pytest.approx(0.0, abs=1e-6)


def test_membership_degree_guard():
    builder = SdpBuilder()
    with pytest.raises(ValueError):
        sos_membership_blocks(builder, Polynomial(1, {(4,): 1.0}),
                              QModule((), 1), 1)


def _moment_and_localizing(L, cone):
    """Moment matrix and one localizing matrix per dual generator of the
    cone: L lies in the dual cone iff all of them are PSD."""
    k = cone.order
    return [moment_matrix(L, k)] + [localizing_matrix(L, q, k)
                                    for q in cone.generators]


@settings(deadline=None, max_examples=20)
@given(points)
def test_dual_cone_matrices_psd_for_supported_measures(atom_pts):
    phi = Polynomial(2, {(0, 0): 2.0, (2, 0): -1.0, (0, 2): -1.0})
    cone = QModule((phi,), 2)
    atoms = [(p, 0.5) for p in atom_pts]  # all atoms satisfy phi >= 0
    L = from_atoms(2, 2, atoms)
    mats = _moment_and_localizing(L, cone)
    assert len(mats) == 2
    for mat in mats:
        assert np.linalg.eigvalsh(mat).min() >= -1e-9


def test_dual_cone_matrices_flag_unsupported_measure():
    phi = Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0})
    L = from_atoms(2, 2, [((2.0, 0.0), 1.0)])
    mats = _moment_and_localizing(L, QModule((phi,), 2))
    assert min(np.linalg.eigvalsh(m).min() for m in mats) < -1e-6


# ---------------------------------------------------------------- SDP side

def test_localizer_above_the_order_adds_no_block():
    # deg(1 - y^6) = 6 > 2 * order: the localizing basis is empty, so q
    # constrains nothing and no (0 x 0) diagonal block reaches the solver
    values = []
    for localizers in ((), (Polynomial(1, {(0,): 1.0, (6,): -1.0}),)):
        builder = SdpBuilder()
        mv = MomentVarMap(builder, 1, 1, localizers)
        builder.add_equality(mv.lin((0,)), 1.0)
        builder.set_objective(mv.lin_poly(Polynomial(1, {(2,): 1.0, (1,): -1.0})))
        prob = builder.build()
        assert prob.blocks[0].dims == (2,)
        sol = solve(prob, tol=1e-9)
        assert sol.status == "Optimal"
        values.append(sol.primal_value)
    assert values[0] == pytest.approx(-0.25, abs=1e-7)  # min L(y)^2 - L(y)
    assert values[1] == values[0]


def test_moment_var_map_round_trip_and_localizing():
    builder = SdpBuilder()
    gen = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    mv = MomentVarMap(builder, 1, 2, (gen,))
    builder.add_equality(mv.lin((0,)), 1.0)
    builder.set_objective(mv.lin_poly(Polynomial(1, {(2,): -1.0})))
    prob = builder.build()
    # 1 - y^2 is the unit ball: the weights at five points are the only
    # variables and no row ties them together
    (lmi,) = prob.blocks
    assert (lmi.nvars, lmi.dims) == (5, (3, 2)) and prob.A.shape[0] == 1
    sol = solve(prob, tol=1e-9)
    assert sol.status == "Optimal"
    L = mv.read_solution(prob, sol)
    # read() gives the functional sum_i c_i scale_i delta(u_i)
    atoms = [(u, c * s) for u, c, s in zip(mv.points, sol.primal_point[0], mv.scale)]
    np.testing.assert_allclose(L.values, from_atoms(1, 2, atoms).values,
                               rtol=0.0, atol=1e-12)
    # max L(y^2) subject to support in [-1, 1] is 1
    assert L.value((2,)) == pytest.approx(1.0, abs=1e-6)
    assert L.mass() == pytest.approx(1.0, abs=1e-8)
    # the LMI's blocks are the moment and localizing matrices of L
    S_mom, S_loc = lmi.matrices(sol.primal_point[0])
    np.testing.assert_allclose(S_mom, moment_matrix(L, 2), atol=1e-12)
    np.testing.assert_allclose(S_loc, localizing_matrix(L, gen, 2), atol=1e-12)


def test_moment_vector_carries_the_moment_and_localizing_matrices():
    # Writing the moments of an atomic measure into the moment vector gives
    # exactly its moment and localizing matrices, and read() returns them.
    phi = Polynomial(2, {(0, 0): 2.0, (2, 0): -1.0, (0, 2): -1.0, (1, 1): 0.5})
    L = from_atoms(2, 3, [((0.4, -0.2), 1.0), ((0.1, 0.9), 2.0)])
    builder = SdpBuilder()
    mv = MomentVarMap(builder, 2, 3, (phi,))
    prob = builder.build()
    x = np.zeros(prob.num_scalars)
    for mono in mv.monomials:
        x[mv.lin(mono).coeffs.popitem()[0]] = L.value(mono)
    np.testing.assert_array_equal(mv.read(x).values, L.values)
    S_mom, S_loc = prob.blocks[0].matrices(x)
    np.testing.assert_array_equal(S_mom, moment_matrix(L, 3))
    np.testing.assert_allclose(S_loc, localizing_matrix(L, phi, 3), atol=1e-14)


def test_poly_image_in_y_matches_direct_evaluation():
    joint = Polynomial(3, {(2, 0, 1): 1.0, (0, 1, 2): -2.0, (1, 0, 0): 0.5})
    p = BivariatePoly.from_joint(joint, n_x=2, n_y=1)
    atoms = [((0.4, -0.2), 1.0), ((0.1, 0.9), 2.0)]
    L = from_atoms(2, 2, atoms)
    builder = SdpBuilder()
    mv = MomentVarMap(builder, 2, 2)
    x = np.array([L.value(m) for m in mv.monomials])  # the moment vector
    image = mv.lin_polys(list(p.slices.values()))
    img = Polynomial(1, {ymono: sum(c * x[k] for k, c in expr.coeffs.items())
                         for ymono, expr in zip(p.slices, image)})
    for y in (-0.7, 0.0, 1.3):
        direct = sum(w * joint((x1, x2, y)) for (x1, x2), w in atoms)
        assert img((y,)) == pytest.approx(direct, abs=1e-12)


# ---------------------------------------------------------------- points

def test_point_sets_repeat_every_bit_and_stay_well_conditioned():
    # A fresh computation repeats every bit (no random state).  The points
    # lie in [-R, R]^m, one per monomial of degree <= 2k, and the monomial
    # Vandermonde matrix V at them stays below 1e7 in condition for one to
    # three variables up to degree 12, at R = 1 and R = 2 (at most 6.7e6,
    # three variables at degree 12 and R = 2).
    for nvars in (1, 2, 3):
        for order in range(1, 7):
            for radius in (1.0, 2.0):
                got = moment._points(nvars, order, radius)
                again = moment._points.__wrapped__(nvars, order, radius)
                assert all(a.tobytes() == b.tobytes() for a, b in zip(got, again))
                points, values, scale = got
                assert points.shape == (comb(nvars + 2 * order, nvars), nvars)
                assert np.abs(points).max() <= radius
                assert np.linalg.cond(values) < 1e7
                # scale is 1 / |v(u)|^2 over the monomials of degree <= k
                np.testing.assert_allclose(
                    1.0 / scale, (values[:, :comb(nvars + order, nvars)] ** 2).sum(axis=1))


def test_point_weights_round_trip_the_moments():
    # The weights c with V diag(scale) c = w, w the moments of an atomic
    # measure in the disc of radius 2, read back as w; the LMI's blocks are
    # its moment and localizing matrices, and a row L(q) is its value on q.
    disc = Polynomial(2, {(0, 0): 4.0, (2, 0): -1.0, (0, 2): -1.0})
    L = from_atoms(2, 3, [((0.4, -1.2), 1.0), ((1.1, 0.9), 2.0)])
    builder = SdpBuilder()
    mv = MomentVarMap(builder, 2, 3, (disc,))
    prob = builder.build()
    assert np.abs(mv.points).max() <= 2.0 and prob.blocks[0].dims == (10, 6)
    c = np.linalg.solve(mv.values.T * mv.scale, L.values)
    np.testing.assert_allclose(mv.read(c).values, L.values, rtol=1e-10, atol=1e-10)
    S_mom, S_loc = prob.blocks[0].matrices(c)
    np.testing.assert_allclose(S_mom, moment_matrix(L, 3), rtol=1e-10, atol=1e-10)
    np.testing.assert_allclose(S_loc, localizing_matrix(L, disc, 3), rtol=1e-10,
                               atol=1e-10)
    for q in (disc, _Y2 * _Y2, Polynomial(2, {(3, 2): 1.5, (0, 1): -0.5})):
        expr = mv.lin_poly(q)
        got = sum(v * c[k - mv.block.offset] for k, v in expr.coeffs.items())
        assert got == pytest.approx(apply_functional(L, q), rel=1e-10, abs=1e-10)


def test_point_selection_raises_without_a_unisolvent_set():
    # Candidates on a line fix only polynomials in one variable, so no six of
    # them determine a quadratic in two: the selection raises rather than
    # hand the solver a singular set of points.
    line = np.column_stack([np.linspace(-1.0, 1.0, 12), np.zeros(12)])
    with pytest.raises(NumericalTroubleError):
        moment._fekete(moment._at(line, moment._monomials(2, 2)[1], chebyshev=True))
