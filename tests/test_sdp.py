"""Tests for the SDP data model, builder and interior-point solver."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from fsipp import instances
from fsipp.moment import MomentVarMap
from fsipp.multiobj import scalarize
from fsipp.poly import Polynomial
from fsipp.relax import (RelaxOptions, build_dual_sdp, build_primal_sdp,
                         classify_case)
from fsipp.sdp import (LinExpr, LmiBlock, PsdBlock, SdpBuilder, SdpProblem,
                       check_solution, solve, tri_index)
from fsipp.sdp import solver
from fsipp.sdp.model import RankOneMap, SdpSolution, SparseRows, tri_indices, tri_to_sym

from test_multiobj import _identical_pair_problem

TOL = 1e-8


def free_scalars(b, count):
    """``count`` free scalars, each the difference of a nonnegative pair."""
    pairs = b.nonneg_block(2 * count)
    return [pairs.entry(2 * i) - pairs.entry(2 * i + 1) for i in range(count)]


def diag_trace_problem():
    b = SdpBuilder()
    X = b.psd_block(2)
    b.set_objective(X.entry(0, 0) + X.entry(1, 1, 2.0))
    b.add_equality(X.entry(0, 0) + X.entry(1, 1), 1.0)
    return b.build()


# ---------------------------------------------------------------- layout

def test_tri_index_row_major_lower_triangle():
    assert [tri_index(i, j) for i, j in [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]] \
        == [0, 1, 2, 3, 4, 5]
    assert tri_index(0, 1) == tri_index(1, 0)


def test_scalarize_round_trip():
    prob = diag_trace_problem()
    M = np.array([[2.0, -1.0], [-1.0, 3.0]])
    x = prob.scalarize([M])
    np.testing.assert_allclose(x, [2.0, -1.0, 3.0])
    np.testing.assert_allclose(prob.unscalarize(x)[0], M)


def test_functional_as_matrices_counts_off_diagonals_once():
    prob = diag_trace_problem()
    coeffs = np.array([1.0, 4.0, 2.0])  # 1*X00 + 4*X10 + 2*X11
    (F,) = prob.functional_as_matrices(coeffs)
    np.testing.assert_allclose(F, [[1.0, 2.0], [2.0, 2.0]])
    M = np.array([[0.5, 0.25], [0.25, 0.125]])
    assert np.sum(F * M) == pytest.approx(coeffs @ prob.scalarize([M]))


def test_builder_moves_constant_to_rhs():
    b = SdpBuilder()
    v = b.nonneg_block(1)
    expr = v.entry(0) + LinExpr.constant(2.0)
    b.add_equality(expr, 5.0)  # x + 2 == 5  ->  x == 3
    prob = b.build()
    assert prob.b[0] == 3.0


# ---------------------------------------------------------------- solve

def test_solve_diag_trace_example():
    prob = diag_trace_problem()
    sol = solve(prob, tol=TOL)
    assert sol.status == "Optimal"
    assert sol.primal_value == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(sol.primal_point[0], np.diag([1.0, 0.0]), atol=1e-6)
    assert max(sol.residuals.values()) <= TOL


def test_solve_nonneg_equality():
    b = SdpBuilder()
    v = b.nonneg_block(1)
    b.set_objective(v.entry(0))
    b.add_equality(v.entry(0), 3.0)
    sol = solve(b.build())
    assert sol.status == "Optimal"
    assert sol.primal_value == pytest.approx(3.0, abs=1e-6)


def test_solve_detects_primal_infeasible():
    b = SdpBuilder()
    X = b.psd_block(2)
    b.set_objective(X.entry(0, 0))
    b.add_equality(X.entry(0, 0), -1.0)
    sol = solve(b.build())
    assert sol.status == "PrimalInfeasible"


def test_solve_detects_dual_infeasible():
    # min -X11 s.t. X00 = 1: X11 can grow without bound
    b = SdpBuilder()
    X = b.psd_block(2)
    b.set_objective(X.entry(1, 1, -1.0))
    b.add_equality(X.entry(0, 0), 1.0)
    sol = solve(b.build())
    assert sol.status == "DualInfeasible"


def test_solve_with_free_block():
    # min t s.t. t = -5, the free t written as u - v with u, v >= 0
    b = SdpBuilder()
    (t,) = free_scalars(b, 1)
    b.set_objective(t)
    b.add_equality(t, -5.0)
    sol = solve(b.build())
    assert sol.status == "Optimal"
    assert sol.primal_value == pytest.approx(-5.0, abs=1e-6)
    u, v = sol.primal_point
    assert min(u.item(), v.item()) >= 0.0
    assert u.item() - v.item() == pytest.approx(-5.0, abs=1e-6)


def test_solve_mixed_blocks_and_offdiagonal_coupling():
    # min X00 + X11 + s  s.t.  X01 = 1, s - X00 = 0; optimum at X00=X11=1
    b = SdpBuilder()
    X = b.psd_block(2)
    s = b.nonneg_block(1)
    b.set_objective(X.entry(0, 0) + X.entry(1, 1) + s.entry(0))
    b.add_equality(X.entry(0, 1), 1.0)
    b.add_equality(s.entry(0) - X.entry(0, 0), 0.0)
    sol = solve(b.build())
    assert sol.status == "Optimal"
    # minimize a+b+a s.t. ab >= 1: 2a+b with ab=1 -> b=1/a: min 2a+1/a at a=1/sqrt 2
    expect = 2 * np.sqrt(2.0)
    assert sol.primal_value == pytest.approx(expect, rel=1e-6)


def test_nonneg_block_is_scalar_psd_blocks_on_the_orthant():
    # nonneg_block(r) is r PsdBlock(1), which the solver keeps as
    # nonnegative coordinates and never in a PSD stack
    b = SdpBuilder()
    X = b.psd_block(2)
    v = b.nonneg_block(3)
    Y = b.psd_block(2)
    b.set_objective(X.entry(0, 0) + X.entry(1, 1) + v.entry(2) + Y.entry(1, 1))
    b.add_equality(X.entry(0, 1) + v.entry(0) - v.entry(1), 1.0)
    b.add_equality(v.entry(2) + Y.entry(0, 0) - X.entry(0, 0), 0.0)
    prob = b.build()
    assert prob.blocks == [PsdBlock(2)] + [PsdBlock(1)] * 3 + [PsdBlock(2)]
    assert [v.index(i) for i in range(3)] == [3, 4, 5]
    ii = solver._Internal(prob)
    assert ii.lp.tolist() == [3, 4, 5]
    assert [(blk.sl.start, blk.dim) for blk in ii.psd] == [(0, 2), (6, 2)]
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert [m.shape for m in sol.primal_point] == [(2, 2)] + [(1, 1)] * 3 + [(2, 2)]


# ---------------------------------------------------------------- checks

def test_check_solution_on_hand_built_pair():
    prob = diag_trace_problem()
    sol = SdpSolution(status="Optimal", primal_value=1.0, dual_value=1.0,
                      primal_point=[np.diag([1.0, 0.0])],
                      dual_point=np.array([1.0]))
    rep = check_solution(prob, sol)
    assert max(rep["primal"], rep["dual"], rep["primal_cone"]) <= 1e-9
    assert rep["gap"] <= 1e-9


def test_check_solution_flags_perturbation():
    prob = diag_trace_problem()
    sol = SdpSolution(status="Optimal", primal_value=1.0, dual_value=1.0,
                      primal_point=[np.diag([1.0 + 1e-2, 0.0])],
                      dual_point=np.array([1.0]))
    rep = check_solution(prob, sol)
    assert rep["primal"] == pytest.approx(1e-2, rel=1e-9)


def test_check_solution_zero_constraints():
    blocks = [PsdBlock(1)]
    prob = SdpProblem(blocks, [1.0], np.zeros((0, 1)), [])
    sol = SdpSolution(status="Optimal", primal_value=0.0, dual_value=0.0,
                      primal_point=[np.zeros((1, 1))], dual_point=np.zeros(0))
    assert check_solution(prob, sol)["primal"] == 0.0


# ---------------------------------------------------------------- invariants

def test_weak_duality_and_residual_invariants_on_battery():
    rng = np.random.default_rng(3)
    ti, tj = tri_indices(4)
    for _ in range(10):
        s = 4
        A = rng.normal(size=(3, len(ti)))
        W = rng.normal(size=(s, s))
        X0 = W @ W.T + np.eye(s)
        bvec = A @ X0[ti, tj]
        Wc = rng.normal(size=(s, s))
        C = Wc @ Wc.T + 0.5 * np.eye(s)
        cf = np.where(ti == tj, C[ti, tj], 2 * C[ti, tj])
        b = SdpBuilder()
        X = b.psd_block(s)
        obj = LinExpr({X.entry_index(int(i), int(j)): float(v)
                       for i, j, v in zip(ti, tj, cf)})
        b.set_objective(obj)
        for r in range(3):
            row = LinExpr({X.entry_index(int(i), int(j)): float(v)
                           for i, j, v in zip(ti, tj, A[r])})
            b.add_equality(row, float(bvec[r]))
        prob = b.build()
        sol = solve(prob, tol=TOL)
        assert sol.status == "Optimal"
        assert sol.primal_value >= sol.dual_value - 10 * TOL * (1 + abs(sol.primal_value))
        assert max(sol.residuals.values()) <= TOL


def test_reproducibility_bitwise():
    for prob in (diag_trace_problem(), lmi_problem()):
        s1 = solve(prob)
        s2 = solve(prob)
        assert s1.iterations == s2.iterations
        assert s1.primal_value == s2.primal_value
        assert s1.dual_value == s2.dual_value
        for a, b in zip(s1.primal_point + s1.lmi_slacks + s1.lmi_duals,
                        s2.primal_point + s2.lmi_slacks + s2.lmi_duals):
            assert np.array_equal(a, b)
        assert np.array_equal(s1.dual_point, s2.dual_point)


def test_fifty_random_diagonal_sdps_reach_analytic_optimum():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = int(rng.integers(2, 7))
        cvec = rng.normal(size=d) * (10.0 ** rng.integers(-2, 3))
        b = SdpBuilder()
        X = b.psd_block(d)
        obj = X.entry(0, 0, float(cvec[0]))
        tr = X.entry(0, 0)
        for i in range(1, d):
            obj += X.entry(i, i, float(cvec[i]))
            tr += X.entry(i, i)
        b.set_objective(obj)
        b.add_equality(tr, 1.0)
        sol = solve(b.build())
        expect = float(cvec.min())  # min over the PSD trace-one simplex
        assert sol.status == "Optimal"
        assert abs(sol.primal_value - expect) <= 1e-6 * (1 + abs(expect))


def identical_stage1_sdp():
    """Stage-1 moment SDP of the identical-objective walk, compiled as
    relax._solve_order compiles it.  Its optimum has a rank-1 moment matrix
    and a rank-2 Gram matrix: strict complementarity fails and the Schur
    matrix grows ill-conditioned as the iterates converge."""
    sub = scalarize(_identical_pair_problem(), 1, np.zeros(2))
    opts = RelaxOptions()
    sdp, _ = build_dual_sdp(sub, opts,
                            classify_case(sub, opts.case_override).tag, sub.d)
    return sdp, opts.sdp_tol


def test_degenerate_case1_moment_sdp_converges_inside_the_cone():
    sdp, tol = identical_stage1_sdp()
    sol = solve(sdp, tol=tol)
    assert sol.status == "Optimal"
    # The solver's own slack S stays strictly inside the cone.  The moment
    # matrix F(w) of the returned moments is PSD up to the residual S - F(w)
    # (Weyl: lambda_min F(w) >= lambda_min S - ||S - F(w)||_2), so its cone
    # violation is bounded by the same 10 tol as that residual.
    assert min(np.linalg.eigvalsh(S)[0] for S in sol.lmi_slacks) > 0.0
    chk = check_solution(sdp, sol)
    assert chk["primal"] <= 10 * tol
    assert chk["primal_cone"] <= 10 * tol


def test_degenerate_case1_moment_sdps_converge_past_the_default_tolerance():
    # Every Case1 moment SDP is degenerate at its optimum.  Accurate Newton
    # directions (a tau pivot free of cancellation, refined Schur solves)
    # carry these two digits past the default tolerance of 1e-8.
    sdps = [identical_stage1_sdp()[0]]
    for seed in (0, 2, 4, 384, 434, 464, 632, 652, 686, 756):
        prob, opts, _, _ = instances.planted_convex_quadratic(seed)
        tag = classify_case(prob, opts.case_override).tag
        sdps.append(build_dual_sdp(prob, opts, tag, prob.d)[0])
    for sdp in sdps:
        assert solve(sdp, tol=1e-10).status == "Optimal"


def test_cholesky_cone_test_alone_keeps_iterates_inside(monkeypatch):
    # With the eigenvalue step-to-boundary switched off, only the plain
    # Cholesky cone test and its backtracking keep the steps inside the PSD
    # cone (X, Z, and an LMI's S and Z_S); jitter is for the reduced Schur
    # matrix (one row per constraint) and the LMI matrix H (one row per
    # moment) alone.
    problems = [(diag_trace_problem(), TOL), identical_stage1_sdp()]
    jittered, unbounded = [], []
    chol_jitter = solver._chol_jitter

    def spy(mat):
        jittered.append(mat.shape[0])
        return chol_jitter(mat)

    def no_bound(Linv, delta):
        unbounded.append(len(delta))
        return np.inf

    monkeypatch.setattr(solver, "_chol_jitter", spy)
    monkeypatch.setattr(solver, "_psd_step_limit", no_bound)
    for prob, tol in problems:
        jittered.clear()
        unbounded.clear()
        sol = solve(prob, tol=tol)
        assert sol.status == "Optimal"
        assert check_solution(prob, sol)["primal_cone"] == 0.0
        moments = sum(bl.nvars for bl in prob.blocks if isinstance(bl, LmiBlock))
        assert set(jittered) == {prob.A.shape[0]} | ({moments} if moments else set())
        # the patched bound stood in for every PSD step bound
        assert len(unbounded) >= 2 * sol.iterations


def test_batched_step_bound_equals_the_per_block_eigenvalue():
    # The step to the PSD boundary from X = L L^T along delta is -1/lambda
    # for lambda the smallest eigenvalue of L^-1 delta L^-T, here computed
    # block by block with triangular solves.
    rng = np.random.default_rng(23)
    for dim in (1, 2, 6, 28):
        R = rng.normal(size=(4, dim, dim))
        L = np.linalg.cholesky(R @ R.transpose(0, 2, 1) + 0.1 * np.eye(dim))
        Linv = np.array([sla.lapack.dtrtri(f, lower=1)[0] for f in L])
        S = rng.normal(size=(4, dim, dim))
        deltas = S + S.transpose(0, 2, 1)
        # smallest eigenvalue -1, the others of either sign
        deltas -= (np.linalg.eigvalsh(deltas)[:, :1, None] + 1.0) * np.eye(dim)
        deltas[0] = S[0] @ S[0].T  # PSD: no bound from this block
        limits = []
        for f, fi, delta in zip(L, Linv, deltas):
            s = sla.solve_triangular(f, delta, lower=True)
            s = sla.solve_triangular(f, s.T, lower=True)
            lmin = np.linalg.eigvalsh(0.5 * (s + s.T))[0]
            got = solver._psd_step_limit(fi[None], delta[None])
            if lmin < 0:
                assert -1.0 / got == pytest.approx(lmin, rel=1e-10)
                limits.append(got)
            else:
                assert got == np.inf
        assert len(limits) == 3
        assert solver._psd_step_limit(Linv, deltas) == min(limits)
        assert solver._psd_step_limit(Linv, deltas[:1]) == np.inf
        psd = S @ S.transpose(0, 2, 1)
        assert solver._psd_step_limit(Linv, psd) == np.inf
        # bordered to a larger dimension as the solver stacks blocks: the
        # identity on the border of L^-1 and zero on the border of delta
        # bound nothing, so the limit is the unbordered one up to rounding
        D = dim + 3
        Lb, db = np.zeros((2, 4, D, D)), np.zeros((2, 4, D, D))
        Lb[0, :, :dim, :dim], db[0, :, :dim, :dim] = Linv, deltas
        Lb[1, :, :dim, :dim], db[1, :, :dim, :dim] = Linv, psd
        Lb[:, :, range(dim, D), range(dim, D)] = 1.0
        got = solver._psd_step_limit(Lb, db)
        assert got == pytest.approx(min(limits), rel=1e-12)
        assert solver._psd_step_limit(Lb[1], db[1]) == np.inf


def test_quarter_circle_order_four_iterations_and_values():
    # Both sides of one mid-sized order: a change to the IPM's linear algebra
    # that costs iterations or accuracy shows here before the deep orders.
    # The moment SDP takes 14 iterations under each of 40 objective
    # perturbations of relative size 1e-13, on the SkylakeX, Haswell and
    # Sandybridge kernels alike; the certificate SDP, whose y-moments live
    # in the quotient by the arc's equality (45 rows), takes 13 alike.
    prob, opts = instances.quarter_circle_problem()
    tag = classify_case(prob, opts.case_override).tag
    sols = [solve(build(prob, opts, tag, 4)[0], tol=opts.sdp_tol)
            for build in (build_dual_sdp, build_primal_sdp)]
    assert [(s.status, s.iterations) for s in sols] == [("Optimal", 14),
                                                        ("Optimal", 13)]
    moment, gram = sols
    assert abs(moment.primal_value - (-gram.primal_value)) <= 1e-7


def schur_test_problem():
    """150 equalities over a PSD block in every row, a PSD block in four
    runs of rows, a PSD block in no row, nonnegative scalars and free
    scalars written as pairs."""
    rng = np.random.default_rng(11)
    b = SdpBuilder()
    X, Y, W = b.psd_block(5), b.psd_block(3), b.psd_block(2)
    v, f = b.nonneg_block(3), free_scalars(b, 2)
    y_rows = set(range(10, 40)) | {70, 71, 100} | set(range(120, 150))
    obj = W.entry(0, 0) + W.entry(1, 1)
    for i in range(5):
        obj += X.entry(i, i)
    b.set_objective(obj)
    for r in range(150):
        i, j = sorted(rng.integers(0, 5, size=2))
        row = X.entry(j, i, float(rng.normal())) + X.entry(r % 5, r % 5)
        if r in y_rows:
            i, j = sorted(rng.integers(0, 3, size=2))
            row += Y.entry(j, i, float(rng.normal()))
        if r % 7 == 0:
            row += v.entry(r % 3, float(rng.normal()))
        if r % 11 == 0:
            row += f[r % 2].scaled(float(rng.normal()))
        b.add_equality(row, float(rng.normal()))
    return b.build()


def scipy_rows(A):
    """The solver's sparse rows as a scipy CSR matrix, for the oracles."""
    return sp.csr_matrix((A.vals, (A.rows, A.cols)), shape=A.shape)


def full_row_schur(ii, blk_state, d_lp):
    """Reference: M = A W A^T with every PSD block over all p rows, by
    scipy's sparse products, with X = L_X L_X^T and Z^-1 = R^T R for the
    factors (L_X, R) in ``blk_state``."""
    A = scipy_rows(ii.A)
    A_lp = A[:, ii.lp]
    M = np.zeros((ii.p, ii.p))
    for blk, (LX, R) in zip(ii.psd, blk_state):
        X, Zinv = LX @ LX.T, R.T @ R
        Asp = A[:, blk.sl].tocsr()
        vals = Asp.toarray() / blk.w
        T = np.zeros((ii.p, blk.dim, blk.dim))
        T[:, blk.ti, blk.tj] = vals
        T[:, blk.tj, blk.ti] = vals
        G = np.matmul(np.matmul(Zinv, T), X)
        G = 0.5 * (G + G.transpose(0, 2, 1))
        M += Asp @ (G[:, blk.ti, blk.tj] * blk.w).T
    M += (A_lp.multiply(d_lp[None, :]) @ A_lp.T).toarray()
    return 0.5 * (M + M.T)


def graded(rng, decades, size):
    """``size`` values spread evenly in log over ``decades`` decades around 1."""
    return 10.0 ** rng.uniform(-decades / 2, decades / 2, size=size)


def random_factors(rng, dim, decades):
    """(L_X, L_Z^-1), the Cholesky factor of a random X and the inverse
    Cholesky factor of a random Z, whose eigenvalues spread over
    ``decades`` decades."""
    def spd():
        Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
        return (Q * graded(rng, decades, dim)) @ Q.T
    return np.linalg.cholesky(spd()), np.linalg.inv(np.linalg.cholesky(spd()))


def touched_rows_case():
    """The problem above, whose PSD blocks are touched by every row, by four
    runs of rows and by no row, at random factors (L_X, L_Z^-1) per block:
    once with X, Z and x / z within a decade, once graded over twelve
    decades, as near a degenerate optimum."""
    ii = solver._Internal(schur_test_problem())
    touched = [blk.rows.size for blk in ii.psd]
    assert touched == [ii.p, 63, 0] and ii.p == 150
    assert len(ii.psd[1].runs) == 4
    rng = np.random.default_rng(5)
    return ii, [([random_factors(rng, blk.dim, decades) for blk in ii.psd],
                 graded(rng, decades, ii.lp.size)) for decades in (1.0, 12.0)]


def shared_columns_case():
    """Rows sharing several nonnegative columns, of either sign when they
    hold a free scalar's pair, with x / z on them spread over twelve
    decades."""
    rng = np.random.default_rng(29)
    b = SdpBuilder()
    X, v, f = b.psd_block(2), b.nonneg_block(9), free_scalars(b, 3)
    b.set_objective(X.entry(0, 0) + X.entry(1, 1))
    for r in range(40):
        row = X.entry(r % 2, r % 2)
        for j in rng.choice(9, size=int(rng.integers(1, 8)), replace=False):
            row += v.entry(int(j), float(rng.normal() * 10.0 ** rng.integers(-3, 4)))
        if r % 3:
            row += f[r % 3].scaled(float(rng.normal()))
        b.add_equality(row, float(rng.normal()))
    ii = solver._Internal(b.build())
    touches = (abs(scipy_rows(ii.A)[:, ii.lp]) > 0).astype(float)
    shared = (touches @ touches.T).toarray()
    np.fill_diagonal(shared, 0.0)
    assert shared.max() >= 5  # pairs of rows with several shared terms
    blk_state = [(np.eye(2), np.eye(2))]
    return ii, [(blk_state, 10.0 ** rng.uniform(-6, 6, size=ii.lp.size))
                for _ in range(5)]


@pytest.mark.parametrize("case", [touched_rows_case, shared_columns_case],
                         ids=["blocks_and_runs", "shared_nonnegative_columns"])
def test_schur_over_touched_rows_equals_the_full_row_formula(case):
    """The solver adds each PSD block's product over its touched rows as
    K K^T, and the nonnegative coordinates' as Q Q^T; the oracle is scipy's
    sparse products over all rows of <T_a, Z^-1 T_b X>.  Both form the same
    sums, differently bracketed, which moves M by about 1e-16 of its largest
    entry, so 1e-13 of it is the bound.  M is exactly symmetric."""
    ii, draws = case()
    for blk_state, d_lp in draws:
        M = solver._schur(ii, blk_state, d_lp)
        M_ref = full_row_schur(ii, blk_state, d_lp)
        assert np.array_equal(M, M.T)
        assert abs(M - M_ref).max() <= 1e-13 * abs(M_ref).max()


def quarter_circle_moment_sdp(k=4):
    """The quarter circle's order-k moment SDP: its x-cone has the ball, so
    its LMI is rank-one, over weights at points."""
    prob, opts = instances.quarter_circle_problem()
    tag = classify_case(prob, opts.case_override).tag
    return build_dual_sdp(prob, opts, tag, k)[0]


def moment_sdp(k, gens):
    """min L(y1 + y2) s.t. L(1) = 1, L in the dual of QModule(gens, k)."""
    b = SdpBuilder()
    mv = MomentVarMap(b, 2, k, gens)
    b.add_equality(mv.lin((0, 0)), 1.0)
    b.set_objective(mv.lin_poly(Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})))
    return b.build()


def arc_lower_level_sdp(k):
    """The quarter circle's lower-level moment SDP at order k: its LMI lives
    in the quotient by the arc's equality, on sparse maps."""
    return moment_sdp(k, instances.quarter_circle_problem()[0]
                      .index_set.as_generators())


def half_ellipse_moment_sdp():
    """An order-3 moment SDP on {y1 >= 0, 1 - y1^2 - 2 y2^2 >= 0}, no ball,
    so on sparse maps: the localizer of y1 touches only the moments of y1
    times a monomial of degree <= 4."""
    return moment_sdp(3, (Polynomial(2, {(1, 0): 1.0}),
                          Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -2.0})))


def ellipses_moment_sdp(k):
    """An order-k moment SDP in two ellipses, no ball, so on sparse maps;
    each localizer touches every moment."""
    return moment_sdp(k, (Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -2.0}),
                          Polynomial(2, {(0, 0): 2.0, (2, 0): -3.0, (0, 2): -1.0})))


def explicit_matrices(prob):
    """Every LMI diagonal block's constraint matrices F_a as a dense
    (nw, d, d) stack, from the model's maps: a sparse map's columns, or
    q_a p_a p_a^T."""
    out = []
    for bl in prob.blocks:
        if isinstance(bl, LmiBlock):
            for d, F in zip(bl.dims, bl.maps):
                if isinstance(F, RankOneMap):
                    out.append(F.q[:, None, None] * F.P[:, :, None] * F.P[:, None, :])
                else:
                    dense = np.zeros(F.shape)
                    dense[F.rows, F.cols] = F.vals
                    out.append(np.array([tri_to_sym(d, col) for col in dense.T]))
    return out


def lmi_states(rng, ii, decades):
    """Random (L_{Z_S}, L_S^-1) per LMI slot, in the model's order, and
    the solver's states from them: a list for the sparse blocks and the
    rank-one blocks' stacks, bordered by I."""
    factors = [random_factors(rng, b.dim, decades) for b in ii.slot_blocks]
    by_slot = dict(zip((b.sl.start for b in ii.slot_blocks), factors))
    sparse = [by_slot[b.sl.start] for b in ii.lmi]
    stacked = None
    if ii.r1:
        k, _, D = ii.r1.P.shape
        stacked = np.zeros((2, k, D, D))
        stacked[:, :, range(D), range(D)] = 1.0
        for j, b in enumerate(ii.r1.slots):
            for i, f in enumerate(by_slot[b.sl.start]):
                stacked[i, j, :b.dim, :b.dim] = f
    return factors, sparse, stacked


@pytest.mark.parametrize("sdp, touched", [(lambda: arc_lower_level_sdp(4), [17, 15, 13]),
                                          (half_ellipse_moment_sdp, [28, 15, 28]),
                                          (quarter_circle_moment_sdp, None)],
                         ids=["quarter_circle", "localizer_on_a_subset", "rank_one"])
def test_lmi_schur_equals_the_dense_formula(sdp, touched):
    """H_ab = <F_a, sym(S^-1 F_b Z_S)>, summed over the LMI blocks and built
    densely from the explicit F_a with Z_S = L L^T and S^-1 = R^T R for
    random factors (L, R), bounds the solver's H as the oracle above bounds
    M, once with S and Z_S within a decade and once graded over twelve
    decades: on sparse maps (the arc's quotient, and a localizer touching a
    subset of the moments) to 1e-13, and on rank-one maps F_a = q_a p_a
    p_a^T, whose H is the Hadamard product, to 1e-12, with F(w) and F*(Z)
    too."""
    prob = sdp()
    ii = solver._Internal(prob)
    nw = ii.wcols.size
    if touched is None:
        assert ii.lmi == [] and ii.F is None and len(ii.r1.slots) == 3
    else:
        assert ii.r1 is None
        assert [blk.rows.size for blk in ii.lmi] == touched and max(touched) == nw
    Fas = explicit_matrices(prob)
    rng = np.random.default_rng(7)
    for decades in (1.0, 12.0):
        factors, sparse, stacked = lmi_states(rng, ii, decades)
        H_ref = np.zeros((nw, nw))
        for Fa, (L, R) in zip(Fas, factors):
            G = R.T @ R @ Fa @ L @ L.T
            H_ref += np.einsum("aij,bij->ab", Fa, 0.5 * (G + G.transpose(0, 2, 1)))
        H = solver._lmi_schur(ii, sparse, stacked)
        assert np.array_equal(H, H.T)
        bound = 1e-13 if touched else 1e-12
        assert abs(H - H_ref).max() <= bound * abs(H_ref).max()
    w = rng.normal(size=nw)
    mats = [S @ S.T for S in (rng.normal(size=(b.dim, b.dim)) for b in ii.slot_blocks)]
    v = np.zeros(ii.ntot - ii.n)
    for blk, Z, Fa in zip(ii.slot_blocks, mats, Fas):
        v[blk.sl.start - ii.n:blk.sl.stop - ii.n] = Z[blk.ti, blk.tj] * blk.w
        S_ref = np.einsum("a,aij->ij", w, Fa)
        S = ii.lmi_map(w)[blk.sl.start - ii.n:blk.sl.stop - ii.n] / blk.w
        assert abs(S - S_ref[blk.ti, blk.tj]).max() <= 1e-12 * abs(S_ref).max()
    adj_ref = sum(np.einsum("aij,ij->a", Fa, Z) for Fa, Z in zip(Fas, mats))
    assert abs(ii.lmi_adjoint(v) - adj_ref).max() <= 1e-12 * abs(adj_ref).max()


def dense_stack(blk):
    """A block's (r, dim, dim) stack of constraint matrices T_a, rebuilt
    from its chunks' entries."""
    parts = []
    for T, loc, val, _, K in blk.chunks:
        if loc is not None:
            T = np.zeros(K.shape)
            np.put(T, loc, val)
        parts.append(T)
    return np.concatenate(parts)


def unchunked_products(ii, blocks, state, size):
    """M (or H) as each block's K K^T with K = R T L_X formed whole."""
    out = np.zeros((size, size))
    for blk, (LX, R) in zip(blocks, state):
        T = dense_stack(blk)
        K = (R @ T @ LX).reshape(len(T), blk.dim ** 2)
        out[np.ix_(blk.rows, blk.rows)] += K @ K.T
    return out


def test_schur_chunks_change_no_bit(monkeypatch):
    """K is formed a chunk of rows at a time, each matrix by the same BLAS
    calls on the same operands as the whole stack would take, so M and H
    come out bit for bit as from the unchunked R T L_X, and the same at a
    chunk budget of one row or of the whole block.  On the quarter
    circle's order-6 moment SDP the PSD blocks fit in one chunk; on an
    order-6 moment SDP in two ellipses, whose LMI has sparse maps, the LMI
    blocks span several chunks."""
    sdps = quarter_circle_moment_sdp(6), ellipses_moment_sdp(6)
    ii, jj = (solver._Internal(sdp) for sdp in sdps)
    assert [(b.dim, b.rows.size, len(b.chunks)) for b in jj.lmi] == [
        (28, 91, 10), (21, 91, 6), (21, 91, 6)]
    assert [(b.dim, len(b.chunks)) for b in ii.psd] == [(13, 1), (11, 1), (11, 1)]
    assert all(b.T is not None for b in ii.psd)
    rng = np.random.default_rng(17)
    draws = [([random_factors(rng, b.dim, decades) for b in ii.psd],
              [random_factors(rng, b.dim, decades) for b in jj.lmi],
              graded(rng, decades, ii.lp.size)) for decades in (1.0, 12.0)]

    def products(ii, jj):
        return [(solver._schur(ii, psd, d_lp), solver._lmi_schur(jj, lmi, None))
                for psd, lmi, d_lp in draws]

    got = products(ii, jj)
    for (psd, lmi, d_lp), (M, H) in zip(draws, got):
        M_ref = unchunked_products(ii, ii.psd, psd, ii.p)
        if ii.lp.size:
            Q = ii.A_lp * np.sqrt(d_lp)
            M_ref[ii.lp_ix] += Q @ Q.T
        assert np.array_equal(M, M_ref)
        assert np.array_equal(H, unchunked_products(jj, jj.lmi, lmi, jj.wcols.size))
    for budget, chunks in ((1, lambda b: b.rows.size), (1 << 40, lambda b: 1)):
        monkeypatch.setattr(solver, "_CHUNK", budget)
        others = [solver._Internal(sdp) for sdp in sdps]
        assert all(len(b.chunks) == chunks(b) for b in others[0].psd + others[1].lmi)
        for (M, H), (M2, H2) in zip(got, products(*others)):
            assert np.array_equal(M, M2) and np.array_equal(H, H2)


@pytest.mark.parametrize("k", [6, 8])
def test_no_block_beyond_the_chunk_budget_keeps_a_dense_stack(k):
    """A block whose (r, dim, dim) stack exceeds ``_CHUNK`` doubles keeps
    only its entries; every block's chunks take at most ``_CHUNK`` doubles,
    or one row where a row is larger, and its K lives in the solve's one K
    buffer.  On the quarter circle's moment SDP only the Gram blocks hold
    a K, and its rank-one LMI builds no dense F; the arc's lower-level SDP
    keeps its LMI on sparse maps."""
    qc = solver._Internal(quarter_circle_moment_sdp(k))
    assert qc.lmi == [] and qc.F is None and qc.r1 is not None
    arc = solver._Internal(arc_lower_level_sdp(k))
    assert arc.r1 is None and arc.psd == [] and arc.F is not None
    for blocks in (qc.psd, arc.lmi):
        kbuf = blocks[0].K.base
        assert kbuf.size == max(b.rows.size * b.dim ** 2 for b in blocks)
        for blk in blocks:
            dd = blk.dim ** 2
            assert blk.K.base is kbuf
            assert all(RT.size <= max(solver._CHUNK, dd) for *_, RT, _ in blk.chunks)
            if blk.rows.size * dd > solver._CHUNK:
                assert blk.T is None
                assert all(T.size <= max(solver._CHUNK, dd) for T, *_ in blk.chunks)
    assert any(b.T is None for b in arc.lmi) == (k == 8)


@pytest.mark.parametrize("k", [6, 8])
def test_lmi_schur_allocates_little_beyond_h(k):
    """One H assembly allocates at most twice H plus 256 KB (H and one
    block's K K^T, which are alike in size): a sparse block's K is formed
    in the solve's working set, not in stacks allocated per call, and the
    rank-one blocks' Hadamard H and its products in theirs."""
    rng = np.random.default_rng(3)
    for sdp in (quarter_circle_moment_sdp(k), arc_lower_level_sdp(k)):
        ii = solver._Internal(sdp)
        _, sparse, stacked = lmi_states(rng, ii, 1.0)
        tracemalloc.start()
        try:
            H = solver._lmi_schur(ii, sparse, stacked)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * H.nbytes + 256 * 1024


def test_quarter_circle_order_eight_solve_stays_in_its_working_set():
    # The order-8 moment SDP (153 points, LMI blocks 45, 36 and 36) takes
    # 14 iterations, and its whole solve, set-up included, peaks at 4.5 MB
    # of traced memory: no dense LMI map and no LMI K buffer.
    sdp = quarter_circle_moment_sdp(8)
    tracemalloc.start()
    try:
        sol = solve(sdp, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sol.status, sol.iterations) == ("Optimal", 14)
    assert peak <= 4.5e6


def test_rank_one_and_sparse_lmis_solve_together():
    # One SDP holding a rank-one LMI (moments in the unit disc) and an LMI on
    # sparse maps (moments on the arc, in the quotient) takes both kinds in
    # one solve, their slots in two stacks, and its value is the sum of the
    # two solved apart.
    disc = (Polynomial(2, {(0, 0): 1.0, (2, 0): -1.0, (0, 2): -1.0}),)
    arc = instances.quarter_circle_problem()[0].index_set.as_generators()
    objective = Polynomial(2, {(1, 0): 1.0, (0, 1): 1.0})
    b = SdpBuilder()
    maps = [MomentVarMap(b, 2, 3, gens) for gens in (disc, arc)]
    for mv in maps:
        b.add_equality(mv.lin((0, 0)), 1.0)
    b.set_objective(maps[0].lin_poly(objective) + maps[1].lin_poly(objective))
    prob = b.build()
    ii = solver._Internal(prob)
    assert ii.r1 is not None and ii.lmi and len(ii.stacks) == 2
    sol = solve(prob, tol=1e-9)
    apart = [solve(moment_sdp(3, gens), tol=1e-9) for gens in (disc, arc)]
    assert sol.status == "Optimal" and all(s.status == "Optimal" for s in apart)
    assert sol.primal_value == pytest.approx(sum(s.primal_value for s in apart), abs=1e-7)
    assert max(check_solution(prob, sol)[key] for key in ("primal", "gap_rel")) <= 1e-8


def _point_weight_sdps():
    cases = []
    for make, k in ((instances.case1_problem, None), (instances.case3_problem, 4),
                    (instances.quarter_circle_problem, 4),
                    (instances.quarter_circle_problem, 5),
                    (instances.quarter_circle_problem, 6),
                    (lambda: instances.planted_convex_quadratic(9)[:2], 2)):
        prob, opts = make()
        tag = classify_case(prob, opts.case_override).tag
        cases.append((build_dual_sdp(prob, opts, tag, k)[0], opts.sdp_tol))
    return cases


def test_check_solution_recomputes_the_residuals_of_point_weight_sdps():
    # check_solution reads the model's LMI maps, rank-one ones included, and
    # recomputes the residuals from the returned points alone: the solver's
    # reported primal and dual residuals and relative gap come within ten
    # times the tolerance.  Case1's x-cone has no ball, so its LMI keeps
    # sparse maps over the moments; the others are weights at points.
    rank_one = []
    for sdp, tol in _point_weight_sdps():
        (lmi,) = [bl for bl in sdp.blocks if isinstance(bl, LmiBlock)]
        rank_one.append(all(isinstance(F, RankOneMap) for F in lmi.maps))
        sol = solve(sdp, tol=tol)
        assert sol.status == "Optimal"
        chk = check_solution(sdp, sol)
        for key, reported in (("primal", "primal"), ("dual", "dual"), ("gap_rel", "gap")):
            assert abs(chk[key] - sol.residuals[reported]) <= 10 * tol, key
        assert chk["primal_cone"] <= 10 * tol
    assert rank_one == [False] + [True] * 5


def test_schur_cholesky_retries_factor_the_shifted_matrix():
    # Each jittered retry factors the matrix plus a diagonal shift, and the
    # matrix passed in is left as it was.
    V = np.random.default_rng(3).normal(size=(6, 3))
    A = V @ V.T
    A -= 1e-12 * np.trace(A) / 6 * np.eye(6)  # indefinite by a hair
    before = A.copy()
    L = solver._chol_jitter(A)
    np.testing.assert_array_equal(A, before)
    np.testing.assert_array_equal(L, np.tril(L))
    assert np.allclose(L @ L.T, A, rtol=0.0, atol=1e-8 * np.trace(A))
    assert solver._chol_jitter(-np.eye(3)) is None


def test_schur_cholesky_jitters_a_pivot_that_is_rounding_noise():
    # [[1, v], [v, v^2 + 1]] is positive definite (det 1) and plain Cholesky
    # factors it, but its last pivot is 1 against a diagonal of 2^52 + 1:
    # all the entry had was cancelled away, so the factor is rejected and
    # jitter added.  The test is invariant under diagonal scaling, and a
    # graded but well-conditioned matrix keeps its plain factor.
    v = 2.0 ** 26
    A = np.array([[1.0, v], [v, v * v + 1.0]])
    for D in (np.ones(2), np.array([2.0 ** -17, 2.0 ** 17])):
        M = A * np.outer(D, D)
        L = sla.cholesky(M, lower=True)
        assert L[1, 1] ** 2 <= 2 * np.finfo(float).eps * M[1, 1]
        Lj = solver._chol_jitter(M)
        shift = Lj @ Lj.T - M
        assert np.all(np.diag(shift) > 0) and abs(shift[1, 0]) <= 1e-12 * M[1, 0]
    graded = np.diag([1e-20, 1e20])
    graded[0, 1] = graded[1, 0] = 0.5
    plain = sla.cholesky(graded, lower=True)
    np.testing.assert_array_equal(solver._chol_jitter(graded), plain)


# ---------------------------------------------------------------- LMI blocks

def lmi_problem():
    """min w1  s.t.  w0 = 1, w2 = 1, [[w0, w1], [w1, w2]] >= 0: optimum -1
    at w = (1, -1, 1); the dual Z_S = [[1, 1], [1, 1]] / 2 with
    lam = (-1/2, -1/2) meets B^T lam + F*(Z_S) = c_w = (0, 1, 0)."""
    b = SdpBuilder()
    w = b.lmi_block(3)
    w.add_matrix(2, SparseRows.from_dense(np.eye(3)))  # F(w) = (w0, w1, w2)
    b.add_equality(w.entry(0), 1.0)
    b.add_equality(w.entry(2), 1.0)
    b.set_objective(w.entry(1))
    return b.build()


def test_solve_lmi_block():
    prob = lmi_problem()
    sol = solve(prob, tol=TOL)
    assert sol.status == "Optimal"
    assert sol.primal_value == pytest.approx(-1.0, abs=1e-7)
    assert sol.dual_value == pytest.approx(-1.0, abs=1e-7)
    np.testing.assert_allclose(sol.primal_point[0], [1.0, -1.0, 1.0], atol=1e-6)
    np.testing.assert_allclose(sol.lmi_duals[0], np.full((2, 2), 0.5), atol=1e-6)
    # the solver's slack S stays inside the cone; F(w) is checked by
    # check_solution and leaves it by no more than the residual S - F(w)
    assert np.linalg.eigvalsh(sol.lmi_slacks[0])[0] > 0.0
    chk = check_solution(prob, sol)
    assert max(chk.values()) <= 10 * TOL


def mixed_dimension_problem():
    """Ordinary PSD blocks of dims 2, 3 and 5, nonnegative scalars and an
    LMI whose diagonal blocks have dims 4, 2 and 1, coupled by their rows.
    S(w) = diag(w0 I + w1 A1 + w2 A2, w0 I + w3 B, w0 + w1) with A1, A2
    and B traceless, so w0 = 1 bounds w."""
    rng = np.random.default_rng(31)
    b = SdpBuilder()
    Xs = [b.psd_block(d) for d in (2, 3, 5)]
    v = b.nonneg_block(3)
    w = b.lmi_block(4)

    def traceless(d):
        S = rng.normal(size=(d, d))
        S = S + S.T
        return S - np.trace(S) / d * np.eye(d)

    def entries(d, mats):
        """The map w -> sum_a w_a mats[a] onto the lower triangle."""
        F = np.zeros((d * (d + 1) // 2, 4))
        ti, tj = tri_indices(d)
        for a, M in mats.items():
            F[:, a] = M[ti, tj]
        return SparseRows.from_dense(F)

    w.add_matrix(4, entries(4, {0: np.eye(4), 1: traceless(4), 2: traceless(4)}))
    w.add_matrix(2, entries(2, {0: np.eye(2), 3: traceless(2)}))
    w.add_matrix(1, entries(1, {0: np.eye(1), 1: np.eye(1)}))
    obj = w.entry(1) - w.entry(2) + w.entry(3, 0.5)
    for X, d in zip(Xs, (2, 3, 5)):
        C = rng.normal(size=(d, d))
        C = C @ C.T + np.eye(d)
        trace = LinExpr()
        for i in range(d):
            trace += X.entry(i, i)
            for j in range(i + 1):
                obj += X.entry(i, j, float(C[i, j] * (1 if i == j else 2)))
        b.add_equality(trace, 1.0)
    for i in range(3):
        obj += v.entry(i)
    b.set_objective(obj)
    b.add_equality(w.entry(0), 1.0)
    b.add_equality(Xs[0].entry(1, 0) + v.entry(0) - v.entry(1) + w.entry(3), 0.3)
    b.add_equality(Xs[2].entry(0, 0) - Xs[1].entry(1, 1) + v.entry(2), 0.1)
    return b.build()


def test_mixed_dimensions_stack_once_per_kind():
    # Blocks of several dimensions share one stack per kind, bordered to
    # the kind's largest dimension; the border must not leak into the
    # solution, whose blocks keep their own dimensions.
    prob = mixed_dimension_problem()
    ii = solver._Internal(prob)
    assert [blk.dim for blk in ii.psd] == [2, 3, 5]
    assert [blk.dim for blk in ii.lmi] == [4, 2, 1]
    assert ii.lp.size == 3
    assert [(st.blocks, st.dim) for st in ii.stacks] == [(ii.psd, 5), (ii.lmi, 4)]
    sol = solve(prob, tol=1e-9)  # check_solution's gap is absolute
    assert sol.status == "Optimal"
    assert max(check_solution(prob, sol).values()) <= 1e-8
    # at the default tol the absolute gap may exceed tol; the relative gap,
    # which solve stops on, may not
    sol = solve(prob)
    assert sol.status == "Optimal"
    assert check_solution(prob, sol)["gap_rel"] <= 1e-8
    assert [m.shape for m in sol.primal_point] == [(2, 2), (3, 3), (5, 5)] \
        + [(1, 1)] * 3 + [(4,)]
    for mats in (sol.lmi_duals, sol.lmi_slacks):
        assert [m.shape for m in mats] == [(4, 4), (2, 2), (1, 1)]
        assert all(np.linalg.eigvalsh(m)[0] > 0.0 for m in mats)


def test_check_solution_reports_each_lmi_violation():
    prob = lmi_problem()
    good = dict(status="Optimal", primal_value=-1.0, dual_value=-1.0,
                primal_point=[np.array([1.0, -1.0, 1.0])],
                dual_point=np.array([-0.5, -0.5]),
                lmi_duals=[np.full((2, 2), 0.5)])
    rep = check_solution(prob, SdpSolution(**good))
    assert max(rep.values()) <= 1e-15

    def report(**change):
        return check_solution(prob, SdpSolution(**{**good, **change}))

    # S = F(w) outside the cone: eigenvalues 1 -+ 1.5
    rep = report(primal_point=[np.array([1.0, -1.5, 1.0])])
    assert rep["primal_cone"] == pytest.approx(0.5) and rep["dual"] <= 1e-15
    # Z_S outside the cone (eigenvalue -0.1); the dual row still holds
    rep = report(lmi_duals=[np.array([[0.4, 0.5], [0.5, 0.4]])],
                 dual_point=np.array([-0.4, -0.4]))
    assert rep["dual"] == pytest.approx(0.1) and rep["primal_cone"] == 0.0
    # B^T lam + F*(Z_S) = c_w missed by 0.03 in its first entry
    rep = report(dual_point=np.array([-0.53, -0.5]))
    assert rep["dual"] == pytest.approx(0.03) and rep["primal_cone"] == 0.0
    # a returned slack S is checked against F(w); the cone test reads F(w)
    S = np.array([[1.0, -1.0], [-1.0, 1.02]])
    rep = report(lmi_slacks=[S])
    assert rep["primal"] == pytest.approx(0.02) and rep["primal_cone"] == 0.0
    rep = report(lmi_slacks=[S + 0.05 * np.eye(2)],
                 primal_point=[np.array([1.0, -1.1, 1.0])])
    assert rep["primal"] == pytest.approx(0.1)
    assert rep["primal_cone"] == pytest.approx(0.1)


def test_iter_limit_status():
    prob = diag_trace_problem()
    sol = solve(prob, max_iter=1)
    assert sol.status == "IterLimit"
    assert sol.iterations == 1
