"""Primal-dual interior-point solver for equality-form SDPs.

The problem

    min <c, x>   s.t.  A x = b,  x in K

(K a product of PSD cones and a nonnegative orthant; free variables are
split into differences of nonnegative pairs) is embedded in the standard
homogeneous self-dual model with variables (x, lam, z, tau, kappa):

    A x - b tau                 = 0
    -A^T lam + c tau - z        = 0
    b.lam - c.x - kappa         = 0
    x in K, z in K*, tau, kappa >= 0.

Search directions are Newton steps on the complementarity conditions in
scaled form (dX + sym(Z^-1 dZ X) = rhs), i.e. the HKM direction, driven by
a Mehrotra predictor-corrector.  The Schur complement M = A W A^T is a
dense p x p matrix, assembled per PSD block over only the constraint rows
that touch the block (Fujisawa-Kojima-Nakata 1997): each block keeps its
constraint matrices for those rows, forms Z^-1 A_j X for them with batched
matrix products and adds their r x r product into M, so blocks touched by
few rows cost little.  M is factored in place by LAPACK's Cholesky, and
every solve with M reuses that Fortran-ordered factor through the same
LAPACK.  Everything is deterministic -- repeated runs produce bit-identical
iterates.

Near a degenerate optimum (no strict complementarity, as in the exact
Case1 moment SDPs) W and M grow very ill-conditioned.  Three safeguards
keep the iterates accurate there:

* the elimination solves for M^-1 b apart from M^-1 A W c, and forms its
  tau pivot from b.M^-1 b and the W-norm of the projected objective
  c - A^T M^-1 A W c, two nonnegative terms, instead of differences of
  terms of size |W|;
* each Newton direction is checked against the primal row of the
  linearised system, A dx - b dtau = -r_p, and refined with the factored M
  (a few passes at most) while it misses that row by more than a tenth of
  |r_p| or of the residual that the stop test accepts;
* the step is shortened until every PSD block of the trial point passes a
  plain Cholesky factorization, so every accepted iterate lies strictly
  inside the cone; the accepted factors are reused at the next iteration.
  Only M is ever factored with diagonal jitter.

Internally symmetric matrix variables are scaled vectorizations (off
diagonals carry sqrt(2)) so that inner products of packed vectors equal
matrix inner products; the model layer's counted-once convention is
converted on the way in and out.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .model import NonnegBlock, PsdBlock, SdpProblem, SdpSolution, tri_indices

_SQRT2 = float(np.sqrt(2.0))
_REFINE_PASSES = 3    # refinement passes per Newton direction, at most
_REFINE_FRAC = 0.1    # refine while A dx - b dtau = -r_p is missed by more
                      # than this fraction of |r_p|
_BACKTRACK = 0.5      # step shrink factor while a trial point leaves the cone
_MIN_STEP = 1e-12     # below this, no step into the cone interior was found
_PANEL = 64           # rows per panel when symmetrizing the Schur matrix


class _PsdData:
    """Static per-PSD-block data in internal (svec) coordinates.

    Only the ``rows`` whose constraints touch the block enter its part of the
    Schur complement: ``Asp`` and the symmetric constraint matrices ``T``
    are kept for those rows alone.  ``runs`` splits the rows into maximal
    ranges of consecutive indices, (lo, hi, position of lo in ``rows``), and
    ``rix`` indexes the rows in M (a slice when the block touches them all).
    """

    __slots__ = ("sl", "dim", "ti", "tj", "w", "fij", "fji", "rows", "rix",
                 "runs", "T", "Asp")

    def __init__(self, sl, dim, A_int):
        self.sl = sl
        self.dim = dim
        self.ti, self.tj = tri_indices(dim)
        self.w = np.where(self.ti == self.tj, 1.0, _SQRT2)
        # flat positions of (ti, tj) and (tj, ti) in a row-major dim x dim
        self.fij = self.ti * dim + self.tj
        self.fji = self.tj * dim + self.ti
        Asp = A_int[:, sl].tocsr()
        rows = np.flatnonzero(np.diff(Asp.indptr))
        r = rows.size
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
        ends = np.append(starts[1:], r)
        self.rows = rows
        self.rix = slice(None) if r == Asp.shape[0] else rows
        self.runs = [(int(rows[a]), int(rows[e - 1]) + 1, int(a))
                     for a, e in zip(starts, ends)]
        self.Asp = Asp[rows]
        vals = self.Asp.toarray() / self.w  # (r, nsv)
        T = np.zeros((r, dim, dim))
        T[:, self.ti, self.tj] = vals
        T[:, self.tj, self.ti] = vals
        self.T = T

    def mat(self, seg: np.ndarray) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        v = seg / self.w
        m[self.ti, self.tj] = v
        m[self.tj, self.ti] = v
        return m

    def svec(self, m: np.ndarray) -> np.ndarray:
        return m[self.ti, self.tj] * self.w


def _chol(mat: np.ndarray) -> np.ndarray | None:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _chol_jitter(mat: np.ndarray) -> np.ndarray | None:
    """Cholesky factor of a symmetric Fortran-ordered matrix, computed in
    place by LAPACK with escalating diagonal jitter; None if hopeless.

    The factor overwrites the lower triangle of ``mat`` and is returned for
    ``cho_solve((L, True), ...)``.  The strict upper triangle is left alone,
    so a failed attempt restores the matrix from it and the saved diagonal.
    Used for the Schur matrix only, where refinement absorbs the shift.
    Cone blocks are factored by plain :func:`_chol`, which doubles as the
    membership test for the open cone.
    """
    n = mat.shape[0]
    diag = mat.diagonal().copy()
    base = float(diag.sum()) / max(n, 1)
    if base <= 0.0 or not np.isfinite(base):
        base = 1.0
    jit = 1e-14 * base
    for attempt in range(7):
        if attempt:
            upper = np.triu(mat, 1)
            mat[...] = upper + upper.T
            np.fill_diagonal(mat, diag + jit)
            jit *= 100.0
        L, info = sla.lapack.dpotrf(mat, lower=True, clean=False,
                                    overwrite_a=True)
        if info == 0:
            return L
    return None


def _min_eig_ratio(L: np.ndarray, delta: np.ndarray) -> float:
    """Smallest eigenvalue of L^-1 delta L^-T for Cholesky factor L."""
    s = sla.solve_triangular(L, delta, lower=True)
    s = sla.solve_triangular(L, s.T, lower=True)
    return float(np.linalg.eigvalsh(0.5 * (s + s.T))[0])


class _Internal:
    """Problem in internal coordinates: svec PSD entries, split free vars."""

    def __init__(self, prob: SdpProblem):
        A = prob.A.tocsc()
        parts, c_parts = [], []
        psd_specs = []  # (internal offset, dim)
        lp_idx = []
        self.recover = []  # (kind, model_slice, internal_offset, size)
        off = 0
        free_cols = []
        for bl, sl in zip(prob.blocks, prob.block_slices()):
            nsv = bl.scalar_size
            if isinstance(bl, PsdBlock):
                ti, tj = tri_indices(bl.dim)
                w = np.where(ti == tj, 1.0, _SQRT2)
                parts.append(A[:, sl].multiply(1.0 / w[None, :]))
                c_parts.append(prob.objective[sl] / w)
                psd_specs.append((off, bl.dim))
                self.recover.append(("psd", sl, off, nsv))
            elif isinstance(bl, NonnegBlock):
                parts.append(A[:, sl])
                c_parts.append(prob.objective[sl])
                lp_idx.extend(range(off, off + nsv))
                self.recover.append(("lp", sl, off, nsv))
            else:  # FreeBlock: u - v with u, v >= 0; v columns appended later
                parts.append(A[:, sl])
                c_parts.append(prob.objective[sl])
                lp_idx.extend(range(off, off + nsv))
                free_cols.append((sl, off, nsv))
                self.recover.append(("free", sl, off, nsv))
            off += nsv
        self.free_pairs = []
        for sl, uoff, nsv in free_cols:
            parts.append(-A[:, sl])
            c_parts.append(-prob.objective[sl])
            lp_idx.extend(range(off, off + nsv))
            self.free_pairs.append((uoff, off, nsv))
            off += nsv
        self.n = off
        self.c = (np.concatenate(c_parts) if c_parts else np.zeros(0))
        A_int = (sp.hstack(parts).tocsr() if parts
                 else sp.csr_matrix((A.shape[0], 0)))

        # drop numerically empty rows (builder cancellations), remember map
        row_max = np.zeros(A_int.shape[0])
        if A_int.nnz:
            absA = abs(A_int)
            row_max = np.asarray(absA.max(axis=1).todense()).ravel()
        keep = (row_max > 0.0) | (np.abs(prob.b) > 0.0)
        self.kept_rows = np.flatnonzero(keep)
        A_int = A_int[self.kept_rows]
        b = prob.b[self.kept_rows]

        # row equilibration
        scale = np.maximum(row_max[self.kept_rows], np.abs(b))
        scale[scale == 0.0] = 1.0
        self.row_scale = scale
        D = sp.diags(1.0 / scale)
        self.A = (D @ A_int).tocsr()
        self.b = b / scale
        self.p = self.A.shape[0]
        self.total_rows = prob.A.shape[0]

        self.psd = [_PsdData(slice(o, o + d * (d + 1) // 2), d, self.A)
                    for o, d in psd_specs]
        self.lp = np.array(lp_idx, dtype=np.int64)
        self.A_lp = self.A[:, self.lp].tocsr() if self.lp.size else None
        self.nu = sum(d for _, d in psd_specs) + self.lp.size

    # -- mappings back to model space --------------------------------------

    def model_x(self, prob: SdpProblem, x_int: np.ndarray) -> np.ndarray:
        xm = np.zeros(prob.num_scalars)
        for kind, sl, off, nsv in self.recover:
            seg = x_int[off:off + nsv]
            if kind == "psd":
                dim = int((np.sqrt(8 * nsv + 1) - 1) / 2)
                ti, tj = tri_indices(dim)
                w = np.where(ti == tj, 1.0, _SQRT2)
                xm[sl] = seg / w
            else:
                xm[sl] = seg
        for uoff, voff, nsv in self.free_pairs:
            # locate the matching model slice for the u-part
            for kind, sl, off, n2 in self.recover:
                if kind == "free" and off == uoff:
                    xm[sl] -= x_int[voff:voff + nsv]
                    break
        return xm

    def model_lam(self, lam_int: np.ndarray) -> np.ndarray:
        lam = np.zeros(self.total_rows)
        lam[self.kept_rows] = lam_int / self.row_scale
        return lam


def _schur(ii: _Internal, blk_state, d_lp: np.ndarray) -> np.ndarray:
    """Schur complement M = A W A^T, symmetrized, as a Fortran-ordered array.

    ``blk_state`` holds (X, Z^-1, ...) per PSD block, where W maps V to
    sym(Z^-1 V X); ``d_lp`` is x / z on the nonnegative coordinates.  Each
    PSD block adds its r x r product over the r rows that touch it, in block
    order, so every entry is the same sum as over all p rows.  The product
    is added one run of consecutive columns at a time: a slice on one axis
    of M is much cheaper than an index array on both.
    """
    p = ii.p
    M = np.zeros((p, p))
    for blk, (X, Zinv, *_) in zip(ii.psd, blk_state):
        G = np.matmul(np.matmul(Zinv, blk.T), X).reshape(-1, blk.dim ** 2)
        rows_sv = 0.5 * (G.take(blk.fij, 1) + G.take(blk.fji, 1)) * blk.w
        B = blk.Asp @ rows_sv.T
        for lo, hi, at in blk.runs:
            M[blk.rix, lo:hi] += B[:, at:at + hi - lo]
    if ii.lp.size:
        lp = (ii.A_lp.multiply(d_lp[None, :]) @ ii.A_lp.T).tocoo()
        M[lp.row, lp.col] += lp.data  # canonical: no (row, col) twice
    # M <- (M + M^T) / 2, a panel of rows and its mirrored columns at a time:
    # a whole transpose would read M a full row apart
    for a in range(0, p, _PANEL):
        S = M[a:a + _PANEL, a:] + M[a:, a:a + _PANEL].T
        S *= 0.5
        M[a:a + _PANEL, a:] = S
        M[a:, a:a + _PANEL] = S.T
    return M.T  # equal to M, and Fortran-ordered for LAPACK


def solve(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 100) -> SdpSolution:
    """Solve an :class:`SdpProblem`; see the module docstring for the method."""
    ii = _Internal(prob)
    n, p = ii.n, ii.p
    A, b, c = ii.A, ii.b, ii.c
    AT = A.T.tocsr()
    if n == 0:
        status = "Optimal" if (p == 0 or np.max(np.abs(b)) <= tol) else "PrimalInfeasible"
        return SdpSolution(status, 0.0, 0.0, prob.unscalarize(np.zeros(prob.num_scalars)),
                           np.zeros(ii.total_rows), 0,
                           {"primal": 0.0, "dual": 0.0, "gap": 0.0})

    x = np.zeros(n)
    z = np.zeros(n)
    for blk in ii.psd:
        e = np.zeros(blk.sl.stop - blk.sl.start)
        e[blk.ti == blk.tj] = 1.0
        x[blk.sl] = e
        z[blk.sl] = e
    x[ii.lp] = 1.0
    z[ii.lp] = 1.0
    lam = np.zeros(p)
    tau = kappa = 1.0
    nu1 = ii.nu + 1.0
    mu0 = (x @ z + tau * kappa) / nu1
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.linalg.norm(c)

    def finish(status: str, iters: int, res: dict) -> SdpSolution:
        if status in ("Optimal", "IterLimit", "NumericalTrouble") and tau > 1e-300:
            xm = ii.model_x(prob, x / tau)
            lm = ii.model_lam(lam / tau)
            pv = float(prob.objective @ xm)
            dv = float(prob.b @ lm)
        elif status == "PrimalInfeasible":
            s = b @ lam
            lm = ii.model_lam(lam / s if s > 0 else lam)
            xm = np.zeros(prob.num_scalars)
            pv = dv = float("nan")
        elif status == "DualInfeasible":
            s = -(c @ x)
            xm = ii.model_x(prob, x / s if s > 0 else x)
            lm = np.zeros(ii.total_rows)
            pv = dv = float("nan")
        else:
            xm = np.zeros(prob.num_scalars)
            lm = np.zeros(ii.total_rows)
            pv = dv = float("nan")
        return SdpSolution(status, pv, dv, prob.unscalarize(xm), lm, iters, res)

    def cone_factors(xv, zv):
        """(X, plain Cholesky of X and of Z) per PSD block; None if any fails."""
        out = []
        for blk in ii.psd:
            X = blk.mat(xv[blk.sl])
            LX = _chol(X)
            LZ = _chol(blk.mat(zv[blk.sl])) if LX is not None else None
            if LZ is None:
                return None
            out.append((X, LX, LZ))
        return out

    facs = cone_factors(x, z)
    res = {"primal": float("inf"), "dual": float("inf"), "gap": float("inf")}
    stalls = 0
    for it in range(1, max_iter + 1):
        # scaling data at the current iterate, from the accepted factors
        blk_state = []  # (Xmat, Zinv, cholX, cholZ)
        for blk, (X, LX, LZ) in zip(ii.psd, facs):
            Zinv = sla.cho_solve((LZ, True), np.eye(blk.dim))
            blk_state.append((X, Zinv, LX, LZ))

        r_p = A @ x - b * tau
        r_d = -(AT @ lam) + c * tau - z
        r_g = float(b @ lam - c @ x - kappa)
        mu = (x @ z + tau * kappa) / nu1

        pv = float(c @ x / tau)
        dv = float(b @ lam / tau)
        pres = float(np.linalg.norm(A @ (x / tau) - b)) / norm_b
        dres = float(np.linalg.norm(AT @ (lam / tau) + z / tau - c)) / norm_c
        gap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
        res = {"primal": pres, "dual": dres, "gap": gap}
        if max(pres, dres, gap) <= tol:
            return finish("Optimal", it - 1, res)

        if kappa > 1e4 * tau:  # likely ray: judge certificate quality
            blam = float(b @ lam)
            cx = float(c @ x)
            if blam > 0 and float(np.linalg.norm(AT @ lam + z)) <= 1e-7 * blam:
                return finish("PrimalInfeasible", it - 1, res)
            if cx < 0 and float(np.linalg.norm(A @ x)) <= 1e-7 * (-cx):
                return finish("DualInfeasible", it - 1, res)
            if mu < 1e-12 * mu0:
                return finish("NumericalTrouble", it - 1, res)
        elif mu < 1e-14 * mu0 and tau < 1e-8:
            return finish("NumericalTrouble", it - 1, res)

        d_lp = x[ii.lp] / z[ii.lp]
        LM = _chol_jitter(_schur(ii, blk_state, d_lp)) if p else None
        if p and LM is None:
            return finish("NumericalTrouble", it - 1, res)

        def m_solve(r):
            if p == 0:
                return r
            return sla.cho_solve((LM, True), r, check_finite=False)

        def w_apply(v):
            out = np.zeros_like(v)
            for blk, (X, Zinv, _, _) in zip(ii.psd, blk_state):
                V = blk.mat(v[blk.sl])
                G = Zinv @ V @ X
                out[blk.sl] = blk.svec(0.5 * (G + G.T))
            out[ii.lp] = d_lp * v[ii.lp]
            return out

        # Eliminate (dx, dz, dkap), then dlam = v + h dtau with h = g + y,
        # g = M^-1 b and y = M^-1 A W c.  Near a degenerate optimum A W c,
        # c.Wc and (A W c).h are huge: b is solved for apart from A W c, and
        # the dtau pivot is b.g + r.Wr with r = c - A^T y, two terms >= 0.
        g, y = m_solve(np.column_stack([b, A @ w_apply(c)])).T
        h = g + y
        r = c - AT @ y
        q = r - AT @ g  # c - A^T h: dz per unit dtau
        Wr = w_apply(r)
        WRd = w_apply(-r_d)
        denom = float(b @ g) + float(r @ Wr) + kappa / tau
        if not np.isfinite(denom) or denom < 1e-300:
            return finish("NumericalTrouble", it - 1, res)

        def lin_solve(rp, rg, rc, r_tau, rd, wrd):
            v = m_solve(-rp - A @ (rc + wrd))
            dz0 = -(AT @ v) + rd  # dz at dtau = 0; then A dx = -rp
            # gap row, with c.dx at dtau = 0 written as r.dx - y.rp
            num = (-rg - float(b @ v) + float(r @ rc) - float(Wr @ dz0)
                   - float(y @ rp) + r_tau / tau)
            dtau = num / denom
            dlam = v + h * dtau
            dz = dz0 + q * dtau
            dx = rc - w_apply(dz)
            dkap = (r_tau - kappa * dtau) / tau
            return dx, dlam, dz, dtau, dkap

        # refine while the direction misses the primal row by more than a
        # fraction of |r_p|, or of the residual that the stop test accepts
        refine_above = _REFINE_FRAC * max(float(np.linalg.norm(r_p)),
                                          tol * tau * norm_b)
        zero = np.zeros(n)

        def newton(rc, r_tau):
            d = lin_solve(r_p, r_g, rc, r_tau, r_d, WRd)
            # Iterative refinement with the factored M: the dual, scaling and
            # tau-kappa rows hold by construction, the primal and gap rows
            # carry the Schur solve's error.
            for _ in range(_REFINE_PASSES):
                dx, dlam, _, dtau, dkap = d
                e_p = -r_p - (A @ dx - b * dtau)
                if float(np.linalg.norm(e_p)) <= refine_above:
                    break
                e_g = -r_g - (float(b @ dlam) - float(c @ dx) - dkap)
                fix = lin_solve(-e_p, -e_g, zero, 0.0, zero, zero)
                d = tuple(u + v for u, v in zip(d, fix))
            return d

        def step_bound(dx, dz, dtau, dkap):
            a = 1e10
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkap < 0:
                a = min(a, -kappa / dkap)
            if ii.lp.size:
                for cur, dlt in ((x[ii.lp], dx[ii.lp]), (z[ii.lp], dz[ii.lp])):
                    neg = dlt < 0
                    if np.any(neg):
                        a = min(a, float(np.min(-cur[neg] / dlt[neg])))
            for blk, (X, Zinv, LX, LZ) in zip(ii.psd, blk_state):
                for L, dlt in ((LX, blk.mat(dx[blk.sl])), (LZ, blk.mat(dz[blk.sl]))):
                    lmin = _min_eig_ratio(L, dlt)
                    if lmin < 0:
                        a = min(a, -1.0 / lmin)
            return a

        # predictor (affine scaling direction)
        rc_aff = -x
        dxa, dla, dza, dta, dka = newton(rc_aff, -tau * kappa)
        a_aff = min(1.0, step_bound(dxa, dza, dta, dka))
        mu_aff = ((x + a_aff * dxa) @ (z + a_aff * dza)
                  + (tau + a_aff * dta) * (kappa + a_aff * dka)) / nu1
        sigma = (max(mu_aff, 0.0) / mu) ** 3
        sigma = min(max(sigma, 1e-8), 1.0 - 1e-8)

        # corrector (combined direction)
        rc = np.zeros(n)
        for blk, (X, Zinv, _, _) in zip(ii.psd, blk_state):
            dZ = blk.mat(dza[blk.sl])
            dX = blk.mat(dxa[blk.sl])
            corr = Zinv @ dZ @ dX
            tgt = sigma * mu * Zinv - X - 0.5 * (corr + corr.T)
            rc[blk.sl] = blk.svec(0.5 * (tgt + tgt.T))
        if ii.lp.size:
            xl, zl = x[ii.lp], z[ii.lp]
            rc[ii.lp] = (sigma * mu - xl * zl - dxa[ii.lp] * dza[ii.lp]) / zl
        r_tau = sigma * mu - tau * kappa - dta * dka

        dx, dlam, dz, dtau, dkap = newton(rc, r_tau)
        alpha = min(1.0, 0.99 * step_bound(dx, dz, dtau, dkap))
        # backtrack until every PSD block of the trial point factors
        new_facs = None
        while alpha >= _MIN_STEP:
            new_facs = cone_factors(x + alpha * dx, z + alpha * dz)
            if new_facs is not None:
                break
            alpha *= _BACKTRACK
        if new_facs is None:
            return finish("NumericalTrouble", it - 1, res)
        if alpha < 1e-8:
            stalls += 1
            if stalls >= 3:
                return finish("NumericalTrouble", it, res)
        else:
            stalls = 0
        facs = new_facs
        x = x + alpha * dx
        lam = lam + alpha * dlam
        z = z + alpha * dz
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkap

    return finish("IterLimit", max_iter, res)
