"""Primal-dual interior-point solver for equality-form SDPs.

The problem

    min <c, x>   s.t.  A x = b,  x in K,  S = F(w) >= 0

(K a product of PSD cones, the 1 x 1 ones taken together as a nonnegative
orthant; w the free vectors of the LMI blocks, which the rows may touch
too) is embedded in the standard
homogeneous self-dual model with variables (x, lam, z, tau, kappa), plus
S and its dual Z_S for the LMI blocks:

    A x - b tau                         = 0
    -A^T lam + c tau - z                = 0   (z = 0 on the w columns)
    S - F(w)                            = 0
    -B^T lam + c_w tau - F*(Z_S)        = 0   (B the rows' w columns)
    b.lam - c.x - kappa                 = 0
    x in K, z in K*, S, Z_S >= 0, tau, kappa >= 0.

Search directions are Newton steps on the complementarity conditions in
scaled form (dX + sym(Z^-1 dZ X) = rhs), i.e. the HKM direction, driven by
a Mehrotra predictor-corrector from x = z = xi I (the identity of every
cone, tau = kappa = 1), where xi = max(1, |c| / sqrt(nu)) gives z the size
of a large objective.

The Schur complement M = A W A^T is a dense p x p matrix, assembled per
PSD block over only the r constraint rows that touch the block
(Fujisawa-Kojima-Nakata 1997).  With X = L_X L_X^T and Z = L_Z L_Z^T, entry
(a, b) of a block's part is <T_a, Z^-1 T_b X> = <K_a, K_b> for
K_a = L_Z^-1 T_a L_X, the T_a being the block's symmetric constraint
matrices: the block forms K for its rows with two batched matrix products
and adds K K^T into M, so blocks touched by few rows cost little.  The
nonnegative coordinates add Q Q^T with Q = A_lp diag(sqrt(x / z)).  M is
factored by numpy's Cholesky, M = L L^T, and every solve with M is two
products with the inverse factor L^-1, formed once per iteration (see
:func:`_tri_inv`).  The linear algebra is numpy's alone.  Everything is
deterministic -- repeated runs produce bit-identical iterates.

An LMI block is linearized the way SDPA treats its dual slack (the dual
HKM direction): dZ_S = rc_S - sym(Z_S dS S^-1) with dS = F(dw) + (F(w) -
S), so the w rows read  H dw = F*(rc_S - sym(Z_S (F(w) - S) S^-1)) +
(B^T dlam - c_w dtau - r_w)  with

    H = sum_j F_j^T (Z_S (x) S^-1) F_j,   H_ab = <F_a, sym(S^-1 F_b Z_S)>,

an N x N matrix (N the length of w).  A diagonal block on a sparse map
adds its part like M, with K_a = L_S^-1 F_a L_{Z_S}.  A rank-one block,
F_a = q_a p_a p_a^T (weights at points, :class:`_RankOne`), adds
(q q^T) o (P Z_S P^T) o (P S^-1 P^T), P the rows p_a, a Hadamard product
with no K (Benson-Ye-Zhang 2000; Papp-Yildiz 2019), and takes F(dw) and
F*(Z) from P, with no dense F.  Then w enters the elimination as a
column with W = H^-1, and only the reduced Schur matrix
M = A_G W A_G^T + U^T U, U = L_H^-1 B^T, over the p equality rows is
factored; the LMI's own entries add no row.  Internally S and Z_S sit in
slots after the columns the rows touch, with their roles swapped (Z_S in
x, S in z): the dual HKM scaling of (S, Z_S) is the HKM scaling of
(Z_S, S), so the stacking, the cone test, the step bound and the corrector
treat the slots as PSD blocks.

Most SDPs fsipp solves are tiny, so an iteration makes few, larger numpy
calls.  The ordinary PSD blocks form one stack, the LMI slots on sparse
maps another and the rank-one ones a third, each block bordered by the
identity to the largest dimension D of its kind: X and Z read as
(k, D, D) stacks of diag(X_j, I), and the Cholesky cone test, the inverse
factors, the step limits, the W products and the corrector take one call
per kind.  A border's factors are the identity and its directions zero,
so it changes no block's values beyond rounding.  The step to the PSD
boundary is -1 over the smallest eigenvalue of L^-1 dX L^-T (and of its
Z counterpart), L the accepted Cholesky factor.  The inverse factors are
formed once per iteration and serve Z^-1 = L_Z^-T L_Z^-1, the K and both
steps; the corrector reuses the predictor's reads of its direction.  The
stop test reads its residuals off r_p, S - F(w) and r_d (r_p / tau =
A x / tau - b, -r_d / tau = A^T lam / tau + z / tau - c).  A, F (sparse
blocks only), the stacks and one working set are built once per solve: a
buffer for the largest block's K and two chunk buffers of 2^13 doubles,
in which each block forms its K a chunk of rows at a time (see
:class:`_PsdData`), and the rank-one blocks' P, their products and H.

Near a degenerate optimum (no strict complementarity, as in the exact
Case1 moment SDPs and the lower-level moment SDPs) W, H and M grow very
ill-conditioned.  Four safeguards keep the iterates accurate there:

* M and H are sums of Gram matrices (K K^T, Q Q^T, U^T U), each formed by
  numpy as a symmetric rank-k update that computes one triangle and
  mirrors it: they come out exactly symmetric, and positive semidefinite
  up to the rounding of the factors K, however graded the iterate;
* the elimination solves for M^-1 b apart from M^-1 A W c, and forms its
  tau pivot from b.M^-1 b and the W-norm of the projected objective
  c - A^T M^-1 A W c, two nonnegative terms, instead of differences of
  terms of size |W|;
* each Newton direction is checked against the primal and w rows of the
  linearised system, A dx - b dtau = -r_p and H dw + dz_w = g_w, and
  refined while it misses them by more than a tenth of |r_p| (|r_d| for
  the w rows) or of the residual that the stop test accepts.  The
  refinement is GMRES preconditioned by the factored solve (GMRES-IR,
  Carson-Higham 2018), a few corrections at most, with H dw summed in
  long double: plain refinement grew the w rows' residual whenever H's
  factored solve missed some direction by more than its size, so the dual
  residual of a 1e-9 lower-level solve stalled or not depending on the
  BLAS kernel;
* the step is shortened until every PSD block of the trial point (X, Z,
  S and Z_S) passes a plain Cholesky factorization, so every accepted
  iterate lies strictly inside the cone; the accepted factors are reused
  at the next iteration.  Only M and H are ever factored with diagonal
  jitter, which a pivot test relative to each diagonal entry triggers.

Internally symmetric matrix variables are scaled vectorizations (off
diagonals carry sqrt(2)) so that inner products of packed vectors equal
matrix inner products; the model layer's counted-once convention is
converted on the way in and out.
"""

from __future__ import annotations

import math

import numpy as np

from .model import (LmiBlock, PsdBlock, RankOneMap, SdpProblem, SdpSolution,
                    SparseRows, tri_indices, tri_to_sym)

_SQRT2 = float(np.sqrt(2.0))
_REFINE_PASSES = 3    # GMRES corrections per Newton direction, at most
_REFINE_FRAC = 0.1    # refine while A dx - b dtau = -r_p is missed by more
                      # than this fraction of |r_p|
_BACKTRACK = 0.5      # step shrink factor while a trial point leaves the cone
_MIN_STEP = 1e-12     # below this, no step into the cone interior was found
_TRI_LEAF = 32        # triangular factors up to this size are inverted whole
_EPS = float(np.finfo(float).eps)
_CHUNK = 1 << 13      # doubles per chunk of a block's K, as in multiobj's slabs


class _PsdData:
    """Static per-PSD-block data in internal (svec) coordinates.

    A block is an ordinary PSD block, whose rows are equality rows, or a
    diagonal block of an LMI, whose rows are the entries a of w and whose
    constraint matrices are the F_a.  Only the ``rows`` that touch the
    block enter its part of the Schur complement (M, or H for an LMI).
    ``runs`` splits the rows into maximal ranges of consecutive indices,
    (lo, hi, position of lo in ``rows``), and ``rix`` indexes the rows in M
    (a slice when the block touches them all).

    K = L_Z^-1 T_a L_X is formed ``_CHUNK`` doubles of rows at a time.  A
    block whose (r, dim, dim) stack of the symmetric T_a fits in one chunk
    keeps it as ``T``, since rebuilding every stack per chunk cost 3-8% of
    solver time on the small SDPs.  A larger one keeps per chunk of rows
    [lo, hi) only its entries' flat positions and values (``parts``),
    written into a chunk buffer before the chunk's two products.
    """

    __slots__ = ("sl", "dim", "ti", "tj", "w", "rows", "rix", "runs", "T",
                 "parts", "chunks", "K")

    def __init__(self, sl, dim, p, rows, cols, vals):
        """``rows``, ``cols``, ``vals``: the entries of the p-row internal
        constraint matrix, each (row, column) pair once."""
        self.sl = sl
        self.dim = dim
        self.ti, self.tj = tri_indices(dim)
        self.w = np.where(self.ti == self.tj, 1.0, _SQRT2)
        mine = (cols >= sl.start) & (cols < sl.stop)
        c, v = cols[mine] - sl.start, vals[mine]
        rows, at = np.unique(rows[mine], return_inverse=True)
        r = rows.size
        starts = np.flatnonzero(np.diff(rows, prepend=-2) != 1)
        ends = np.append(starts[1:], r)
        self.rows = rows
        self.rix = slice(None) if r == p else rows
        self.runs = [(int(rows[a]), int(rows[e - 1]) + 1, int(a))
                     for a, e in zip(starts, ends)]
        vw = np.concatenate([v / self.w[c]] * 2)
        pos = np.concatenate([(at * dim + self.ti[c]) * dim + self.tj[c],
                              (at * dim + self.tj[c]) * dim + self.ti[c]])
        dd, step = dim * dim, max(1, _CHUNK // dim ** 2)
        self.T, self.parts = None, [(0, r, None, None)]
        if r <= step:
            self.T = np.zeros((r, dim, dim))
            np.put(self.T, pos, vw)
        else:
            ch = pos // (step * dd)  # the chunk of each entry
            self.parts = [(lo, lo + step, pos[ch == k] - lo * dd, vw[ch == k])
                          for k, lo in enumerate(range(0, r, step))]

    def bind(self, K: np.ndarray, T: np.ndarray, P: np.ndarray) -> None:
        """Point the block's (r, dim^2) ``K`` and its ``chunks`` (T_a, positions,
        values, R T_a, K per chunk) at the working set ``K``, ``T``, ``P``."""
        r, d = self.rows.size, self.dim
        self.K = K[:r * d * d].reshape(r, d * d)
        K3 = self.K.reshape(r, d, d)
        self.chunks = []
        for lo, hi, loc, val in self.parts:
            Kc = K3[lo:hi]
            Tc = self.T if loc is None else T[:Kc.size].reshape(Kc.shape)
            self.chunks.append((Tc, loc, val, P[:Kc.size].reshape(Kc.shape), Kc))


class _Stack:
    """The PSD blocks of one kind, each bordered to the largest dimension D
    and stacked.

    ``mats`` reads the blocks' symmetric matrices out of internal vectors,
    zero on the border, whose svec weight inf divides any slot to 0.  Adding
    ``eye``, the identity on the border, makes a read of X or Z a stack of
    diag(X_j, I), whose Cholesky and inverse factors are the blocks' own
    bordered by I.  ``put`` writes the blocks' part of a stack back.
    """

    __slots__ = ("blocks", "dim", "full", "wfull", "eye", "idx", "flat", "w")

    def __init__(self, blocks: list[_PsdData]):
        self.blocks = blocks
        D = self.dim = max(b.dim for b in blocks)
        shape = (len(blocks), D, D)
        self.full = np.zeros(shape, dtype=np.intp)  # svec slot of each entry
        self.wfull = np.full(shape, np.inf)         # svec weight of each entry
        self.eye = np.zeros(shape)
        for j, b in enumerate(blocks):
            for a, c in ((b.ti, b.tj), (b.tj, b.ti)):
                self.full[j, a, c] = np.arange(b.sl.start, b.sl.stop)
                self.wfull[j, a, c] = b.w
            self.eye[j, range(b.dim, D), range(b.dim, D)] = 1.0
        self.idx = np.concatenate([np.arange(b.sl.start, b.sl.stop) for b in blocks])
        self.flat = np.concatenate([(j * D + b.ti) * D + b.tj
                                    for j, b in enumerate(blocks)])
        self.w = np.concatenate([b.w for b in blocks])

    def mats(self, *vecs: np.ndarray) -> np.ndarray:
        """The blocks' matrices in each of ``vecs``, (len(vecs), k, D, D)."""
        return np.array([v[self.full] for v in vecs]) / self.wfull

    def put(self, out: np.ndarray, mats: np.ndarray) -> None:
        """Write the blocks' part of a (k, D, D) symmetric stack into ``out``."""
        out[self.idx] = mats.reshape(-1)[self.flat] * self.w

    def factors(self, L: np.ndarray, Linv: np.ndarray) -> list:
        """(L_X, L_Z^-1) of each block, unbordered, from the stacked Cholesky
        factors ``L`` and their inverses ``Linv`` (X first, then Z)."""
        return [(L[0, j, :b.dim, :b.dim], Linv[1, j, :b.dim, :b.dim])
                for j, b in enumerate(self.blocks)]


class _RankOne:
    """The LMI diagonal blocks whose constraint matrices have rank one,
    F_a = q_a p_a p_a^T (:class:`RankOneMap`), as one stack: ``P`` (k, U, D)
    holds each block's p_a as rows (zero past its dimension and its LMI's
    length), ``Pq`` = q P and ``wix`` each row's entry of w.  F(dw) is
    P^T diag(q dw) P, F*(V)_a = q_a p_a^T V p_a, and with Z_S = L L^T and
    S^-1 = R^T R a block adds (Pq L (Pq L)^T) o (P R^T (P R^T)^T) to H, U^2 D
    flops and no K.  ``A``, ``B``, ``G`` and ``H`` are its working set."""

    def __init__(self, specs, n: int, nw: int):
        """``specs``: (slot offset, dim, RankOneMap, its LMI's offset in w)."""
        k, D = len(specs), max(d for _, d, _, _ in specs)
        U = max(len(F.q) for _, _, F, _ in specs)
        none = np.zeros(0, dtype=np.intp)  # the slots, which no equality row touches
        self.slots = [_PsdData(slice(o, o + d * (d + 1) // 2), d, nw, none, none, none)
                      for o, d, _, _ in specs]
        self.P, self.Pq = np.zeros((2, k, U, D))
        self.A, self.B = np.empty((2, U, D))
        self.wix, self.spans = np.zeros((k, U), dtype=np.intp), []
        self.G, self.H = np.empty((2, U * U)), np.empty((nw, nw))
        for j, (_, d, F, woff) in enumerate(specs):
            u = len(F.q)
            self.P[j, :u, :d], self.Pq[j, :u, :d] = F.P, F.q[:, None] * F.P
            self.wix[j, :u] = np.arange(woff, woff + u)
            self.spans.append((u, slice(woff, woff + u),
                               *(g[:u * u].reshape(u, u) for g in self.G)))
        self.stack = _Stack(self.slots)
        self.sidx = self.stack.idx - n  # the stack in a vector of the slots,
        self.sfull = np.maximum(self.stack.full - n, 0)  # its border read as 0

    def apply(self, dw: np.ndarray, out: np.ndarray) -> None:
        """Write F(dw) into the blocks' entries of the slot vector ``out``."""
        S = (self.Pq.swapaxes(1, 2) * dw[self.wix][:, None, :]) @ self.P
        out[self.sidx] = S.reshape(-1)[self.stack.flat] * self.stack.w

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        """F*(V) over w, V the blocks' matrices in the slot vector ``v``."""
        r = np.add.reduce((self.P @ (v[self.sfull] / self.stack.wfull)) * self.Pq, 2)
        return np.bincount(self.wix.reshape(-1), r.reshape(-1), len(self.H))

    def schur(self, LX: np.ndarray, R: np.ndarray) -> np.ndarray:
        """H from the stacked factors L_{Z_S} (``LX``) and L_S^-1 (``R``),
        bordered by I; each product is exactly symmetric."""
        self.H.fill(0.0)
        for P, Pq, L, Rj, (u, ws, G1, G2) in zip(self.P, self.Pq, LX, R, self.spans):
            a, b = self.A[:u], self.B[:u]
            np.matmul(Pq[:u], L, out=a)
            np.matmul(P[:u], Rj.T, out=b)
            np.matmul(a, a.T, out=G1)
            np.matmul(b, b.T, out=G2)
            G1 *= G2
            self.H[ws, ws] += G1
        return self.H


def _chol(mat: np.ndarray) -> np.ndarray | None:
    """Plain Cholesky factors of a stack of matrices; None unless all are
    positive definite."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _chol_jitter(mat: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of a symmetric matrix with escalating diagonal
    jitter; None if hopeless.

    A factor is accepted only when every pivot exceeds n * eps times the
    diagonal entry it came from: below that, the pivot is what is left of
    that entry after cancellation, rounding noise that merely came out
    positive, and a solve with the factor is garbage.  The test is
    invariant under diagonal scaling, so a graded matrix (moments of very
    different sizes) that factors accurately is not jittered for the
    spread of its pivots.  ``mat`` itself is left alone.  Used for the
    Schur matrix and the LMI matrix H only, where refinement absorbs the
    shift.  Cone blocks are factored by plain :func:`_chol`, which doubles
    as the membership test for the open cone.
    """
    n = mat.shape[0]
    diag = mat.diagonal()
    base = float(diag.sum()) / max(n, 1)
    if base <= 0.0 or not np.isfinite(base):
        base = 1.0
    jit = 1e-14 * base
    shifted, work = diag, mat
    for _ in range(7):
        L = _chol(work)
        if L is not None and np.all(np.square(L.diagonal()) > n * _EPS * shifted):
            return L
        shifted = diag + jit
        work = mat + jit * np.eye(n)
        jit *= 100.0
    return None


def _tri_inv(L: np.ndarray) -> np.ndarray:
    """Inverses of lower triangular factors (one, or a stack).

    Above ``_TRI_LEAF`` rows the inverse is assembled from the inverses
    A^-1, D^-1 of the diagonal blocks, the lower left block being
    -D^-1 C A^-1, as LAPACK's blocked triangular inverse does.  A leaf is
    inverted by ``np.linalg.inv`` of L^T: the LU factorization behind it
    never pivots an upper triangular matrix (each column has one
    candidate) and its multipliers are zero, so that is a true triangular
    inverse.
    """
    n = L.shape[-1]
    if n <= _TRI_LEAF:
        return np.linalg.inv(L.swapaxes(-1, -2)).swapaxes(-1, -2)
    h = n // 2
    Ai, Di = _tri_inv(L[..., :h, :h]), _tri_inv(L[..., h:, h:])
    out = np.zeros_like(L)
    out[..., :h, :h] = Ai
    out[..., h:, h:] = Di
    out[..., h:, :h] = -(Di @ (L[..., h:, :h] @ Ai))
    return out


def _psd_step_limit(Linv: np.ndarray, delta: np.ndarray) -> float:
    """Largest step a with L L^T + a delta still PSD for every pair in the
    stacks, given the inverse Cholesky factors ``Linv``: -1 over the
    smallest eigenvalue of any L^-1 delta L^-T, or inf (no bound) when all
    of them are PSD.  A border where delta is zero and L^-1 the identity
    adds the eigenvalue 0, which bounds nothing."""
    S = Linv @ delta @ Linv.swapaxes(-1, -2)
    lmin = float(np.linalg.eigvalsh(0.5 * (S + S.swapaxes(-1, -2)))[..., 0].min())
    return -1.0 / lmin if lmin < 0 else np.inf


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, without ``np.linalg.norm``'s overhead."""
    return math.sqrt(v @ v)


def _gmres(correct, e: np.ndarray, passes: int):
    """GMRES for the correction that removes residual ``e``, preconditioned
    by the factored solve (GMRES-IR, Carson-Higham 2018).

    ``correct(v)`` returns the direction the factored solve makes for
    residual v and the residual that direction removes.  Near a degenerate
    optimum the factored solve misses some directions by more than their
    size, so plain refinement (adding ``correct(e)`` while a residual is
    left) can grow the residual; GMRES combines the corrections it has made
    so as to leave the least residual.  Stops after ``passes`` corrections
    or once the residual left has norm at most 1.  Returns the combination
    coefficients and the corrections.
    """
    beta = _norm(e)
    basis, fixes = [e / beta], []
    hess = np.zeros((passes + 1, passes))
    for k in range(passes):
        fix, w = correct(basis[k])
        fixes.append(fix)
        for i, v in enumerate(basis):  # modified Gram-Schmidt
            hess[i, k] = w @ v
            w = w - hess[i, k] * v
        hess[k + 1, k] = _norm(w)
        rhs = np.zeros(k + 2)
        rhs[0] = beta
        coef = np.linalg.lstsq(hess[:k + 2, :k + 1], rhs, rcond=None)[0]
        left = _norm(rhs - hess[:k + 2, :k + 1] @ coef)
        if left <= 1.0 or hess[k + 1, k] <= _EPS * beta:
            break
        basis.append(w / hess[k + 1, k])
    return coef, fixes


class _Internal:
    """Problem in internal coordinates.

    Internal column j < n is model column j, divided by the svec weight on
    PSD slots; the 1 x 1 PSD blocks are the nonnegative coordinates ``lp``.
    These n columns are the ones the equality rows touch; an LMI block's
    vector w is among them, unsigned.  After them come the LMI slots, one
    svec block per diagonal block of each LMI, which hold Z_S in x and S in
    z (see the module docstring).  Explicit zero entries and numerically
    empty rows are dropped and the other rows equilibrated.  Everything is
    assembled from the model's sparse rows by numpy, A and A^T once each.
    """

    def __init__(self, prob: SdpProblem):
        self.n = n = prob.num_scalars
        w = np.ones(n)  # svec weight of each model column
        is_lp = np.ones(n, dtype=bool)
        psd_specs, wcols, lmis = [], [], []
        for bl, sl in zip(prob.blocks, prob.block_slices()):
            # a PsdBlock(1) is an orthant coordinate: the same direction and
            # step, without the per-iteration matrix work of a PSD stack
            if isinstance(bl, PsdBlock) and bl.dim > 1:
                ti, tj = tri_indices(bl.dim)
                w[sl] = np.where(ti == tj, 1.0, _SQRT2)
                is_lp[sl] = False
                psd_specs.append((sl.start, bl.dim))
            elif isinstance(bl, LmiBlock):
                is_lp[sl] = False
                wcols.append(np.arange(sl.start, sl.stop))
                lmis.append(bl)
        self.w = w
        self.wcols = np.concatenate(wcols) if wcols else np.zeros(0, np.intp)

        # LMI slots: F maps w to the slots' svec entries, F^T is its adjoint;
        # a rank-one block keeps its (P, q) instead of a part of F
        lmi_specs, r1_specs, frows, fcols, fvals = [], [], [], [], []
        off, woff = n, 0
        for bl in lmis:
            for d, Fm in zip(bl.dims, bl.maps):
                if isinstance(Fm, RankOneMap):
                    r1_specs.append((off, d, Fm, woff))
                else:
                    ti, tj = tri_indices(d)
                    frows.append(Fm.cols + woff)
                    fcols.append(Fm.rows + off)
                    fvals.append(Fm.vals * np.where(ti == tj, 1.0, _SQRT2)[Fm.rows])
                    lmi_specs.append((off, d))
                off += d * (d + 1) // 2
            woff += bl.nvars
        self.ntot = ntot = off
        self.slots = slice(n, ntot)
        self.c = np.concatenate([prob.objective / w, np.zeros(ntot - n)])

        A = prob.A
        rows, cols = A.rows, A.cols
        vals = A.vals * (1.0 / w)[cols]
        live = vals != 0.0
        rows, cols, vals = rows[live], cols[live], vals[live]

        # drop numerically empty rows (builder cancellations), remember map
        row_max = np.zeros(A.shape[0])
        np.maximum.at(row_max, rows, np.abs(vals))
        keep = (row_max > 0.0) | (np.abs(prob.b) > 0.0)
        self.kept_rows = np.flatnonzero(keep)
        self.total_rows = A.shape[0]

        # row equilibration; kept rows never scale by zero
        scale = np.maximum(row_max[keep], np.abs(prob.b[keep]))
        self.row_scale = scale
        self.b = prob.b[keep] / scale
        self.p = p = scale.size
        rows = (np.cumsum(keep) - 1)[rows]
        vals = vals * (1.0 / scale)[rows]
        self.A = SparseRows(rows, cols, vals, (p, ntot))

        self.psd = [_PsdData(slice(o, o + d * (d + 1) // 2), d, p, rows, cols, vals)
                    for o, d in psd_specs]
        self.lp = np.flatnonzero(is_lp)
        if self.lp.size:
            # the columns of the nonnegative coordinates, dense over lp_rows,
            # the rows any of them touches
            lp_col = np.full(ntot, -1)
            lp_col[self.lp] = np.arange(self.lp.size)
            mine = lp_col[cols] >= 0
            self.lp_rows, at = np.unique(rows[mine], return_inverse=True)
            self.A_lp = np.zeros((self.lp_rows.size, self.lp.size))
            self.A_lp[at, lp_col[cols[mine]]] = vals[mine]
            self.lp_ix = np.ix_(self.lp_rows, self.lp_rows)

        self.lmi, self.F, nw = [], None, self.wcols.size
        if lmis:
            # B^T, B the rows' w columns, for the reduced Schur matrix
            wpos = np.full(ntot, -1)
            wpos[self.wcols] = np.arange(nw)
            on_w = wpos[cols] >= 0
            self.BT = np.zeros((nw, p))
            self.BT[wpos[cols[on_w]], rows[on_w]] = vals[on_w]
        if lmi_specs:
            frows, fcols, fvals = (np.concatenate(v) for v in (frows, fcols, fvals))
            self.F = np.zeros((ntot - n, nw))  # dense: a few hundred columns at most
            self.F[fcols - n, frows] = fvals
            self.lmi = [_PsdData(slice(o, o + d * (d + 1) // 2), d, nw,
                                 frows, fcols, fvals) for o, d in lmi_specs]
        self.r1 = _RankOne(r1_specs, n, nw) if r1_specs else None
        # one working set per solve: the largest block's K, two chunk buffers
        blocks = self.psd + self.lmi
        kbuf = max([b.rows.size * b.dim ** 2 for b in blocks], default=0)
        cbuf = max([b.parts[0][1] * b.dim ** 2 for b in blocks], default=0)
        work = np.empty(kbuf), np.empty(cbuf), np.empty(cbuf)
        for b in blocks:
            b.bind(*work)
        # one stack per kind: ordinary blocks, LMI slots, rank-one LMI slots
        self.stacks = [_Stack(blocks) for blocks in (self.psd, self.lmi) if blocks]
        self.stacks += [self.r1.stack] if self.r1 else []
        self.slot_blocks = sorted(self.lmi + (self.r1.slots if self.r1 else []),
                                  key=lambda b: b.sl.start)  # in the model's order
        self.nu = (sum(d for _, d in psd_specs) + self.lp.size
                   + sum(b.dim for b in self.slot_blocks))

    # -- mappings back to model space --------------------------------------

    def model_x(self, x_int: np.ndarray) -> np.ndarray:
        return x_int[:self.n] / self.w

    def model_lam(self, lam_int: np.ndarray) -> np.ndarray:
        lam = np.zeros(self.total_rows)
        lam[self.kept_rows] = lam_int / self.row_scale
        return lam

    def lmi_mats(self, v: np.ndarray) -> list[np.ndarray]:
        """The LMI slots of an internal vector as matrices, one per LMI
        diagonal block (Z_S from x, S from z)."""
        return [tri_to_sym(blk.dim, v[blk.sl] / blk.w) for blk in self.slot_blocks]

    def lmi_map(self, dw: np.ndarray) -> np.ndarray:
        """F(dw) on the LMI slots."""
        out = self.F @ dw if self.lmi else np.zeros(self.ntot - self.n)
        if self.r1:
            self.r1.apply(dw, out)
        return out

    def lmi_adjoint(self, v: np.ndarray) -> np.ndarray:
        """F*(V) over w, V on the LMI slots."""
        out = v @ self.F if self.lmi else 0.0
        return out + self.r1.adjoint(v) if self.r1 else out


def _add_products(M: np.ndarray, blocks, blk_state) -> None:
    """Add each block's A_j W_j A_j^T into M over the rows that touch it.

    ``blk_state`` holds (L_X, L_Z^-1) per block, and the product is K K^T
    with K_a = L_Z^-1 T_a L_X (see the module docstring).  It is added one
    run of consecutive columns at a time: a slice on one axis of M is much
    cheaper than an index array on both.
    """
    for blk, (LX, R) in zip(blocks, blk_state):
        for T, loc, val, RT, K in blk.chunks:
            if loc is not None:
                T.fill(0.0)
                np.put(T, loc, val)
            np.matmul(R, T, out=RT)
            np.matmul(RT, LX, out=K)
        B = blk.K @ blk.K.T
        for lo, hi, at in blk.runs:
            M[blk.rix, lo:hi] += B[:, at:at + hi - lo]


def _schur(ii: _Internal, blk_state, d_lp: np.ndarray) -> np.ndarray:
    """Schur complement M_G = A W A^T over the ordinary blocks, from
    (L_X, L_Z^-1) per PSD block and ``d_lp`` = x / z on the nonnegative
    coordinates."""
    M = np.zeros((ii.p, ii.p))
    _add_products(M, ii.psd, blk_state)
    if ii.lp.size:
        Q = ii.A_lp * np.sqrt(d_lp)
        M[ii.lp_ix] += Q @ Q.T
    return M


def _lmi_schur(ii: _Internal, lmi_state, r1_state) -> np.ndarray:
    """H = sum_j F_j^T (Z_S (x) S^-1) F_j, H_ab = <F_a, sym(S^-1 F_b Z_S)>,
    over the LMI blocks.  ``lmi_state`` holds (L_{Z_S}, L_S^-1) per LMI
    diagonal block with a sparse map, ``r1_state`` the rank-one blocks'
    stacked ones."""
    H = ii.r1.schur(*r1_state) if ii.r1 else np.zeros((ii.wcols.size,) * 2)
    _add_products(H, ii.lmi, lmi_state)
    return H


def solve(prob: SdpProblem, tol: float = 1e-8, max_iter: int = 100) -> SdpSolution:
    """Solve an :class:`SdpProblem`; see the module docstring for the method."""
    ii = _Internal(prob)
    n, p, ntot = ii.n, ii.p, ii.ntot
    A, AT, b, c = ii.A, ii.A.T, ii.b, ii.c
    wc, slots, nw = ii.wcols, ii.slots, ii.wcols.size
    if ntot == 0:
        status = "Optimal" if (p == 0 or np.max(np.abs(b)) <= tol) else "PrimalInfeasible"
        return SdpSolution(status, 0.0, 0.0, prob.unscalarize(np.zeros(prob.num_scalars)),
                           np.zeros(ii.total_rows), 0,
                           {"primal": 0.0, "dual": 0.0, "gap": 0.0})

    # start from xi times the identity of every cone in both x and z; xi
    # = max(1, |c| / sqrt(nu)) makes |z| match a large objective, so that
    # the first dual residual c - z is not the objective alone
    xi = max(1.0, _norm(c) / math.sqrt(max(ii.nu, 1)))
    x = np.zeros(ntot)
    for blk in ii.psd + ii.slot_blocks:
        x[blk.sl] = np.where(blk.ti == blk.tj, xi, 0.0)
    x[ii.lp] = xi
    z = x.copy()
    lam = np.zeros(p)
    tau = kappa = 1.0
    nu1 = ii.nu + 1.0
    mu0 = (x @ z + tau * kappa) / nu1
    norm_b = 1.0 + _norm(b)
    norm_c = 1.0 + _norm(c)
    stacks = ii.stacks  # ordinary blocks first, then LMI slots
    n_ord = 1 if ii.psd else 0
    r1_stack = ii.r1.stack if ii.r1 else None

    def finish(status: str, iters: int, res: dict) -> SdpSolution:
        zero = np.zeros(ntot)
        xs, zs = zero, zero  # vectors to read the LMI slots from
        if status in ("Optimal", "IterLimit", "NumericalTrouble") and tau > 1e-300:
            xs, zs = x / tau, z / tau
            xm = ii.model_x(xs)
            lm = ii.model_lam(lam / tau)
            pv = float(prob.objective @ xm)
            dv = float(prob.b @ lm)
        elif status == "PrimalInfeasible":
            s = b @ lam
            xs = x / s if s > 0 else x
            lm = ii.model_lam(lam / s if s > 0 else lam)
            xm = np.zeros(prob.num_scalars)
            pv = dv = float("nan")
        elif status == "DualInfeasible":
            s = -(c @ x)
            zs = z / s if s > 0 else z
            xm = ii.model_x(x / s if s > 0 else x)
            lm = np.zeros(ii.total_rows)
            pv = dv = float("nan")
        else:
            xm = np.zeros(prob.num_scalars)
            lm = np.zeros(ii.total_rows)
            pv = dv = float("nan")
        return SdpSolution(status, pv, dv, prob.unscalarize(xm), lm, iters, res,
                           ii.lmi_mats(zs), ii.lmi_mats(xs))

    def cone_factors(xv, zv):
        """Per stack, the blocks' X and the plain Cholesky factors of their
        X and their Z, (2, k, D, D), bordered by I; None if any fails."""
        out = []
        for st in stacks:
            XZ = st.mats(xv, zv) + st.eye
            L = _chol(XZ)
            if L is None:
                return None
            out.append((XZ[0], L))
        return out

    def sym_products(st, scal_st, v, out):
        """out <- sym(Z^-1 V X) for the blocks of stack ``st``."""
        X, Zinv, _ = scal_st
        G = Zinv @ st.mats(v)[0] @ X
        st.put(out, 0.5 * (G + G.swapaxes(-1, -2)))

    facs = cone_factors(x, z)
    res = {"primal": float("inf"), "dual": float("inf"), "gap": float("inf")}
    stalls = 0
    for it in range(1, max_iter + 1):
        # scaling data at the current iterate, from the accepted factors:
        # per stack X, Z^-1 and the inverse factors of X and Z, which bound
        # the predictor's and the corrector's steps, and per block the
        # factors its part of M or H is built from (for the LMI slots X is
        # Z_S and Z^-1 is S^-1; the rank-one slots keep them stacked)
        scal = []  # (X, Zinv, Linv) stacks
        states = []  # (L_X, L_Z^-1) per block, per stack
        for st, (X, L) in zip(stacks, facs):
            Linv = _tri_inv(L)
            scal.append((X, Linv[1].swapaxes(-1, -2) @ Linv[1], Linv))
            states.append((L[0], Linv[1]) if st is r1_stack else st.factors(L, Linv))

        r_p = A @ x - b * tau
        r_d = -(AT @ lam) + c * tau - z
        if nw:
            # the LMI rows S - F(w) = 0 and the w rows c_w tau - B^T lam
            # - F*(Z_S) = 0; the slots have no row of their own in r_d
            zw = ii.lmi_adjoint(x[slots])
            r_s = ii.lmi_map(x[wc]) - z[slots]  # F(w) - S
            r_d[slots] = 0.0
            r_d[wc] -= zw
        r_g = float(b @ lam - c @ x - kappa)
        mu = (x @ z + tau * kappa) / nu1

        # r_p / tau = A (x / tau) - b and -r_d / tau = A^T (lam / tau)
        # + z / tau - c: the stop test reads its residuals off them
        norm_rp = _norm(r_p)
        norm_pr = math.hypot(norm_rp, _norm(r_s)) if nw else norm_rp
        pv = float(c @ x / tau)
        dv = float(b @ lam / tau)
        norm_rd = _norm(r_d)
        pres = norm_pr / (tau * norm_b)
        dres = norm_rd / (tau * norm_c)
        gap = abs(pv - dv) / (1.0 + abs(pv) + abs(dv))
        res = {"primal": pres, "dual": dres, "gap": gap}
        if max(pres, dres, gap) <= tol:
            return finish("Optimal", it - 1, res)

        if kappa > 1e4 * tau:  # likely ray: judge certificate quality
            blam = float(b @ lam)
            cx = float(c @ x)
            if blam > 0:
                ray = AT @ lam + z
                if nw:
                    ray[slots] = 0.0
                    ray[wc] += zw
                if _norm(ray) <= 1e-7 * blam:
                    return finish("PrimalInfeasible", it - 1, res)
            if cx < 0:
                ax = _norm(A @ x)
                if nw:
                    ax = math.hypot(ax, _norm(r_s))
                if ax <= 1e-7 * (-cx):
                    return finish("DualInfeasible", it - 1, res)
            if mu < 1e-12 * mu0:
                return finish("NumericalTrouble", it - 1, res)
        elif mu < 1e-14 * mu0 and tau < 1e-8:
            return finish("NumericalTrouble", it - 1, res)

        # H over the LMI blocks, then the reduced Schur matrix
        # M = A_G W A_G^T + B H^-1 B^T over the equality rows; a solve with
        # either is two products with the inverse of its Cholesky factor
        if nw:
            Hw = _lmi_schur(ii, states[n_ord] if ii.lmi else [], states[-1])
            LH = _chol_jitter(Hw)
            if LH is None:
                return finish("NumericalTrouble", it - 1, res)
            LHinv = _tri_inv(LH)
        x_lp, z_lp = x[ii.lp], z[ii.lp]
        d_lp = x_lp / z_lp
        if p:
            M = _schur(ii, states[0] if n_ord else [], d_lp)
            if nw:
                U = LHinv @ ii.BT
                M += U.T @ U
            LM = _chol_jitter(M)
            if LM is None:
                return finish("NumericalTrouble", it - 1, res)
            LMinv = _tri_inv(LM)

        def m_solve(r):
            if p == 0:
                return r
            return LMinv.T @ (LMinv @ r)

        def h_solve(r):
            return LHinv.T @ (LHinv @ r)

        def w_apply(v):
            out = np.zeros_like(v)
            if n_ord:
                sym_products(stacks[0], scal[0], v, out)
            out[ii.lp] = d_lp * v[ii.lp]
            if nw:
                out[wc] = h_solve(v[wc])
            return out

        def lmi_apply(v_slots):
            """E(V) = sym(Z_S V S^-1) on the LMI slots."""
            full = np.zeros(ntot)
            full[slots] = v_slots
            out = np.zeros(ntot)
            for st, scal_st in zip(stacks[n_ord:], scal[n_ord:]):
                sym_products(st, scal_st, full, out)
            return out[slots]

        # An LMI slot's Newton rows: dS = F(dw) + r_s and dZ_S = rc_S - E(dS).
        # The w rows then read  H dw = g_w + (B^T dlam - c_w dtau - r_w)
        # with g_w = F*(rc_S - E(r_s)),  so w enters the elimination below as
        # a column with W = H^-1 and rc_w = H^-1 g_w.  E(dS) is applied to dS
        # itself: summing dw_a E(F_a) would cancel, each E(F_a) carrying S^-1.
        if nw:
            Er_s = lmi_apply(r_s)

        def with_lmi(rc):
            """rc with its w part set; g_w (empty without LMI blocks)."""
            g_w = ii.lmi_adjoint(rc[slots] - Er_s) if nw else np.zeros(0)
            if nw:
                rc[wc] = h_solve(g_w)
            return rc, g_w

        def lmi_slots(d, rc):
            """Fill in the slots' (dZ_S, dS) from dw; w has no dual slack."""
            dx, _, dz, _, _ = d
            dS = ii.lmi_map(dx[wc]) + r_s
            dz[slots] = dS
            dz[wc] = 0.0
            dx[slots] = rc[slots] - lmi_apply(dS)
            return d

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
        # fraction of |r_p|, or the w rows by more than a fraction of |r_d|,
        # or of the residual that the stop test accepts; rows are weighted
        # by these thresholds, so a weighted residual of norm 1 meets both
        refine_above = _REFINE_FRAC * max(norm_rp, tol * tau * norm_b)
        refine_w = _REFINE_FRAC * max(norm_rd, tol * tau * norm_c)
        weight = np.concatenate([np.full(p + 1, 1.0 / refine_above),
                                 np.full(nw, 1.0 / refine_w)])
        H_ext = Hw.astype(np.longdouble) if nw else None
        zero = np.zeros(ntot)

        def rows(d):
            """The weighted primal, gap and w rows (A dx - b dtau, b.dlam -
            c.dx - dkap, H dw + dz_w) of a direction.  H dw is summed in
            extended precision: near a degenerate optimum |H| |dw| exceeds
            the residual sought by more than 1 / eps."""
            dx, dlam, dz, dtau, dkap = d
            parts = [A @ dx - b * dtau, [float(b @ dlam) - float(c @ dx) - dkap]]
            if nw:
                parts.append((H_ext @ dx[wc] + dz[wc]).astype(float))
            return weight * np.concatenate(parts)

        def correct(e):
            """The factored solve's direction for weighted residual rows e,
            and its weighted rows."""
            u = e / weight
            rc_fix = zero
            if nw:
                rc_fix = np.zeros(ntot)
                rc_fix[wc] = h_solve(u[p + 1:])
            fix = lin_solve(-u[:p], -u[p], rc_fix, 0.0, zero, zero)
            return fix, rows(fix)

        def newton(rc_g, r_tau):
            rc, g_w = rc_g
            d = lin_solve(r_p, r_g, rc, r_tau, r_d, WRd)
            # The dual, scaling and tau-kappa rows hold by construction; the
            # primal and gap rows carry the Schur solve's error and the w
            # rows (H dw + dz_w = g_w) H's.  Those are refined by GMRES.
            e = weight * np.concatenate([-r_p, [-r_g], g_w]) - rows(d)
            if max(_norm(e[:p]), _norm(e[p + 1:])) > 1.0:
                coef, fixes = _gmres(correct, e, _REFINE_PASSES)
                d = tuple(u + sum(a * f[i] for a, f in zip(coef, fixes))
                          for i, u in enumerate(d))
            return lmi_slots(d, rc) if nw else d

        xz_lp = np.concatenate((x_lp, z_lp))

        def step_bound(dx, dz, dtau, dkap):
            """The largest step inside the cones along a direction, and the
            direction's (dX, dZ) per stack."""
            a = 1e10
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkap < 0:
                a = min(a, -kappa / dkap)
            if ii.lp.size:
                lo = float((np.concatenate((dx[ii.lp], dz[ii.lp])) / xz_lp).min())
                if lo < 0:
                    a = min(a, -1.0 / lo)
            reads = [st.mats(dx, dz) for st in stacks]
            for (_, _, Linv), dXZ in zip(scal, reads):
                a = min(a, _psd_step_limit(Linv, dXZ))
            return a, reads

        # predictor (affine scaling direction)
        rc_aff = with_lmi(-x)
        dxa, dla, dza, dta, dka = newton(rc_aff, -tau * kappa)
        a_aff, reads = step_bound(dxa, dza, dta, dka)
        a_aff = min(1.0, a_aff)
        mu_aff = ((x + a_aff * dxa) @ (z + a_aff * dza)
                  + (tau + a_aff * dta) * (kappa + a_aff * dka)) / nu1
        sigma = (max(mu_aff, 0.0) / mu) ** 3
        sigma = min(max(sigma, 1e-8), 1.0 - 1e-8)

        # corrector (combined direction)
        rc = np.zeros(ntot)
        for st, (X, Zinv, _), (dX, dZ) in zip(stacks, scal, reads):
            corr = Zinv @ dZ @ dX
            tgt = sigma * mu * Zinv - X - 0.5 * (corr + corr.swapaxes(-1, -2))
            st.put(rc, 0.5 * (tgt + tgt.swapaxes(-1, -2)))
        if ii.lp.size:
            rc[ii.lp] = (sigma * mu - x_lp * z_lp - dxa[ii.lp] * dza[ii.lp]) / z_lp
        r_tau = sigma * mu - tau * kappa - dta * dka

        dx, dlam, dz, dtau, dkap = newton(with_lmi(rc), r_tau)
        alpha = min(1.0, 0.99 * step_bound(dx, dz, dtau, dkap)[0])
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
