"""Data model for linear semidefinite programs in equality form.

A problem is

    minimize    <c, x>
    subject to  A x = b,   x in K,

where x is the concatenation of scalarized block variables and K is a
product of cones:

* ``PsdBlock(s)`` -- an s-by-s symmetric PSD matrix.  Its scalarization is
  the lower triangle in row-major order: (0,0), (1,0), (1,1), (2,0), ...
  A linear functional with coefficient ``a`` on scalar slot (i,j), i > j,
  means ``a * X[i, j]`` counted once (X is symmetric, the two mirror
  entries are a single variable).  A nonnegative scalar is a
  ``PsdBlock(1)``; a free scalar is the difference of two of them.
* ``LmiBlock``      -- a vector w of unconstrained scalars subject to a
  linear matrix inequality S(w) = sum_a w_a F_a >= 0, S block diagonal.
  There is no constant term: moment and localizing matrices are linear in
  the moments.  Each diagonal block is given by a sparse map from w to its
  entries, in the PsdBlock scalarization (entry values, not functionals),
  or, when every F_a of the block has rank one, F_a = q_a p_a p_a^T, by
  the rows p_a and the scalars q_a (a :class:`RankOneMap`).

Sparse matrices (the equality rows, the LMI maps) are :class:`SparseRows`:
their nonzeros as numpy arrays in row-major order.

Constraints and the objective are stored over this common scalar indexing.
The conic dual of an LmiBlock is a PSD matrix Z_S per diagonal block, tied
to the block's columns of the equality rows by  B^T lam + F*(Z_S) = c_w,
with F*(Z)_a = <F_a, Z>.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True, eq=False)
class SparseRows:
    """A sparse matrix as the rows, columns and values of its nonzeros,
    each (row, column) pair once.

    A product adds the terms of each output entry in the order the
    nonzeros are stored, starting from zero, so repeated products are the
    same floating-point sums.  The builder stores them in row-major order.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    shape: tuple

    @classmethod
    def from_dense(cls, a) -> "SparseRows":
        a = np.atleast_2d(np.asarray(a, dtype=float))
        rows, cols = np.nonzero(a)
        return cls(rows, cols, a[rows, cols], a.shape)

    @property
    def nnz(self) -> int:
        return self.vals.size

    @property
    def T(self) -> "SparseRows":
        """The transpose; its entries stay in this matrix's order, so a
        product with it sums each output entry in that order."""
        return SparseRows(self.cols, self.rows, self.vals, self.shape[::-1])

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.vals * x[self.cols], self.shape[0])


@dataclass(frozen=True, eq=False)
class RankOneMap:
    """A diagonal block P^T diag(q w) P of an LMI, whose constraint matrices
    F_a = q_a p_a p_a^T have rank one: ``P`` is (nvars, dim) with rows p_a,
    ``q`` is (nvars,).  ``shape`` is that of the equivalent sparse map."""

    P: np.ndarray
    q: np.ndarray

    @property
    def shape(self) -> tuple:
        n, d = self.P.shape
        return (d * (d + 1) // 2, n)


@dataclass(frozen=True)
class PsdBlock:
    dim: int

    @property
    def scalar_size(self) -> int:
        return self.dim * (self.dim + 1) // 2


@dataclass(frozen=True, eq=False)
class LmiBlock:
    """Free vector w of length ``nvars`` with S(w) = sum_a w_a F_a >= 0.

    ``dims`` are the sizes of S's diagonal blocks; ``maps[i]`` is a
    (dims[i] (dims[i] + 1) / 2, nvars) :class:`SparseRows` taking w to the
    lower triangle, row-major, of diagonal block i, or a
    :class:`RankOneMap`.
    """

    nvars: int
    dims: tuple
    maps: tuple

    @property
    def scalar_size(self) -> int:
        return self.nvars

    def matrices(self, w: np.ndarray) -> list[np.ndarray]:
        """The diagonal blocks of S(w)."""
        return [(F.P.T * (F.q * w)) @ F.P if isinstance(F, RankOneMap)
                else tri_to_sym(d, F @ w) for d, F in zip(self.dims, self.maps)]

    def adjoint(self, mats) -> np.ndarray:
        """F*(Z): the vector <F_a, Z> over the diagonal blocks Z."""
        out = np.zeros(self.nvars)
        for d, F, Z in zip(self.dims, self.maps, mats):
            if isinstance(F, RankOneMap):  # q_a p_a^T Z p_a
                out += F.q * ((F.P @ np.asarray(Z)) * F.P).sum(axis=1)
                continue
            ti, tj = tri_indices(d)
            out += F.T @ (np.where(ti == tj, 1.0, 2.0) * np.asarray(Z)[ti, tj])
        return out


Block = PsdBlock | LmiBlock


@lru_cache(maxsize=None)
def tri_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays of the lower triangle in row-major order,
    cached per dimension and read-only."""
    i, j = np.tril_indices(dim)
    # np.tril_indices is already row-major over rows: (0,0),(1,0),(1,1),...
    i.flags.writeable = j.flags.writeable = False
    return i, j


def tri_to_sym(dim: int, vals: np.ndarray) -> np.ndarray:
    """The symmetric dim x dim matrix whose lower triangle, row-major, is
    ``vals``."""
    m = np.zeros((dim, dim))
    ti, tj = tri_indices(dim)
    m[ti, tj] = m[tj, ti] = vals
    return m


def tri_index(i: int, j: int) -> int:
    """Scalar slot of entry (i, j), i >= j, within one PSD block."""
    if j > i:
        i, j = j, i
    return i * (i + 1) // 2 + j


class SdpProblem:
    """Immutable-ish container: blocks, objective vector, equality rows."""

    def __init__(self, blocks, objective, a_rows, b):
        self.blocks: list[Block] = list(blocks)
        self.num_scalars = sum(bl.scalar_size for bl in self.blocks)
        c = np.asarray(objective, dtype=float).ravel()
        if c.shape != (self.num_scalars,):
            raise ValueError(
                f"objective length {c.size} != scalar count {self.num_scalars}"
            )
        self.objective = c
        A = (a_rows if isinstance(a_rows, SparseRows)
             else SparseRows.from_dense(a_rows))
        if A.shape[1] != self.num_scalars and A.shape[0] > 0:
            raise ValueError(
                f"constraint width {A.shape[1]} != scalar count {self.num_scalars}"
            )
        self.A = A
        self.b = np.asarray(b, dtype=float).ravel()
        if self.b.shape[0] != A.shape[0]:
            raise ValueError("rhs length != number of constraint rows")

    # -- layout helpers ---------------------------------------------------

    def block_slices(self) -> list[slice]:
        out, off = [], 0
        for bl in self.blocks:
            out.append(slice(off, off + bl.scalar_size))
            off += bl.scalar_size
        return out

    def unscalarize(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a scalar vector into per-block values (PSD -> symmetric matrix)."""
        vals = []
        for bl, sl in zip(self.blocks, self.block_slices()):
            seg = np.asarray(x[sl], dtype=float)
            vals.append(tri_to_sym(bl.dim, seg) if isinstance(bl, PsdBlock)
                        else seg)
        return vals

    def scalarize(self, block_values) -> np.ndarray:
        """Inverse of :meth:`unscalarize`."""
        segs = []
        for bl, val in zip(self.blocks, block_values):
            v = np.asarray(val, dtype=float)
            if isinstance(bl, PsdBlock):
                v = 0.5 * (v + v.T)
                ti, tj = tri_indices(bl.dim)
                segs.append(v[ti, tj])
            else:
                segs.append(v.ravel())
        return np.concatenate(segs) if segs else np.zeros(0)

    def functional_as_matrices(self, coeffs: np.ndarray) -> list[np.ndarray]:
        """Represent a scalar functional as true symmetric block matrices.

        For a PSD block, coefficient a on off-diagonal slot (i,j) becomes
        matrix entries a/2 at (i,j) and (j,i), so that <F, X> equals the
        counted-once functional value.
        """
        out = []
        for bl, sl in zip(self.blocks, self.block_slices()):
            seg = np.asarray(coeffs[sl], dtype=float)
            if isinstance(bl, PsdBlock):
                ti, tj = tri_indices(bl.dim)
                seg = tri_to_sym(bl.dim, np.where(ti != tj, 0.5 * seg, seg))
            out.append(seg)
        return out


@dataclass
class SdpSolution:
    status: str  # Optimal | PrimalInfeasible | DualInfeasible | NumericalTrouble | IterLimit
    primal_value: float
    dual_value: float
    primal_point: list = field(default_factory=list)  # per-block values
    dual_point: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: int = 0
    residuals: dict = field(default_factory=dict)  # primal / dual / gap
    # per diagonal block of each LmiBlock, in block order: the slack S the
    # solver kept inside the cone (S = F(w) up to the primal residual, so
    # F(w) may leave the cone by that much) and the dual matrix Z_S
    lmi_slacks: list = field(default_factory=list)
    lmi_duals: list = field(default_factory=list)


def check_solution(prob: SdpProblem, sol: SdpSolution) -> dict:
    """Recompute residuals from the returned points, independent of the solver.

    Returns raw (unnormalized) measures:
      primal      -- inf-norm of A x - b, and, when the solution carries the
                     solver's LMI slacks S, of S - F(w)
      dual        -- worst cone violation of the dual slack c - A^T lam; on
                     an LmiBlock, of Z_S and the inf-norm residual of
                     B^T lam + F*(Z_S) = c_w
      gap         -- |<c, x> - <b, lam>|
      gap_rel     -- gap / (1 + |<c, x>| + |<b, lam>|), the gap ``solve`` tests
      primal_cone -- worst cone violation of x; on an LmiBlock, of F(w)
                     built from the returned w
    """
    x = prob.scalarize(sol.primal_point)
    lam = np.asarray(sol.dual_point, dtype=float)
    r_eq = prob.A @ x - prob.b
    primal = float(np.max(np.abs(r_eq))) if r_eq.size else 0.0

    def psd_violation(mats) -> float:
        return max((max(0.0, -float(np.linalg.eigvalsh(m)[0]))
                    for m in mats if len(m)), default=0.0)

    slack = prob.objective - prob.A.T @ lam
    slacks, duals = iter(sol.lmi_slacks), iter(sol.lmi_duals)
    worst_x = worst_z = 0.0
    for bl, val, sv in zip(prob.blocks, sol.primal_point,
                           prob.functional_as_matrices(slack)):
        if not bl.scalar_size:
            continue
        if isinstance(bl, PsdBlock):
            wx, wz = psd_violation([val]), psd_violation([sv])
        else:  # LmiBlock
            F = bl.matrices(np.asarray(val, dtype=float))
            Z = [next(duals) for _ in F]
            if sol.lmi_slacks:
                primal = max([primal] + [float(np.max(np.abs(next(slacks) - f)))
                                         for f in F])
            wx = psd_violation(F)
            wz = max(psd_violation(Z),
                     float(np.max(np.abs(sv - bl.adjoint(Z)))))
        worst_x, worst_z = max(worst_x, wx), max(worst_z, wz)

    pv, dv = float(prob.objective @ x), float(prob.b @ lam)
    return {
        "primal": primal,
        "dual": worst_z,
        "gap": abs(pv - dv),
        "gap_rel": abs(pv - dv) / (1.0 + abs(pv) + abs(dv)),
        "primal_cone": worst_x,
    }
