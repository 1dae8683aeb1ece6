"""Incremental construction of equality-form SDPs.

``SdpBuilder`` hands out block handles whose entries are addressed by
global scalar indices (see :mod:`.model` for the layout), collects sparse
equality rows and an objective, and finally assembles an
:class:`~.model.SdpProblem`.  A row written by hand (a normalization, a
slack, an objective) is a ``LinExpr`` affine expression; a compiler hands
over many rows at once as :class:`~.model.SparseRows` (``add_rows``).  An
LMI block's handle collects the diagonal blocks of its matrix inequality,
each given by ``add_matrix`` as the ``SparseRows`` map from the block's own
variables to the block's lower triangle, or as a ``RankOneMap``.
"""

from __future__ import annotations

import numpy as np

from .model import (LmiBlock, PsdBlock, RankOneMap, SdpProblem, SparseRows,
                    tri_index)


class LinExpr:
    """Sparse affine expression  sum_i coeffs[i] * x_i + const."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs=None, const=0.0):
        self.coeffs: dict[int, float] = dict(coeffs) if coeffs else {}
        self.const = float(const)

    @classmethod
    def term(cls, index: int, coef: float = 1.0) -> "LinExpr":
        return cls({index: float(coef)})

    @classmethod
    def constant(cls, value: float) -> "LinExpr":
        return cls(None, value)

    def add_term(self, index: int, coef: float) -> None:
        if coef == 0.0:
            return
        new = self.coeffs.get(index, 0.0) + coef
        if new == 0.0:
            self.coeffs.pop(index, None)
        else:
            self.coeffs[index] = new

    def __iadd__(self, other: "LinExpr") -> "LinExpr":
        for k, v in other.coeffs.items():
            self.add_term(k, v)
        self.const += other.const
        return self

    def __add__(self, other: "LinExpr") -> "LinExpr":
        out = LinExpr(self.coeffs, self.const)
        out += other
        return out

    def __sub__(self, other: "LinExpr") -> "LinExpr":
        out = LinExpr(self.coeffs, self.const)
        for k, v in other.coeffs.items():
            out.add_term(k, -v)
        out.const -= other.const
        return out

    def scaled(self, factor: float) -> "LinExpr":
        if factor == 0.0:
            return LinExpr()
        return LinExpr({k: v * factor for k, v in self.coeffs.items()},
                       self.const * factor)


class PsdHandle:
    """Addresses the entries of one PSD block."""

    __slots__ = ("offset", "dim")

    def __init__(self, offset: int, dim: int):
        self.offset = offset
        self.dim = dim

    def entry_index(self, i: int, j: int) -> int:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i},{j}) outside {self.dim}x{self.dim} block")
        return self.offset + tri_index(i, j)

    def entry(self, i: int, j: int, coef: float = 1.0) -> LinExpr:
        return LinExpr.term(self.entry_index(i, j), coef)


class VecHandle:
    """Addresses consecutive scalars: a run of nonnegative ones, or the free
    vector of an LMI block."""

    __slots__ = ("offset", "dim")

    def __init__(self, offset: int, dim: int):
        self.offset = offset
        self.dim = dim

    def index(self, i: int = 0) -> int:
        if not 0 <= i < self.dim:
            raise IndexError(f"entry {i} outside length-{self.dim} block")
        return self.offset + i

    def entry(self, i: int = 0, coef: float = 1.0) -> LinExpr:
        return LinExpr.term(self.index(i), coef)


class LmiHandle(VecHandle):
    """Addresses the free vector w of one LMI block and collects the
    diagonal blocks of its inequality S(w) >= 0."""

    __slots__ = ("dims", "maps")

    def __init__(self, offset: int, dim: int):
        super().__init__(offset, dim)
        self.dims: list[int] = []
        self.maps: list[SparseRows | RankOneMap] = []

    def add_matrix(self, dim: int, F: SparseRows | RankOneMap) -> None:
        """Append a dim x dim diagonal block; ``F`` takes this block's
        variables to the block's lower triangle, its nonzeros in row-major
        order, or is the block's rank-one data."""
        if F.shape != (dim * (dim + 1) // 2, self.dim):
            raise ValueError(f"LMI map of shape {F.shape} for a {dim} x {dim} "
                             f"block over {self.dim} variables")
        self.dims.append(dim)
        self.maps.append(F)


class SdpBuilder:
    def __init__(self):
        self.blocks = []
        self.num_scalars = 0
        self.rows: list[tuple[np.ndarray, np.ndarray]] = []  # (cols, vals)
        self.rhs: list[float] = []
        self._objective: dict[int, float] = {}

    # -- variables --------------------------------------------------------

    def psd_block(self, dim: int) -> PsdHandle:
        h = PsdHandle(self.num_scalars, dim)
        self.blocks.append(PsdBlock(dim))
        self.num_scalars += dim * (dim + 1) // 2
        return h

    def nonneg_block(self, dim: int) -> VecHandle:
        """dim nonnegative scalars, each a 1 x 1 PSD block.  A free scalar
        is written as ``h.entry(0) - h.entry(1)`` of a pair."""
        h = VecHandle(self.num_scalars, dim)
        self.blocks.extend([PsdBlock(1)] * dim)
        self.num_scalars += dim
        return h

    def lmi_block(self, nvars: int) -> LmiHandle:
        """A free vector whose matrix inequality is added on the handle."""
        h = LmiHandle(self.num_scalars, nvars)
        self.blocks.append(h)  # becomes an LmiBlock in build()
        self.num_scalars += nvars
        return h

    # -- rows and objective -------------------------------------------------

    def add_equality(self, expr: LinExpr, rhs: float = 0.0) -> None:
        """Impose  expr == rhs  (the expression's constant moves to the rhs)."""
        cols = sorted(expr.coeffs)
        self.rows.append((np.array(cols, dtype=np.intp),
                          np.array([expr.coeffs[k] for k in cols], dtype=float)))
        self.rhs.append(float(rhs) - expr.const)

    def add_rows(self, rows: SparseRows, rhs: np.ndarray) -> None:
        """Impose  rows @ x == rhs, ``rows`` in row-major order over the
        first columns."""
        cut = np.searchsorted(rows.rows, np.arange(rows.shape[0] + 1)).tolist()
        self.rows += [(rows.cols[a:b], rows.vals[a:b])
                      for a, b in zip(cut[:-1], cut[1:])]
        self.rhs.extend(rhs.tolist())

    def set_objective(self, expr: LinExpr) -> None:
        """Minimize the expression (its constant is dropped from the model)."""
        self._objective = dict(expr.coeffs)

    # -- assembly -----------------------------------------------------------

    def build(self) -> SdpProblem:
        n = self.num_scalars
        c = np.zeros(n)
        for k, v in self._objective.items():
            c[k] = v
        parts = [(np.zeros(0, dtype=np.intp), np.zeros(0))] + self.rows
        sizes = np.array([cols.size for cols, _ in self.rows], dtype=np.intp)
        A = SparseRows(np.repeat(np.arange(len(self.rows)), sizes),
                       np.concatenate([cols for cols, _ in parts]),
                       np.concatenate([vals for _, vals in parts]),
                       (len(self.rows), n))
        blocks = [LmiBlock(bl.dim, tuple(bl.dims), tuple(bl.maps))
                  if isinstance(bl, LmiHandle) else bl for bl in self.blocks]
        return SdpProblem(blocks, c, A, np.array(self.rhs, dtype=float))
