"""Incremental construction of equality-form SDPs.

``SdpBuilder`` hands out block handles whose entries are addressed by
global scalar indices (see :mod:`.model` for the layout), collects sparse
equality rows and an objective as ``LinExpr`` affine expressions, and
finally assembles an :class:`~.model.SdpProblem`.  An LMI block's handle
also collects the diagonal blocks of its matrix inequality, each entry a
``LinExpr`` over the block's own variables.
"""

from __future__ import annotations

import numpy as np

from .model import LmiBlock, PsdBlock, SdpProblem, SparseRows, tri_index


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

    def is_zero(self) -> bool:
        return not self.coeffs and self.const == 0.0


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
        self.maps: list[SparseRows] = []

    def add_matrix(self, dim: int, entries: dict) -> None:
        """Append a dim x dim diagonal block; ``entries`` maps (i, j),
        i >= j, to a LinExpr over this block's entries (constant zero)."""
        rows, cols, vals = [], [], []
        for (i, j), expr in entries.items():
            if expr.const != 0.0:
                raise ValueError("LMI entries are linear in w (no constant)")
            for k, v in expr.coeffs.items():
                rows.append(tri_index(i, j))
                cols.append(k - self.offset)
                vals.append(v)
        if cols and not 0 <= min(cols) <= max(cols) < self.dim:
            raise IndexError("LMI entry refers to a variable outside its block")
        order = np.lexsort((cols, rows))
        self.dims.append(dim)
        self.maps.append(SparseRows(np.array(rows, dtype=np.intp)[order],
                                    np.array(cols, dtype=np.intp)[order],
                                    np.array(vals, dtype=float)[order],
                                    (dim * (dim + 1) // 2, self.dim)))


class SdpBuilder:
    def __init__(self):
        self.blocks = []
        self._offset = 0
        self.rows: list[dict[int, float]] = []
        self.rhs: list[float] = []
        self._objective: dict[int, float] = {}

    # -- variables --------------------------------------------------------

    def psd_block(self, dim: int) -> PsdHandle:
        h = PsdHandle(self._offset, dim)
        self.blocks.append(PsdBlock(dim))
        self._offset += dim * (dim + 1) // 2
        return h

    def nonneg_block(self, dim: int) -> VecHandle:
        """dim nonnegative scalars, each a 1 x 1 PSD block.  A free scalar
        is written as ``h.entry(0) - h.entry(1)`` of a pair."""
        h = VecHandle(self._offset, dim)
        self.blocks.extend([PsdBlock(1)] * dim)
        self._offset += dim
        return h

    def lmi_block(self, nvars: int) -> LmiHandle:
        """A free vector whose matrix inequality is added on the handle."""
        h = LmiHandle(self._offset, nvars)
        self.blocks.append(h)  # becomes an LmiBlock in build()
        self._offset += nvars
        return h

    # -- rows and objective -------------------------------------------------

    def add_equality(self, expr: LinExpr, rhs: float = 0.0) -> None:
        """Impose  expr == rhs  (the expression's constant moves to the rhs)."""
        self.rows.append(dict(expr.coeffs))
        self.rhs.append(float(rhs) - expr.const)

    def set_objective(self, expr: LinExpr) -> None:
        """Minimize the expression (its constant is dropped from the model)."""
        self._objective = dict(expr.coeffs)

    # -- assembly -----------------------------------------------------------

    def build(self) -> SdpProblem:
        n = self._offset
        c = np.zeros(n)
        for k, v in self._objective.items():
            c[k] = v
        rows, cols, vals = [], [], []
        for r, row in enumerate(self.rows):
            for k in sorted(row):
                rows.append(r)
                cols.append(k)
                vals.append(row[k])
        A = SparseRows(np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                       np.array(vals, dtype=float), (len(self.rows), n))
        blocks = [LmiBlock(bl.dim, tuple(bl.dims), tuple(bl.maps))
                  if isinstance(bl, LmiHandle) else bl for bl in self.blocks]
        return SdpProblem(blocks, c, A, np.array(self.rhs, dtype=float))
