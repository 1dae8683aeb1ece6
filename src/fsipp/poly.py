"""Sparse multivariate polynomial arithmetic and calculus.

Polynomials are stored as exponent-vector -> float coefficient maps and are
immutable after construction.  Monomials compare under graded lexicographic
order (total degree first, ties broken lexicographically with the first
variable ranked highest); every module that indexes matrices by monomials
relies on this order being deterministic.
"""

from __future__ import annotations

import numpy as np


#: Degree reported for the zero polynomial.  A distinct sentinel (never an int).
ZERO_DEGREE = float("-inf")


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key realizing graded lex order: by total degree, then lexicographic
    with the first variable largest (1 < x2 < x1 < x2^2 < x1*x2 < x1^2 ...)."""
    return (sum(exponents), tuple(-e for e in exponents))


def ceil_half(deg) -> int:
    """ceil(deg / 2) of a polynomial's (nonnegative) degree."""
    return (int(deg) + 1) // 2


def _power(x, e: int):
    """x ** e, e >= 1, by repeated multiplication: one rule for floats and
    arrays, so that scalar and vectorized evaluation agree bit for bit
    (Python's ``**`` and numpy's differ in the last bit)."""
    out = x
    for _ in range(e - 1):
        out = out * x
    return out


def monomials_up_to(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent vectors in ``nvars`` variables of total degree <= degree,
    in graded lex order."""
    if degree < 0:
        return []
    out: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, pos: int) -> None:
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    for total in range(degree + 1):
        rec([], total, 0)
    return out


class Polynomial:
    """Sparse real polynomial in ``nvars`` variables.

    ``terms`` maps exponent tuples to nonzero float coefficients.  Zero
    coefficients are pruned at construction (exact comparison against 0.0, no
    epsilon pruning, so cancellation is exact only for exactly representable
    values).  Instances are immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "terms", "_degree")

    def __init__(self, nvars: int, terms: dict[tuple[int, ...], float] | None = None):
        if nvars < 1:
            raise ValueError("nvars must be positive")
        clean: dict[tuple[int, ...], float] = {}
        for expo, coef in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError(f"exponent vector {expo} does not have length {nvars}")
            if any(e < 0 for e in expo):
                raise ValueError(f"negative exponent in {expo}")
            coef = float(coef)
            if coef != 0.0:
                clean[expo] = clean.get(expo, 0.0) + coef
                if clean[expo] == 0.0:
                    del clean[expo]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(
            self, "_degree",
            max((sum(e) for e in clean), default=ZERO_DEGREE),
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, value: float) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Polynomial":
        """The coordinate polynomial x_{i+1}."""
        expo = [0] * nvars
        expo[i] = 1
        return cls(nvars, {tuple(expo): 1.0})

    # -- basic queries -------------------------------------------------------

    @property
    def degree(self):
        """Total degree; ``ZERO_DEGREE`` (-inf) for the zero polynomial."""
        return self._degree

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exponents: tuple[int, ...]) -> float:
        return self.terms.get(tuple(exponents), 0.0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], float]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- arithmetic ----------------------------------------------------------

    def _check_same_vars(self, other: "Polynomial") -> None:
        if self.nvars != other.nvars:
            raise ValueError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            terms[expo] = terms.get(expo, 0.0) + coef
        return Polynomial(self.nvars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        terms = dict(self.terms)
        for expo, coef in other.terms.items():
            terms[expo] = terms.get(expo, 0.0) - coef
        return Polynomial(self.nvars, terms)

    def __neg__(self) -> "Polynomial":
        return self.scale(-1.0)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_vars(other)
        terms: dict[tuple[int, ...], float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(i + j for i, j in zip(ea, eb))
                terms[key] = terms.get(key, 0.0) + ca * cb
        return Polynomial(self.nvars, terms)

    def scale(self, factor: float) -> "Polynomial":
        factor = float(factor)
        return Polynomial(
            self.nvars, {e: c * factor for e, c in self.terms.items()}
        )

    def power(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.nvars, 1.0)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- evaluation ----------------------------------------------------------

    def __call__(self, point) -> float:
        return self.eval(point)

    def eval(self, point) -> float:
        """Evaluate at a point (sequence of ``nvars`` reals)."""
        if len(point) != self.nvars:
            raise ValueError(
                f"point length {len(point)} != nvars {self.nvars}"
            )
        total = 0.0
        for expo, coef in self.terms.items():
            prod = coef
            for x, e in zip(point, expo):
                if e:
                    prod *= _power(float(x), e)
            total += prod
        return total

    def eval_many(self, points) -> "np.ndarray":
        """Vectorized evaluation on an (N, nvars) array; returns shape (N,)."""
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.nvars:
            raise ValueError(f"expected (N, {self.nvars}) array")
        out = np.zeros(pts.shape[0])
        for expo, coef in self.terms.items():
            term = np.full(pts.shape[0], coef)
            for i, e in enumerate(expo):
                if e:
                    term *= _power(pts[:, i], e)
            out += term
        return out

    def eval_raster(self, axes) -> "np.ndarray":
        """``eval_many`` on ``indexset.raster``'s points of the 1-D ``axes``, bit for
        bit: the same terms in the same order, each axis's powers broadcast."""
        if len(axes) != self.nvars:
            raise ValueError(f"expected {self.nvars} axes")
        grid = np.ix_(*(np.asarray(a, dtype=float) for a in axes))
        shape = tuple(x.size for x in grid)
        out = 0.0  # grows to the raster's shape only as the terms need it
        for expo, coef in self.terms.items():
            term = coef
            for x, e in zip(grid, expo):
                term = term * _power(x, e) if e else term
            out = out + term
        out = out if np.shape(out) == shape else np.broadcast_to(out, shape).copy()
        return out.ravel()

    def compose(self, args: list["Polynomial"]) -> "Polynomial":
        """Substitute args[i] for variable i; all args share a variable count."""
        if len(args) != self.nvars:
            raise ValueError("need one argument polynomial per variable")
        nv = args[0].nvars
        for a in args:
            if a.nvars != nv:
                raise ValueError("argument polynomials must share nvars")
        result = Polynomial.zero(nv)
        for expo, coef in self.terms.items():
            term = Polynomial.constant(nv, coef)
            for arg, e in zip(args, expo):
                if e:
                    term = term * arg.power(e)
            result = result + term
        return result

    # -- calculus ------------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        terms: dict[tuple[int, ...], float] = {}
        for expo, coef in self.terms.items():
            e = expo[i]
            if e:
                new = list(expo)
                new[i] = e - 1
                key = tuple(new)
                terms[key] = terms.get(key, 0.0) + coef * e
        return Polynomial(self.nvars, terms)

    def gradient(self) -> list["Polynomial"]:
        return [self.partial(i) for i in range(self.nvars)]

    def hessian(self) -> list[list["Polynomial"]]:
        grads = self.gradient()
        return [[grads[i].partial(j) for j in range(self.nvars)]
                for i in range(self.nvars)]

    def gradient_at(self, point) -> "np.ndarray":
        return np.array([g.eval(point) for g in self.gradient()])

    def hessian_at(self, point) -> "np.ndarray":
        H = self.hessian()
        return np.array([[H[i][j].eval(point) for j in range(self.nvars)]
                         for i in range(self.nvars)])

    # -- serialization -------------------------------------------------------

    def to_pairs(self) -> list[list]:
        """JSON encoding: list of [exponent-vector, coefficient] pairs in
        graded lex order."""
        return [[list(e), c] for e, c in self.sorted_terms()]

    @classmethod
    def from_pairs(cls, nvars: int, pairs) -> "Polynomial":
        terms: dict[tuple[int, ...], float] = {}
        for item in pairs:
            if len(item) != 2:
                raise ValueError(f"expected [exponents, coefficient], got {item!r}")
            expo, coef = item
            expo = tuple(int(e) for e in expo)
            if len(expo) != nvars:
                raise ValueError(
                    f"exponent vector {list(expo)} does not have length {nvars}"
                )
            terms[expo] = terms.get(expo, 0.0) + float(coef)
        return cls(nvars, terms)

    def __repr__(self) -> str:
        if self.is_zero():
            return f"Polynomial({self.nvars}, 0)"
        bits = []
        for expo, coef in self.sorted_terms():
            mono = "*".join(
                f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
                for i, e in enumerate(expo) if e
            )
            bits.append(f"{coef:+g}" + (f"*{mono}" if mono else ""))
        return f"Polynomial({self.nvars}, {' '.join(bits)})"


class BivariatePoly:
    """A polynomial p(x, y) stored as y-monomial -> Polynomial-in-x slices.

    Supports both partial evaluations: fixing y yields a Polynomial in x of
    degree <= d_x, fixing x yields a Polynomial in y of degree <= d_y.
    """

    __slots__ = ("n_x", "n_y", "slices", "d_x", "d_y")

    def __init__(self, n_x: int, n_y: int,
                 slices: dict[tuple[int, ...], Polynomial]):
        clean: dict[tuple[int, ...], Polynomial] = {}
        for yexp, px in slices.items():
            yexp = tuple(int(e) for e in yexp)
            if len(yexp) != n_y:
                raise ValueError(f"y-exponent {yexp} does not have length {n_y}")
            if px.nvars != n_x:
                raise ValueError("slice polynomial has wrong variable count")
            if not px.is_zero():
                clean[yexp] = px
        object.__setattr__(self, "n_x", n_x)
        object.__setattr__(self, "n_y", n_y)
        object.__setattr__(self, "slices", clean)
        object.__setattr__(
            self, "d_x",
            max((px.degree for px in clean.values()), default=ZERO_DEGREE),
        )
        object.__setattr__(
            self, "d_y",
            max((sum(e) for e in clean), default=ZERO_DEGREE),
        )

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BivariatePoly is immutable")

    @classmethod
    def from_joint(cls, joint: Polynomial, n_x: int, n_y: int) -> "BivariatePoly":
        """Split a polynomial in (x_1..x_{n_x}, y_1..y_{n_y}) into y-slices."""
        if joint.nvars != n_x + n_y:
            raise ValueError("joint polynomial has wrong variable count")
        buckets: dict[tuple[int, ...], dict[tuple[int, ...], float]] = {}
        for expo, coef in joint.terms.items():
            xexp, yexp = expo[:n_x], expo[n_x:]
            buckets.setdefault(yexp, {})[xexp] = coef
        return cls(n_x, n_y,
                   {yexp: Polynomial(n_x, terms) for yexp, terms in buckets.items()})

    def substitute_y(self, ypoint) -> Polynomial:
        """p(., y) for a fixed y; a Polynomial in x."""
        if len(ypoint) != self.n_y:
            raise ValueError(f"ypoint length {len(ypoint)} != n_y {self.n_y}")
        result = Polynomial.zero(self.n_x)
        for yexp, px in self.slices.items():
            weight = 1.0
            for v, e in zip(ypoint, yexp):
                if e:
                    weight *= _power(float(v), e)
            if weight != 0.0:
                result = result + px.scale(weight)
        return result

    def substitute_x(self, xpoint) -> Polynomial:
        """p(x, .) for a fixed x; a Polynomial in y."""
        if len(xpoint) != self.n_x:
            raise ValueError(f"xpoint length {len(xpoint)} != n_x {self.n_x}")
        terms = {yexp: px.eval(xpoint) for yexp, px in self.slices.items()}
        return Polynomial(self.n_y, terms)

    def eval(self, xpoint, ypoint) -> float:
        return self.substitute_x(xpoint).eval(ypoint)

    def to_joint(self) -> Polynomial:
        """Merge into a single polynomial in (x, y) variables."""
        terms: dict[tuple[int, ...], float] = {}
        for yexp, px in self.slices.items():
            for xexp, coef in px.terms.items():
                terms[xexp + yexp] = terms.get(xexp + yexp, 0.0) + coef
        return Polynomial(self.n_x + self.n_y, terms)

    def __repr__(self) -> str:
        return (f"BivariatePoly(n_x={self.n_x}, n_y={self.n_y}, "
                f"d_x={self.d_x}, d_y={self.d_y}, slices={len(self.slices)})")
