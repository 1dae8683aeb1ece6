"""The index set Y, one class per kind the routes tell apart: the interval
(Case1/Case3), a quadratic set (Case2/Case4) and a semialgebraic set
(General).  Each kind owns its generators, a point of Y, the audit's
``y_sweep``, its file form (``to_doc``) and ``minimum(h, sdp_tol)``: min h
over Y as (value, minimizers, certified), the package's one lower level,
by an exact oracle or by :func:`hierarchy_minimum`, the one order walk."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalTroubleError
from .extract import certify_and_extract
from .moment import MomentVarMap, _candidates
from .poly import Polynomial, ceil_half
from .sdp import SdpBuilder, solve


def ball_poly(m: int, r2: float) -> Polynomial:
    """r2 - |x|^2 in m variables."""
    terms = {(0,) * m: float(r2)}
    for i in range(m):
        terms[tuple(2 if j == i else 0 for j in range(m))] = -1.0
    return Polynomial(m, terms)


def raster(box, per_axis: int) -> np.ndarray:
    """The (per_axis^n, n) raster of a box given as n (lo, hi) pairs,
    first axis slowest."""
    axes = [np.linspace(lo, hi, per_axis) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


# minimizers closer than _MERGE (in z, on an ellipsoid) count once; on the
# interval, candidates within _TIE * (1 + |value|) of the least tie
_MERGE, _TIE = 1e-3, 1e-9


def minimize_on_semialgebraic(h: Polynomial, gens, k: int, k0: int,
                              sdp_tol: float = 1e-8):
    """Order k of the moment hierarchy for  min h(y) s.t. gens >= 0, its
    localizers at order k0: (status, bound, L, cert, atoms), the SDP's
    status, the relaxation's value (a lower bound up to the solver's
    accuracy, ROADMAP item 3), the optimal functional, and the
    flat-truncation certificate with its extracted atoms, both None unless
    extraction succeeds.  A status other than Optimal leaves the last four
    None; PrimalInfeasible (an empty index set) raises.
    The rank test's relative threshold is 1e-8, and the SDP is solved to a
    tenth of it when that is tighter than ``sdp_tol``: the moment matrix's
    vanishing singular values are of the size of the solver's residuals, so
    a rank threshold no larger than the solver tolerance would rest on
    rounding luck.
    """
    builder = SdpBuilder()
    mv = MomentVarMap(builder, h.nvars, k, gens)
    builder.add_equality(mv.lin((0,) * h.nvars), 1.0)
    builder.set_objective(mv.lin_poly(h))
    prob_sdp = builder.build()
    sol = solve(prob_sdp, tol=min(sdp_tol, 1e-9))
    if sol.status == "PrimalInfeasible":
        raise NumericalTroubleError(
            f"moment relaxation infeasible at order {k}: empty index set?")
    if sol.status != "Optimal":
        return sol.status, None, None, None, None
    L = mv.read_solution(prob_sdp, sol)
    d_half = max(ceil_half(h.degree), 1) if not h.is_zero() else 1
    cert, atoms = certify_and_extract(L, k=k, k0=k0, d_half=d_half,
                                      rel_tol=1e-8, gens=gens)
    return sol.status, float(sol.primal_value), L, cert, atoms


def hierarchy_minimum(h: Polynomial, gens, sdp_tol: float):
    """min h over Y = {gens >= 0} at the orders k_min = max(ceil(deg h / 2),
    k0) and k_min + 1, k0 = max ceil(deg q / 2) (at least 1) the
    localizers' order: the package's one walk over lower-level orders.
    The value is the best bound of the orders that end Optimal
    (:class:`NumericalTroubleError` naming each status when none does);
    the first order that certifies gives its atoms, certified, else the
    last Optimal order's point L(y)/L(1), uncertified (maybe not a
    minimizer)."""
    k0 = max([ceil_half(q.degree) for q in gens], default=1) or 1
    k_min = max(ceil_half(h.degree), k0, 1)
    orders = [k_min, k_min + 1]
    best, last_L, failed = -np.inf, None, []
    for k in orders:
        status, bound, L, cert, atoms = minimize_on_semialgebraic(
            h, gens, k, k0, sdp_tol=sdp_tol)
        if status != "Optimal":
            failed.append(f"order {k}: {status}")
            continue
        best = max(best, bound)
        last_L = L
        if cert is not None:
            return best, [pt for pt, _ in atoms], True
    if last_L is None:
        raise NumericalTroubleError(
            f"no lower-level order from {k_min} in {orders} ended "
            f"Optimal ({'; '.join(failed) or 'none solved'})")
    return best, [last_L.point()], False


@dataclass(frozen=True)
class Interval:
    """Y = [-1, 1] in a single parameter."""

    @property
    def n_y(self) -> int:
        return 1

    def as_generators(self) -> list[Polynomial]:
        """Polynomials q with Y = {y : q(y) >= 0 for all q}."""
        return [ball_poly(1, 1.0)]

    def representative_point(self):
        return np.zeros(1)

    def minimum(self, h: Polynomial, sdp_tol: float):
        """Exact (Edelman-Murakami 1995): the candidates are +-1 and the
        real parts of the roots of h' (companion eigenvalues), clipped to
        [-1, 1]; those that tie are the minimizers, always certified."""
        coef = [h.coefficient((e,)) for e in range(h.degree, -1, -1)]
        roots = np.roots(np.polyder(coef)).real
        cand = np.clip(np.concatenate([[-1.0, 1.0], roots]), -1.0, 1.0)
        vals = h.eval_many(cand[:, None])
        best = float(vals.min())
        kept = []
        for i in np.argsort(vals, kind="stable"):
            if vals[i] <= best + _TIE * (1.0 + abs(best)) and all(
                    abs(cand[i] - cand[j]) >= _MERGE for j in kept):
                kept.append(i)
        return best, [cand[[i]] for i in kept], True

    def y_sweep(self) -> np.ndarray:
        """2,001 even steps over the interval."""
        return np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)

    def to_doc(self) -> dict:
        return {"kind": "interval"}


@dataclass(frozen=True)
class QuadraticSet:
    """Y = {y : phi(y) >= 0} for a quadratic phi positive somewhere."""

    phi: Polynomial
    interior_point: tuple

    def __post_init__(self):
        object.__setattr__(self, "interior_point",
                           tuple(float(c) for c in self.interior_point))
        if self.phi.degree != 2:
            raise ValueError(f"defining polynomial has degree {self.phi.degree}, "
                             "expected 2")
        if len(self.interior_point) != self.phi.nvars:
            raise ValueError("interior point has wrong dimension")
        if self.phi(self.interior_point) <= 0:
            raise ValueError("the given point is not interior to the set")

    @property
    def n_y(self) -> int:
        return self.phi.nvars

    def as_generators(self) -> list[Polynomial]:
        return [self.phi]

    def representative_point(self):
        return np.asarray(self.interior_point, dtype=float)

    def minimum(self, h: Polynomial, sdp_tol: float):
        """The hierarchy's (:func:`hierarchy_minimum`) unless Y is an
        ellipsoid, phi with a negative definite Hessian, and deg h <= 2;
        then exact (More-Sorensen 1983), the value h at the best minimizer:
        y = c + T z maps the unit ball onto Y, h(c + T z) = h(c) + g.z +
        z.Qz/2 and Q = U diag(lam) U^T.  The minimizer is interior when
        Q > 0 and it lies in the ball, else z(mu) = -(Q + mu I)^{-1} g at
        the root mu >= max(0, -lam_1) of |z(mu)| = 1, by Newton on
        1/|z(mu)| from the left.  In the hard case, g orthogonal to the
        lam_1 eigenspace E and |z(-lam_1)| <= 1, the minimizers are
        z(-lam_1) + t v, v in E, on the sphere (or in the ball if
        lam_1 = 0): two points when lam_1 < 0 and E is a line, else a
        continuum, returned as one point, uncertified.
        """
        phi, origin = self.phi, np.zeros(self.n_y)
        P = phi.hessian_at(origin)
        w, V = np.linalg.eigh(-P)
        if h.degree > 2 or w[0] <= 0:
            return hierarchy_minimum(h, [phi], sdp_tol)
        centre = np.linalg.solve(P, -phi.gradient_at(origin))
        T = V * np.sqrt(2.0 * phi(centre) / w)
        lam, U = np.linalg.eigh(T.T @ h.hessian_at(centre) @ T)
        g = U.T @ (T.T @ h.gradient_at(centre))
        tol = 1e-12 * max(np.abs(lam).max(), np.linalg.norm(g))
        E = lam <= lam[0] + tol
        g_E = float(np.linalg.norm(g[E]))
        hard = g_E <= tol
        if hard:
            g[E] = 0.0
        live = g != 0.0

        def z_at(mu):
            return np.divide(-g, lam + mu, out=np.zeros_like(g), where=live)
        finite = lam[0] > tol or hard  # z(max(0, -lam_1)) is finite
        mu = max(0.0, -lam[0]) if finite else g_E - lam[0]
        z = z_at(mu)
        zs, certified = [z], True
        if finite and z @ z <= 1.0:
            if lam[0] <= tol:  # the hard case
                v = np.sqrt(1.0 - z @ z) * np.eye(z.size)[0]
                zs = [z + v] if 2.0 * v[0] < _MERGE else [z + v, z - v]
                if len(zs) == 2 and (lam[0] >= -tol or E.sum() > 1):
                    zs, certified = zs[:1], False
        else:
            for _ in range(100):
                r = lam[live] + mu
                n2 = np.sum(g[live] ** 2 / r ** 2)
                step = n2 * (np.sqrt(n2) - 1.0) / np.sum(g[live] ** 2 / r ** 3)
                mu += step
                if step <= 1e-15 * mu:
                    break
            z = z_at(mu)
            zs = [z / np.linalg.norm(z)]
        ys = [centre + T @ (U @ z) for z in zs]
        return min(float(h(y)) for y in ys), ys, certified

    def y_sweep(self) -> np.ndarray:
        """y0 and, along 2,000 directions d (evenly spread angles in 2-D,
        normalized Halton points of the cube otherwise: fixed, so the audit
        needs no random stream), four fractions of the distance t
        to the boundary: phi(y0 + t d) = a t^2 + b t + f0 is quadratic in
        t, so phi at y0 +- d gives a and b.  A ray leaves Y at its first
        positive root; one that never does is cut at t = 10."""
        y0 = self.representative_point()
        n = self.n_y
        if n == 2:
            angles = np.linspace(0.0, 2.0 * np.pi, 2000, endpoint=False)
            dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        else:
            dirs = _candidates(2000, n)
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        phi = self.phi
        f0 = phi(y0)
        fp, fm = phi.eval_many(y0 + dirs), phi.eval_many(y0 - dirs)
        a = 0.5 * (fp + fm) - f0
        b = 0.5 * (fp - fm)
        inward = a < -1e-12
        root = np.sqrt(np.maximum(b * b - 4.0 * a * f0, 0.0))
        t_edge = np.full(len(dirs), 10.0)
        t_edge[inward] = (-b[inward] - root[inward]) / (2.0 * a[inward])
        exits = ~inward & (b < 0.0) & (b * b - 4.0 * a * f0 >= 0.0)
        t_edge[exits] = 2.0 * f0 / (root[exits] - b[exits])
        steps = np.array([0.5, 0.8, 0.95, 1.0])[None, :] * t_edge[:, None]
        pts = y0 + steps[:, :, None] * dirs[:, None, :]
        return np.vstack([y0, pts.reshape(-1, n)])

    def to_doc(self) -> dict:
        return {"kind": "quadratic", "phi": self.phi.to_pairs(),
                "interior_point": [float(c) for c in self.interior_point]}


@dataclass(frozen=True)
class Semialgebraic:
    """Y = {y : q_1(y) >= 0, ..., q_kappa(y) >= 0}.

    ``archimedean_hint``, when given, is a bound M such that
    M - |y|^2 >= 0 on Y; the redundant ball constraint is appended to the
    generator list wherever a quadratic module over Y is formed.
    """

    generators: tuple
    archimedean_hint: float | None = None

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValueError("at least one generator is required")
        n = gens[0].nvars
        if any(q.nvars != n for q in gens):
            raise ValueError("generators must share their variables")
        if self.archimedean_hint is not None and self.archimedean_hint <= 0:
            raise ValueError("the ball bound must be positive")

    @property
    def n_y(self) -> int:
        return self.generators[0].nvars

    def as_generators(self) -> list[Polynomial]:
        gens = list(self.generators)
        if self.archimedean_hint is not None:
            gens.append(ball_poly(self.n_y, self.archimedean_hint))
        return gens

    def representative_point(self):
        """A point of Y: the first minimizer over Y of the unit linear form
        along (3, 4, 5, ...) (0.6 y1 + 0.8 y2 in the plane) that the moment
        hierarchy certifies (:func:`hierarchy_minimum`, solved to 1e-9).  A
        set without interior, such as a circle, is found too.  Raises
        ValueError when no order certifies one (NumericalTroubleError when
        Y is empty or no order ends Optimal)."""
        w = np.arange(3.0, 3.0 + self.n_y)
        form = Polynomial(self.n_y, dict(zip(
            map(tuple, np.eye(self.n_y, dtype=int).tolist()), w / np.linalg.norm(w))))
        _, points, certified = hierarchy_minimum(form, self.as_generators(), 1e-9)
        if not certified:
            raise ValueError("no order of the moment hierarchy certified a "
                             "point of the index set, so none can represent it")
        return points[0]

    def minimum(self, h: Polynomial, sdp_tol: float):
        """The hierarchy's on the generators, the hint's ball included."""
        return hierarchy_minimum(h, self.as_generators(), sdp_tol)

    def y_sweep(self) -> np.ndarray:
        """The points in Y of a raster of [-b, b]^n_y, b the hint's square
        root, ceil(16384^(1/n_y)) (at least 3) points per axis, thinned by
        an even stride to at most 4,096 (none when the raster misses Y).
        Raises ValueError without a hint: no cube is known to hold Y."""
        if self.archimedean_hint is None:
            raise ValueError("the y-sweep needs archimedean_hint, a bound M "
                             "with M - |y|^2 >= 0 on Y, to grid a cube")
        count = 4096
        per_axis = max(3, int(math.ceil((4 * count) ** (1.0 / self.n_y))))
        bound = math.sqrt(self.archimedean_hint)
        pts = raster([(-bound, bound)] * self.n_y, per_axis)
        mask = np.ones(len(pts), dtype=bool)
        for q in self.generators:
            mask &= q.eval_many(pts) >= 0
        inside = pts[mask]
        if len(inside) > count:
            inside = inside[np.linspace(0, len(inside) - 1, count).astype(int)]
        return inside

    def to_doc(self) -> dict:
        doc = {"kind": "semialgebraic",
               "generators": [g.to_pairs() for g in self.generators]}
        if self.archimedean_hint is not None:
            doc["archimedean_hint"] = float(self.archimedean_hint)
        return doc


# a compact set Y of constraint indices, described semialgebraically
IndexSet = Interval | QuadraticSet | Semialgebraic


def from_doc(doc: dict, n_y: int, options: dict) -> IndexSet:
    """The index set of a problem file's ``index_set`` object (``to_doc``'s
    inverse); a semialgebraic one may take its hint from ``options``."""
    kind = doc["kind"]
    if kind == "interval":
        return Interval()
    if kind == "quadratic":
        return QuadraticSet(Polynomial.from_pairs(n_y, doc["phi"]),
                            tuple(float(c) for c in doc["interior_point"]))
    gens = tuple(Polynomial.from_pairs(n_y, g) for g in doc["generators"])
    return Semialgebraic(gens, doc.get("archimedean_hint",
                                       options.get("archimedean_hint")))
