"""Moment and sum-of-squares machinery.

Truncated moment functionals with their moment matrices, the one cone
class of the reformulations, and the compilers that turn cone membership
(Gram side) or dual-cone membership (moment side) into blocks and
equality rows of an SDP.

Every cone is a truncated quadratic module :class:`QModule` of some
generators at some order k.  Plain sums of squares of degree <= 2k are
QModule((), k) (Lasserre 2001), the interval cone
theta0 + theta1*(1 - y^2) is QModule((1 - y^2,), k), and the S-lemma cone
theta + lam*phi is QModule((phi,), 1), its multiplier lam a 1x1 Gram block
(Polik-Terlaky 2007).  The cone names the Gram basis of every generator
(``gram_structure``), and :func:`sos_membership_blocks` alone writes Gram
blocks from them; on the moment side the same generators give the
localizing matrices.

On the moment side the functional is a vector of free SDP variables, as in
Lasserre's formulation and GloptiPoly: the moment matrix and every
localizing matrix are linear in it, so they are the diagonal blocks of one
linear matrix inequality (an ``LmiBlock``), and no equality row is spent on
restating that a matrix entry is a moment.  A module with a ball
c - a|x|^2 and no equality pair takes as variables weights at U points
unisolvent for degree <= 2k, L = sum_i c_i delta_{u_i} / |v(u_i)|^2 (v the
monomials of degree <= k; Loefberg-Parrilo 2004, Papp-Yildiz 2019): each
row L(q) is an evaluation at the points and every LMI constraint matrix
has rank one.  Any other module takes the moments of the standard
monomials (below; every monomial of degree <= 2k without an equality).

An equality written as the pair q >= 0, -q >= 0 is compiled as the ideal
(q) (Parrilo 2005; Nie 2013).  A single q is a Groebner basis under the
package's graded lex order, so the reduced cone equals
Q_k(inequalities) + {h*q : deg h <= 2k - deg q}.  Both sides work in the
quotient ring (Laurent 2009) on the standard monomials, those not divisible
by LM(q), and the pair adds no block.

Both compilers run by index arithmetic on exponent arrays, as GloptiPoly 3
does (Henrion-Lasserre-Loefberg 2009).  The monomials of degree <= 2k are
an integer array in the graded-lex order of ``monomials_up_to`` with a rank
lookup, so the terms of q * b_i * b_j are index sums.  The division steps
modulo the equalities run on sparse rows, one per monomial
(:func:`_reduce`): on the identity they give the moment side's normal-form
table (every monomial by the standard ones), whose rows its LMI entries
L(q b_i b_j) = sum_t q_t NF[b_i + b_j + t] and ``read`` sum; on the Gram
side's coefficient rows, one column per SDP variable, they give its
equality rows.  Every sum is a numpy sum in a fixed order (``np.bincount``
adds in input order), never a BLAS product, and every power a repeated
product, so the SDPs do not depend on the BLAS kernel.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from functools import cached_property, lru_cache
from itertools import chain, compress
from math import comb

import numpy as np

from .errors import NumericalTroubleError
from .poly import Polynomial, ceil_half, monomials_up_to
from .sdp import LinExpr, SdpBuilder, solve, tri_indices
from .sdp.model import RankOneMap, SparseRows

# --------------------------------------------------------------------------
# monomials and functionals
# --------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _monomials(nvars: int, degree: int):
    """(tuples, exponent array, code, rank) of the monomials of degree
    <= degree, in the order of ``monomials_up_to``.  ``code`` maps exponent
    vectors of degree <= degree to integers (mixed radix degree + 1, so
    codes add as monomials multiply), and ``rank`` maps codes to positions."""
    tuples = monomials_up_to(nvars, degree)
    exps = np.array(tuples, dtype=np.intp).reshape(-1, nvars)
    exps.flags.writeable = False  # shared by every compile of this size
    radix = (degree + 1) ** np.arange(nvars)
    by_code = np.argsort(exps @ radix)
    codes = (exps @ radix)[by_code]

    def code(e):
        return np.asarray(e, dtype=np.intp) @ radix

    def rank(c):
        return by_code[np.searchsorted(codes, c)]
    return tuples, exps, code, rank


def _negates(p: Polynomial, q: Polynomial) -> bool:
    """p == -q, without building -q."""
    return p.terms.keys() == q.terms.keys() and all(
        p.terms[t] == -c for t, c in q.terms.items())


def _leading(q: Polynomial) -> tuple:
    """q's leading monomial in graded lex order, the first variable largest."""
    return max(q.terms, key=lambda e: (sum(e), e))


class MomentFunctional:
    """Truncated linear functional on R[x]_{2k}, held as its moment vector:
    ``values[i]`` is L(x^a) for the i-th monomial a of degree <= 2k in the
    order of ``monomials_up_to`` (graded, so the mass comes first and
    L(x_1), ..., L(x_n) next), which ``_monomials``' rank lookup indexes."""

    __slots__ = ("nvars", "order", "values")

    def __init__(self, nvars: int, order: int, values):
        self.nvars = nvars
        self.order = order
        self.values = np.asarray(values, dtype=float)
        if self.values.shape != (comb(nvars + 2 * order, nvars),):
            raise ValueError(f"{self.values.shape} values for the monomials "
                             f"of N^{nvars}_{2 * order}")

    def value(self, mono: tuple) -> float:
        e = np.asarray(mono)
        if e.shape != (self.nvars,) or e.min() < 0 or e.sum() > 2 * self.order:
            raise ValueError(f"monomial {tuple(mono)} outside "
                             f"N^{self.nvars}_{2 * self.order}")
        _, _, code, rank = _monomials(self.nvars, 2 * self.order)
        return float(self.values[rank(code(e))])

    def mass(self) -> float:
        return float(self.values[0])

    def point(self) -> np.ndarray:
        """The normalized first-order vector (value on x_i over mass)."""
        return self.values[1:self.nvars + 1] / self.mass()


def moment_matrix(L: MomentFunctional, k: int) -> np.ndarray:
    """Matrix with entry (alpha, beta) = L(x^(alpha+beta)), rows N^m_k."""
    if k > L.order:
        raise ValueError(f"moment matrix order {k} exceeds functional order {L.order}")
    _, exps, code, rank = _monomials(L.nvars, 2 * L.order)
    basis = code(exps[:comb(L.nvars + k, k)])  # degree <= k, a graded prefix
    return L.values[rank(basis[:, None] + basis)]


# --------------------------------------------------------------------------
# cone descriptions
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class QModule:
    """Truncated quadratic module: sigma_0 + sum_i sigma_i q_i, degree <= 2k.

    Each sigma is a sum of squares with deg(sigma_i q_i) <= 2k.  Its dual
    cone holds the functionals of order k whose moment matrix and
    localizing matrices of the q_i are PSD.

    With ``nz`` > 0 only squares linear in the last nz variables z enter:
    q's Gram basis is each z_i times the monomials in the other variables
    of degree <= k - ceil(deg q / 2) - 1 (see certify.sos_convexity_margin).

    A generator q of degree >= 1 whose negation is also a generator is the
    equality q = 0 (module docstring); the z-linear cones reduce alike.
    Several pairs are reduced only when their leading monomials are
    pairwise coprime, a Groebner basis by Buchberger's first criterion;
    otherwise every pair stays two inequalities.
    """

    generators: tuple
    order: int  # k
    nz: int = 0

    @cached_property
    def equalities(self) -> tuple:
        """One q of each pair q, -q of generators, or () (class docstring)."""
        gens, eqs = self.generators, []
        for i, q in enumerate(gens):  # a repeated side adds no second pair
            if (q.degree >= 1 and any(_negates(p, q) for p in gens[i + 1:])
                    and not any(p == q or _negates(p, q) for p in eqs)):
                eqs.append(q)
        coprime = all(sum(map(bool, col)) <= 1 for col in zip(*map(_leading, eqs)))
        return tuple(eqs) if coprime else ()

    def gram_structure(self, nvars: int):
        """(q, standard Gram basis as an exponent array) for 1 and each
        inequality whose basis is not empty."""
        eqs = self.equalities
        leads = np.array([_leading(q) for q in eqs], dtype=np.intp).reshape(-1, nvars)
        out = []
        for q in (Polynomial.constant(nvars, 1.0), *self.generators):
            if any(p == q or _negates(p, q) for p in eqs):
                continue
            rest = self.order - ceil_half(q.degree)
            basis = _monomials(nvars, rest)[1] if not self.nz else np.vstack([
                np.hstack([base, np.tile(z, (len(base), 1))])
                for base in [_monomials(nvars - self.nz, rest - 1)[1]]
                for z in np.eye(self.nz, dtype=np.intp)])
            if eqs:
                basis = basis[~(basis[:, None] >= leads).all(axis=2).any(axis=1)]
            if len(basis):
                out.append((q, basis))
        return out


def _sum_by_key(keys: np.ndarray, vals: np.ndarray, then=None):
    """The distinct keys, ascending, and each one's values summed from zero
    in input order, or in the order of ``then`` first when it is given."""
    order = (np.argsort(keys, kind="stable") if then is None
             else np.lexsort((then, keys)))
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    sums = np.bincount(np.cumsum(first) - 1, vals[order])
    return keys[first], sums.astype(float, copy=False)


@lru_cache(maxsize=32)
def _division_steps(nvars: int, degree: int, equalities: tuple):
    """:func:`_reduce`'s steps (factors, targets, coefficients), each row's step (-1:
    none) and level masks, read-only; each equality as its terms' items, in order."""
    _, exps, code, rank = _monomials(nvars, degree)
    equalities = [Polynomial(nvars, dict(terms)) for terms in equalities]
    width_q = max((len(q.terms) - 1 for q in equalities), default=0)
    steps = [(np.zeros(0, dtype=np.intp), np.zeros(0),
              np.zeros((0, width_q), dtype=np.intp), np.zeros((0, width_q)))]
    free = np.ones(len(exps), dtype=bool)
    for q in equalities:
        lead = _leading(q)
        hits = np.flatnonzero(free & (exps >= lead).all(axis=1))
        free[hits] = False
        tail = [t for t in q.terms if t != lead]
        targets = np.full((hits.size, width_q), -1)
        targets[:, :len(tail)] = rank(code(exps[hits])[:, None] - code(lead)
                                      + code(np.reshape(tail, (-1, nvars))))
        coefs = np.zeros((hits.size, width_q))
        coefs[:, :len(tail)] = [q.terms[t] for t in tail]
        steps.append((hits, np.full(hits.size, -1.0 / q.terms[lead]), targets,
                      coefs))
    source, factor, targets, coefs = (np.concatenate(x) for x in zip(*steps))
    # degrees down, and within one degree positions up, which is lex down
    order = np.lexsort((source, -exps[source].sum(axis=1)))
    source, factor, targets, coefs = (x[order] for x in (source, factor,
                                                         targets, coefs))
    step_of = np.full(len(exps), -1)
    step_of[source] = np.arange(source.size)
    level, ready = [], [0] * len(exps)
    for a, row in zip(source.tolist(), targets.tolist()):
        level.append(ready[a])
        for r in row:
            if r >= 0 and ready[r] <= level[-1]:
                ready[r] = level[-1] + 1
    levels = np.zeros((max(level, default=-1) + 1, len(exps)), dtype=bool)
    levels[level, source] = True
    for x in (factor, targets, coefs, step_of, levels):
        x.flags.writeable = False
    return factor, targets, coefs, step_of, levels


def _reduce(entries, nvars: int, degree: int, equalities, width: int):
    """Reduce sparse rows, one per monomial of degree <= degree, modulo the
    equalities (a Groebner basis), and return the standard rows' nonzeros
    (rows, cols, vals), row-major.  ``entries`` are (rows, cols, vals) over
    ``width`` columns, in the order their terms arrive.

    Largest monomial first, x^a = x^s LM(q) is x^s (LM(q) - q / lc(q)): row
    a, times -1 / lc(q) and then times each other q_t, is added to row
    x^s t, for the first q whose LM(q) divides x^a.  A row is summed from
    zero in the order its terms arrived, the given ones and then step by
    step (``np.bincount`` adds in input order); a step runs once all steps
    adding to its row have, so the steps run in levels."""
    def summed(keep):
        r, c, v, made = (np.concatenate(x) for x in zip(*parts))
        sel = keep[r]
        keys, sums = _sum_by_key(r[sel] * width + c[sel], v[sel], made[sel])
        live = sums != 0
        return keys[live] // width, keys[live] % width, sums[live]

    parts = [(*entries, np.full(entries[0].size, -1))]  # last: the step
    factor, targets, coefs, step_of, levels = _division_steps(
        nvars, degree, tuple(tuple(q.terms.items()) for q in equalities))
    for keep in levels:
        r, c, v = summed(keep)
        step = step_of[r]
        for t in range(targets.shape[1]):
            to = targets[step, t]
            ok = to >= 0
            parts.append((to[ok], c[ok], (v * factor[step] * coefs[step, t])[ok],
                          step[ok]))
    return summed(step_of < 0)


def _terms(polys, nvars: int):
    """The polynomials' terms, in their order, as flat arrays (owner,
    exponents, coefficients), the owner a polynomial's position."""
    sizes = [len(p.terms) for p in polys]
    exps = np.fromiter(chain.from_iterable(chain.from_iterable(
        p.terms for p in polys)), dtype=np.intp, count=sum(sizes) * nvars)
    coefs = np.fromiter(chain.from_iterable(p.terms.values() for p in polys),
                        dtype=float, count=sum(sizes))
    return np.repeat(np.arange(len(polys)), sizes), exps.reshape(-1, nvars), coefs


def _products(structure, nvars: int, code):
    """The terms of q * b_i * b_j for each (q, basis) of ``structure`` and
    pair i >= j of its basis, row-major, as flat arrays (pair, monomial
    code, coefficient), q's terms in order and the pairs numbered on across
    the blocks; and whether each pair is diagonal."""
    owner, q_exps, q_coefs = _terms([q for q, _ in structure], nvars)
    tri = [tri_indices(len(basis)) for _, basis in structure]
    sizes = np.bincount(owner, minlength=len(structure))
    per_pair = np.repeat(sizes, [ti.size for ti, _ in tri])
    pair = np.repeat(np.arange(per_pair.size), per_pair)
    term = np.arange(pair.size) + np.repeat(
        np.repeat(np.cumsum(sizes) - sizes, [ti.size for ti, _ in tri])
        - np.cumsum(per_pair) + per_pair, per_pair)
    sums = np.concatenate([c[ti] + c[tj] for c, (ti, tj) in
                           zip((code(basis) for _, basis in structure), tri)])
    return (pair, sums[pair] + code(q_exps)[term], q_coefs[term],
            np.concatenate([ti == tj for ti, tj in tri]))


# --------------------------------------------------------------------------
# unisolvent points
# --------------------------------------------------------------------------


def _at(points: np.ndarray, exps: np.ndarray, chebyshev: bool = False):
    """(N, len(exps)) values of x^e, or with ``chebyshev`` of the products
    of T_e(x), at the points: powers by repeated products (no ``pow``),
    then their product over the coordinates in order."""
    t = np.ones((exps.max(initial=0) + 1, *points.shape))
    for e in range(1, len(t)):
        t[e] = (2 * points * t[e - 1] - t[e - 2] if chebyshev and e > 1
                else t[e - 1] * points)
    out = t[exps[:, 0], :, 0].T
    for c in range(1, points.shape[1]):
        out = out * t[exps[:, c], :, c].T
    return out


def _candidates(count: int, nvars: int) -> np.ndarray:
    """The first ``count`` Halton points (bases the first primes), each
    coordinate t mapped to -cos(pi t) in [-1, 1], the density of the box's
    Fekete points."""
    base = np.array([p for p in range(2, 8 * nvars + 8)
                     if all(p % d for d in range(2, p))][:nvars])
    i, t, f = np.arange(1, count + 1)[:, None], np.zeros((count, nvars)), 1.0
    while i.any():
        f = f / base
        t += f * (i % base)
        i = i // base
    return np.reshape([-math.cos(math.pi * v) for v in t.ravel().tolist()], t.shape)


def _fekete(B: np.ndarray) -> np.ndarray:
    """Greedy column pivoting on B^T (candidates by basis), as a pivoted
    Cholesky factorization of B B^T: each step takes the first candidate
    of those nearly farthest from the span of the ones taken.  Raises
    when none is left outside it: the candidates hold no unisolvent set."""
    G = B @ B.T
    d = G.diagonal().copy()
    floor, L, picks = 1e-12 * d.max(), np.zeros(B.shape[::-1]), []
    for s in range(B.shape[1]):
        j = int(np.argmax(d >= (1.0 - 1e-9) * d.max()))
        if not d[j] > floor:
            raise NumericalTroubleError(f"no {B.shape[1]} of the {len(B)} "
                                        "candidate points are unisolvent")
        L[s] = (G[j] - L[:s, j] @ L[:s]) / math.sqrt(d[j])
        d -= L[s] ** 2
        d[j] = -np.inf
        picks.append(j)
    return np.array(picks)


@lru_cache(maxsize=32)
def _points(nvars: int, order: int, radius: float):
    """(points, values, scale), read-only: U approximate Fekete points in
    [-radius, radius]^nvars unisolvent for degree <= 2 * order (U the
    number of such monomials), picked by :func:`_fekete` in the box's
    Chebyshev basis from 2U candidates; values[i, a], the a-th monomial
    at point i; and scale[i] = 1 / |v(u_i)|^2, v those of degree <= order."""
    exps = _monomials(nvars, 2 * order)[1]
    cand = _candidates(2 * len(exps), nvars)
    points = radius * cand[_fekete(_at(cand, exps, chebyshev=True))]
    values = _at(points, exps)
    scale = 1.0 / (values[:, :comb(nvars + order, nvars)] ** 2).sum(axis=1)
    for x in (points, values, scale):
        x.flags.writeable = False
    return points, values, scale


def _radius(gens) -> float | None:
    """The least radius of the balls c - a|x|^2 (c, a > 0) among the
    generators, or None."""
    radii = []
    for q in gens:
        sq = [tuple(2 * (i == v) for i in range(q.nvars)) for v in range(q.nvars)]
        a, c = {q.terms.get(e) for e in sq}, q.terms.get((0,) * q.nvars, 0.0)
        if q.terms.keys() == {(0,) * q.nvars, *sq} and len(a) == 1 and c > 0 > min(a):
            radii.append(math.sqrt(c / -min(a)))
    return min(radii, default=None)


# --------------------------------------------------------------------------
# Gram side: cone membership as SDP blocks
# --------------------------------------------------------------------------


def sos_membership_blocks(builder: SdpBuilder, target, cone: QModule,
                          nvars: int, margin: LinExpr | None = None) -> list:
    """Emit blocks and rows forcing ``target`` into ``cone``.

    ``target`` is a Polynomial or a map monomial -> LinExpr (affine in other
    SDP variables).  With ``margin`` = t, the identity becomes
    target = gram(+ t on the leading Gram diagonal) + ..., i.e. the leading
    Gram matrix is shifted to G - t*I; maximizing t measures how deep the
    target sits inside the cone.  Returns the Gram blocks' handles, one per
    generator with a nonempty Gram basis outside the equality pairs.  The
    identity's coefficients are sparse rows, one per monomial of degree
    <= 2k with a column per SDP variable and the constant last; reduced,
    each standard monomial's nonzero row is an equality row, in order.
    """
    if isinstance(target, Polynomial):
        if target.nvars != nvars:
            raise ValueError("variable count mismatch")
        target = {m: LinExpr.constant(c) for m, c in target.terms.items()}
    bound = 2 * cone.order
    for mono in target:
        if sum(mono) > bound:
            raise ValueError(
                f"target degree {sum(mono)} exceeds cone bound {bound}")
    _, _, code, rank = _monomials(nvars, bound)
    structure = cone.gram_structure(nvars)
    gram_handles = [builder.psd_block(len(basis)) for _, basis in structure]
    width = builder.num_scalars + 1
    parts = []  # (rows, cols, vals) in the order the identity adds them
    if structure:  # Gram entry (i, j) times 2 q_t (1 q_t on the diagonal)
        pair, codes, coefs, diagonal = _products(structure, nvars, code)
        parts.append((rank(codes), gram_handles[0].offset + pair,
                      np.where(diagonal[pair], 1.0, 2.0) * coefs))
        if margin is not None:
            squares = rank(2 * code(structure[0][1]))
            parts += [(squares, np.full(squares.size, k), np.full(squares.size, v))
                      for k, v in margin.coeffs.items()]
    rows, cols, vals = [], [], []
    for r, expr in zip(rank(code(np.array(list(target), dtype=np.intp)
                                 .reshape(-1, nvars))).tolist(), target.values()):
        rows += [r] * (len(expr.coeffs) + 1)
        cols += [*expr.coeffs, width - 1]
        vals += [*expr.coeffs.values(), expr.const]
    parts.append((np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp),
                  -np.array(vals)))
    rows, cols, vals = _reduce([np.concatenate(x) for x in zip(*parts)],
                               nvars, bound, cone.equalities, width)
    labels, row = np.unique(rows, return_inverse=True)
    const = cols == width - 1
    rhs = np.zeros(labels.size)
    rhs[row[const]] = vals[const]
    builder.add_rows(SparseRows(row[~const], cols[~const], vals[~const],
                                (labels.size, width - 1)), 0.0 - rhs)
    return gram_handles


def membership_margin(target: Polynomial, cone: QModule):
    """Maximal t with (target - t * sum of squared Gram basis) in the cone.

    Returns (t_star, solution).  The target is normalized by its largest
    coefficient magnitude first, so t_star is scale-free; membership holds
    iff t_star >= 0 up to solver accuracy, 1e-8 (-inf: infeasible, +inf:
    unbounded, nan: any other status).
    """
    scale = max((abs(c) for c in target.terms.values()), default=0.0)
    if scale > 0:
        target = target.scale(1.0 / scale)
    builder = SdpBuilder()
    pair = builder.nonneg_block(2)
    t = pair.entry(0) - pair.entry(1)  # free
    sos_membership_blocks(builder, target, cone, target.nvars, margin=t)
    builder.set_objective(t.scaled(-1.0))  # maximize t
    sol = solve(builder.build(), tol=1e-8)
    if sol.status == "Optimal":
        return -sol.primal_value, sol
    return {"PrimalInfeasible": float("-inf"),  # the target is outside the cone
            "DualInfeasible": float("inf")}.get(sol.status, float("nan")), sol


# --------------------------------------------------------------------------
# moment side: dual-cone membership as SDP blocks
# --------------------------------------------------------------------------


class MomentVarMap:
    """A truncated moment functional as the free vector of one LMI block.

    With a ball among the ``localizers`` and no equality pair the vector is
    the weights c of L = sum_i c_i scale_i delta_{u_i} at the ``points`` of
    :func:`_points` (``values[i, a]`` the a-th monomial at u_i), and
    diagonal block j of the LMI is P_j^T diag(c scale q_j(u)) P_j, P_j the
    first columns of ``values`` (q_j's monomial Gram basis).  Otherwise it
    is the moments L(x^a) of the standard monomials x^a, |a| <= 2k (all of
    them without an equality pair), in graded-lex order of a; any other is
    L(NF(x^a)), so L vanishes on the equalities' ideal.  The normal form
    is a table, the division steps run on the identity: row a holds
    NF(x^a) over the standard monomials as its nonzeros (``nf_cols``,
    ``nf_vals``, in column order, padded with zeros to one width), and an
    LMI entry is L(q b_i b_j) = sum_t q_t NF[b_i + b_j + t], summed in q's
    term order.  Either way the LMI's first diagonal block is the order-k
    moment matrix, entry (i, j) = L(b_i * b_j), and the localizing matrix
    of each of ``localizers`` follows, on the standard Gram basis that
    ``QModule(localizers, order)`` gives it, so L lies in the dual of that
    module.  A localizer whose basis is empty (deg q > 2 * order)
    constrains nothing and adds no block.
    """

    def __init__(self, builder: SdpBuilder, nvars: int, order: int,
                 localizers=()):
        self.nvars = nvars
        self.order = order
        self.localizers = tuple(localizers)
        cone = QModule(self.localizers, order)
        self.tuples, _, self.code, self.rank = _monomials(nvars, 2 * order)
        structure = cone.gram_structure(nvars)
        self.points, radius = None, _radius(self.localizers)
        if radius is not None and not cone.equalities:
            self.points, self.values, self.scale = _points(nvars, order, radius)
            self.block = builder.lmi_block(len(self.points))
            at = self._at_points([q for q, _ in structure])
            for (_, basis), q in zip(structure, at):
                self.block.add_matrix(len(basis), RankOneMap(
                    self.values[:, :len(basis)], q))
            return
        n = len(self.tuples)
        self.nf_cols, self.nf_vals = np.arange(n)[:, None], np.ones((n, 1))
        standard = np.ones(n, dtype=bool)
        if cone.equalities:  # else the table is the identity
            s, m, v = _reduce((np.arange(n), np.arange(n), np.ones(n)),
                              nvars, 2 * order, cone.equalities, n)
            standard[:] = False
            standard[s] = True
            by_mono = np.lexsort((s, m))
            s, m, v = (np.cumsum(standard) - 1)[s[by_mono]], m[by_mono], v[by_mono]
            count = np.bincount(m, minlength=n)
            slot = np.arange(m.size) - np.repeat(np.cumsum(count) - count, count)
            self.nf_cols = np.zeros((n, count.max()), dtype=np.intp)
            self.nf_vals = np.zeros((n, count.max()))
            self.nf_cols[m, slot], self.nf_vals[m, slot] = s, v
        self.monomials = list(compress(self.tuples, standard.tolist()))
        self.block = builder.lmi_block(len(self.monomials))
        if structure:  # every block's lower triangle, one row per pair
            pair, codes, coefs, _ = _products(structure, nvars, self.code)
            rows, cols, vals = self._apply(pair, codes, coefs)
        start = 0
        for _, basis in structure:
            size = len(basis) * (len(basis) + 1) // 2
            a, b = np.searchsorted(rows, [start, start + size])
            self.block.add_matrix(len(basis), SparseRows(
                rows[a:b] - start, cols[a:b], vals[a:b], (size, self.block.dim)))
            start += size

    def _apply(self, owner: np.ndarray, codes: np.ndarray, coefs: np.ndarray):
        """The nonzeros (rows, cols, vals), row-major, of the rows
        sum_t coefs[t] * NF[codes[t]] over the terms t with owner[t] = row,
        each entry summed in term order from zero."""
        dim, ranks = self.block.dim, self.rank(codes)
        keys, sums = _sum_by_key(
            (owner[:, None] * dim + self.nf_cols[ranks]).ravel(),
            (self.nf_vals[ranks] * coefs[:, None]).ravel())
        live = sums != 0
        return keys[live] // dim, keys[live] % dim, sums[live]

    def _at_points(self, polys) -> np.ndarray:
        """scale_i poly(u_i) per polynomial and point, summed in term order."""
        owner, exps, coefs = _terms(polys, self.nvars)
        U = len(self.points)
        at = np.bincount((owner * U + np.arange(U)[:, None]).ravel(), (
            self.values[:, self.rank(self.code(exps))] * coefs).ravel(), len(polys) * U)
        return at.reshape(len(polys), U) * self.scale

    def lin_polys(self, polys) -> list[LinExpr]:
        """Linear expressions for L(poly), one per polynomial."""
        if max((p.degree for p in polys), default=0) > 2 * self.order:
            raise KeyError(f"a monomial above degree {2 * self.order}")
        if self.points is None:
            owner, exps, coefs = _terms(polys, self.nvars)
            r, k, v = self._apply(owner, self.code(exps), coefs)
            cut = np.searchsorted(r, np.arange(len(polys) + 1)).tolist()
            rows = [(k[a:b], v[a:b]) for a, b in zip(cut[:-1], cut[1:])]
        else:
            rows = [(np.flatnonzero(x), x[x != 0]) for x in self._at_points(polys)]
        return [LinExpr(zip((k + self.block.offset).tolist(), v.tolist()))
                for k, v in rows]

    def lin_poly(self, poly: Polynomial) -> LinExpr:
        """Linear expression for L(poly)."""
        return self.lin_polys([poly])[0]

    def lin(self, mono: tuple) -> LinExpr:
        """The SDP expression for L(x^mono)."""
        return self.lin_poly(Polynomial(self.nvars, {mono: 1.0}))

    def read(self, x: np.ndarray) -> MomentFunctional:
        """Recover the functional, every monomial, from a scalarized vector."""
        w = x[self.block.offset:self.block.offset + self.block.dim]
        if self.points is not None:  # sum_i u_i^a (scale_i c_i), point by point
            return MomentFunctional(self.nvars, self.order, np.bincount(
                np.tile(np.arange(w.size), w.size),
                (self.values * (self.scale * w)[:, None]).ravel()))
        n, width = self.nf_cols.shape
        return MomentFunctional(self.nvars, self.order, np.bincount(
            np.repeat(np.arange(n), width), (self.nf_vals * w[self.nf_cols]).ravel(), n))

    def read_solution(self, prob, sol) -> MomentFunctional:
        """Recover the functional from a solved problem's block values."""
        return self.read(prob.scalarize(sol.primal_point))
