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

On the moment side the truncated moment vector (L(x^a) for |a| <= 2k) is
a vector of free SDP variables, as in Lasserre's formulation and
GloptiPoly: the moment matrix and every localizing matrix are linear in
it, so they are the diagonal blocks of one linear matrix inequality (an
``LmiBlock``), and no equality row is spent on restating that a matrix
entry is a moment.

An equality written as the pair q >= 0, -q >= 0 is compiled as the ideal
(q) (Parrilo 2005; Nie 2013).  A single q is a Groebner basis under the
package's graded lex order, so the reduced cone equals
Q_k(inequalities) + {h*q : deg h <= 2k - deg q}.  Both sides work in the
quotient ring (Laurent 2009) on the standard monomials, those not divisible
by LM(q), and the pair adds no block: :func:`_reduce` reduces the Gram
side's rows modulo q, and gives the moment side, which keeps the standard
moments only, L(x^a) = L(NF(x^a)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .poly import Polynomial, ceil_half, monomials_up_to
from .sdp import LinExpr, SdpBuilder, solve

# --------------------------------------------------------------------------
# functionals
# --------------------------------------------------------------------------


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _leading(q: Polynomial) -> tuple:
    """q's leading monomial in graded lex order, the first variable largest."""
    return max(q.terms, key=lambda e: (sum(e), e))


class MomentFunctional:
    """Truncated linear functional on R[x]_{2k}: monomial -> value."""

    __slots__ = ("nvars", "order", "values")

    def __init__(self, nvars: int, order: int, values: dict):
        self.nvars = nvars
        self.order = order
        self.values = {tuple(m): float(v) for m, v in values.items()}
        for m in self.values:
            if len(m) != nvars or sum(m) > 2 * order:
                raise ValueError(f"monomial {m} outside N^{nvars}_{2 * order}")

    def value(self, mono: tuple) -> float:
        return self.values.get(tuple(mono), 0.0)

    def mass(self) -> float:
        return self.value((0,) * self.nvars)

    def point(self) -> np.ndarray:
        """The normalized first-order vector (value on x_i over mass)."""
        m = self.mass()
        out = np.zeros(self.nvars)
        for i in range(self.nvars):
            e = tuple(1 if j == i else 0 for j in range(self.nvars))
            out[i] = self.value(e) / m
        return out


def moment_matrix(L: MomentFunctional, k: int) -> np.ndarray:
    """Matrix with entry (alpha, beta) = L(x^(alpha+beta)), rows N^m_k."""
    if k > L.order:
        raise ValueError(f"moment matrix order {k} exceeds functional order {L.order}")
    basis = monomials_up_to(L.nvars, k)
    M = np.empty((len(basis), len(basis)))
    for i, a in enumerate(basis):
        for j in range(i + 1):
            v = L.value(_add(a, basis[j]))
            M[i, j] = M[j, i] = v
    return M


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
    of degree <= k - ceil(deg q / 2) - 1 (see certify.hessian_form_margin).

    A generator q of degree >= 1 whose negation is also a generator is the
    equality q = 0 (module docstring); the z-linear cones reduce alike.
    Several pairs are reduced only when their leading monomials are
    pairwise coprime, a Groebner basis by Buchberger's first criterion;
    otherwise every pair stays two inequalities.
    """

    generators: tuple
    order: int  # k
    nz: int = 0

    @property
    def equalities(self) -> tuple:
        """One q of each pair q, -q of generators, or () (class docstring)."""
        gens, eqs = self.generators, []
        for i, q in enumerate(gens):  # a repeated side adds no second pair
            if (q.degree >= 1 and -q in gens[i + 1:]
                    and q not in eqs and -q not in eqs):
                eqs.append(q)
        coprime = all(sum(map(bool, col)) <= 1 for col in zip(*map(_leading, eqs)))
        return tuple(eqs) if coprime else ()

    def gram_structure(self, nvars: int):
        """(q, standard Gram basis) for 1 and each inequality."""
        eqs = self.equalities
        leads = [_leading(q) for q in eqs]
        out = []
        for q in (Polynomial.constant(nvars, 1.0), *self.generators):
            if q in eqs or -q in eqs:
                continue
            rest = self.order - ceil_half(q.degree)
            basis = monomials_up_to(nvars, rest) if not self.nz else [
                mono + tuple(int(t == i) for t in range(self.nz))
                for i in range(self.nz)
                for mono in monomials_up_to(nvars - self.nz, rest - 1)]
            basis = [b for b in basis
                     if not any(all(x <= y for x, y in zip(a, b)) for a in leads)]
            if basis:
                out.append((q, basis))
        return out


def _reduce(rows: dict, equalities) -> None:
    """Reduce {monomial: LinExpr} modulo the equalities (a Groebner basis)
    in place, largest monomial first: x^a = x^s LM(q) is replaced by
    x^s (LM(q) - q / lc(q)), whose monomials are smaller and already keys.
    The standard monomials are left, in their order."""
    steps = [(_leading(q), q) for q in equalities]
    for mono in sorted(rows, key=lambda e: (sum(e), e), reverse=True):
        for lead, q in steps:
            if all(x <= y for x, y in zip(lead, mono)):
                expr = rows.pop(mono).scaled(-1.0 / q.terms[lead])
                shift = tuple(x - y for x, y in zip(mono, lead))
                for t, c in q.terms.items():
                    if t != lead:
                        rows[_add(shift, t)] += expr.scaled(c)
                break


# --------------------------------------------------------------------------
# Gram side: cone membership as SDP blocks
# --------------------------------------------------------------------------


def _as_affine(target, nvars: int) -> dict:
    """Normalize a Polynomial or {monomial: LinExpr} map to the latter."""
    if isinstance(target, Polynomial):
        if target.nvars != nvars:
            raise ValueError("variable count mismatch")
        return {m: LinExpr.constant(c) for m, c in target.terms.items()}
    return dict(target)


def sos_membership_blocks(builder: SdpBuilder, target, cone: QModule,
                          nvars: int, margin: LinExpr | None = None) -> list:
    """Emit blocks and rows forcing ``target`` into ``cone``.

    ``target`` is a Polynomial or a map monomial -> LinExpr (affine in other
    SDP variables).  With ``margin`` = t, the identity becomes
    target = gram(+ t on the leading Gram diagonal) + ..., i.e. the leading
    Gram matrix is shifted to G - t*I; maximizing t measures how deep the
    target sits inside the cone.  Returns the Gram blocks' handles, one per
    generator with a nonempty Gram basis outside the equality pairs.
    """
    aff = _as_affine(target, nvars)
    bound = 2 * cone.order
    for mono in aff:
        if sum(mono) > bound:
            raise ValueError(
                f"target degree {sum(mono)} exceeds cone bound {bound}")
    rows: dict[tuple, LinExpr] = {m: LinExpr() for m in monomials_up_to(nvars, bound)}

    gram_handles = []
    for gi, (gen, basis) in enumerate(cone.gram_structure(nvars)):
        h = builder.psd_block(len(basis))
        gram_handles.append(h)
        for j, bj in enumerate(basis):
            for i in range(j, len(basis)):
                prod = _add(basis[i], bj)
                w = 1.0 if i == j else 2.0
                idx = h.entry_index(i, j)
                for dexp, dcoef in gen.terms.items():
                    rows[_add(prod, dexp)].add_term(idx, w * dcoef)
        if gi == 0 and margin is not None:
            for bmono in basis:
                sq = _add(bmono, bmono)
                for k, v in margin.coeffs.items():
                    rows[sq].add_term(k, v)

    for mono, expr in aff.items():
        rows[mono] = rows[mono] - expr
    if cone.equalities:  # one row per standard monomial
        _reduce(rows, cone.equalities)
    for expr in rows.values():
        if not expr.is_zero():
            builder.add_equality(expr, 0.0)
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
    """A truncated moment functional as SDP variables.

    The moments L(x^a) of the standard monomials x^a, |a| <= 2k (all of
    them without an equality pair), are the free vector of one LMI block,
    in graded-lex order of a; any other is L(NF(x^a)), so L vanishes on the
    equalities' ideal (module docstring).  The LMI's first diagonal block
    is the order-k moment matrix, entry (i, j) = L(b_i * b_j), and the
    localizing matrix of each of ``localizers``, entry L(q b_i b_j),
    follows, on the standard Gram basis that ``QModule(localizers, order)``
    gives it, so L lies in the dual of that module.  A localizer whose
    basis is empty (deg q > 2 * order) constrains nothing and adds no block.
    """

    def __init__(self, builder: SdpBuilder, nvars: int, order: int,
                 localizers=()):
        self.nvars = nvars
        self.order = order
        every = monomials_up_to(nvars, 2 * order)
        rows = {m: LinExpr.term(i) for i, m in enumerate(every)}
        self.localizers = tuple(localizers)
        cone = QModule(self.localizers, order)
        _reduce(rows, cone.equalities)  # row s holds NF(x^m)[s] at m's index
        self.monomials = list(rows)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.block = builder.lmi_block(len(self.monomials))
        self.normal_form = {m: LinExpr() for m in every}  # L(NF(x^m))
        for s, expr in rows.items():
            for i, c in expr.coeffs.items():
                self.normal_form[every[i]].add_term(
                    self.block.index(self.position[s]), c)
        for q, basis in cone.gram_structure(nvars):
            self.block.add_matrix(len(basis), {
                (i, j): self.lin_poly(q, _add(basis[i], bj))
                for j, bj in enumerate(basis) for i in range(j, len(basis))})

    def lin(self, mono: tuple) -> LinExpr:
        """The SDP expression for L(x^mono): one variable if standard."""
        return LinExpr(self.normal_form[tuple(mono)].coeffs)

    def lin_poly(self, poly: Polynomial, shift: tuple = ()) -> LinExpr:
        """Linear expression for L(poly * x^shift)."""
        expr = LinExpr()
        for m, c in poly.terms.items():
            m = _add(shift, m) if shift else m
            if m in self.position:
                expr.add_term(self.block.index(self.position[m]), c)
            else:
                expr += self.normal_form[m].scaled(c)
        return expr

    def read(self, x: np.ndarray) -> MomentFunctional:
        """Recover the functional, every monomial, from a scalarized vector."""
        return MomentFunctional(self.nvars, self.order, {
            m: sum(c * x[i] for i, c in expr.coeffs.items())
            for m, expr in self.normal_form.items()})

    def read_solution(self, prob, sol) -> MomentFunctional:
        """Recover the functional from a solved problem's block values."""
        return self.read(prob.scalarize(sol.primal_point))


def poly_image_in_y_sym(momvar: MomentVarMap, p) -> dict:
    """Map y-monomial -> LinExpr over the moments: y -> L(p(., y))."""
    return {ymono: momvar.lin_poly(slice_x)
            for ymono, slice_x in p.slices.items()}
