"""Candidate certification: lower-level solves over the index set, active
sets, nonnegative least-squares KKT residuals, feasibility margins and
the s.o.s-convexity test of a Hessian form on z-linear Gram bases.

The lower level's min over Y is the index set's to decide (``indexset``,
each kind's ``minimum``); ``lower_level_solve`` fixes x and asks it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NumericalTroubleError
from .moment import QModule, membership_margin
from .poly import Polynomial, ceil_half


# --------------------------------------------------------------------------
# nonnegative least squares
# --------------------------------------------------------------------------


def nnls(A: np.ndarray, b: np.ndarray):
    """Minimize ||A x - b||_2 over x >= 0 (Lawson-Hanson active set).

    Returns (x, residual_norm).  The iterate satisfies the NNLS KKT system
    to ~1e-10: x >= 0, gradient >= -tol on the active set, complementary
    slackness on the passive set.  At most 6 n + 30 passes, n = A's
    column count.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float).ravel()
    m, n = A.shape
    if b.shape[0] != m:
        raise ValueError("shape mismatch between matrix and target")
    if n == 0:
        return np.zeros(0), float(np.linalg.norm(b))
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    scale = max(1.0, float(np.max(np.abs(A.T @ b))) if m else 1.0)
    tol = 1e-11 * scale
    budget = 6 * n + 30

    while budget > 0:
        w = A.T @ (b - A @ x)
        w_masked = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_masked))
        if w_masked[j] <= tol:
            return x, float(np.linalg.norm(b - A @ x))
        passive[j] = True
        while budget > 0:
            budget -= 1
            idx = np.flatnonzero(passive)
            s = np.zeros(n)
            s[idx], *_ = np.linalg.lstsq(A[:, idx], b, rcond=None)
            if s[idx].min() > 0:
                x = s
                break
            # inner step: move toward s until the first coordinate hits zero,
            # then drop exactly the blocked coordinates from the passive set
            neg = idx[s[idx] <= 0]
            alpha = float(np.min(x[neg] / (x[neg] - s[neg])))
            x = x + alpha * (s - x)
            blocked = passive & (x <= 1e-12 * max(1.0, float(np.max(np.abs(x))))
                                 ) & (s <= 0)
            passive &= ~blocked
            x[~passive] = 0.0
    raise NumericalTroubleError("nonnegative least squares iteration cap")


# --------------------------------------------------------------------------
# lower-level solve over the index set
# --------------------------------------------------------------------------


def lower_level_solve(u, prob, sdp_tol: float = 1e-8):
    """Globally minimize  -p(u, y)  over the index set: (p_star, Lambda,
    certified), the optimal value, the minimizer set and whether both are
    exact, as the index set's ``minimum`` (``indexset``) decides them.

    A y-independent objective short-circuits: the value is exact and the
    index set's representative point stands in for the (whole-set) support.
    """
    u = np.asarray(u, dtype=float)
    h = prob.p.substitute_x(u).scale(-1.0)
    if h.degree <= 0:  # constant objective: minimum is the constant
        rep = prob.index_set.representative_point()
        return float(h.coefficient((0,) * h.nvars)), [np.asarray(rep, dtype=float)], True
    return prob.index_set.minimum(h, sdp_tol)


# --------------------------------------------------------------------------
# stop-criterion pieces
# --------------------------------------------------------------------------


def active_sets(u, prob, lower, tau: float = 1e-3):
    """(Lambda, J): active index points and active constraint indices,
    given ``lower``, the result of :func:`lower_level_solve` at u."""
    p_star, Lambda, _ = lower
    lam = list(Lambda) if p_star <= tau else []
    J = [j for j, psi in enumerate(prob.psis) if abs(psi(u)) <= tau]
    return lam, J


def kkt_residual(u, prob, Lambda, J):
    """Squared distance of the scaled-gradient target to the active cone.

    omega = min_{gamma, eta >= 0} || (grad f - (f/g) grad g)(u)
              + sum_y gamma_y grad_x p(u, y) + sum_j eta_j grad psi_j(u) ||^2
    """
    u = np.asarray(u, dtype=float)
    gu = prob.g(u)
    if gu <= 0:
        raise ValueError(f"denominator not positive at the point: g(u) = {gu}")
    ratio = prob.f(u) / gu
    target = -(prob.f.gradient_at(u) - ratio * prob.g.gradient_at(u))
    cols = []
    for y in Lambda:
        cols.append(prob.p.substitute_y(np.asarray(y)).gradient_at(u))
    for j in J:
        cols.append(prob.psis[j].gradient_at(u))
    if cols:
        A = np.column_stack(cols)
    else:
        A = np.zeros((u.size, 0))
    x, resid = nnls(A, target)
    multipliers = {
        "gamma": {tuple(float(c) for c in y): float(x[i])
                  for i, y in enumerate(Lambda)},
        "eta": {int(j): float(x[len(Lambda) + i]) for i, j in enumerate(J)},
    }
    return float(resid ** 2), multipliers


def feasibility_check(u, prob, tau: float = 1e-3, lower=None):
    """(feasible, margin): margin = max(-p_star, psi_j(u))."""
    if lower is None:
        lower = lower_level_solve(u, prob)
    p_star, _, _ = lower
    vals = [-p_star] + [float(psi(u)) for psi in prob.psis]
    margin = max(vals)
    return margin <= tau, float(margin)


# --------------------------------------------------------------------------
# s.o.s-convexity
# --------------------------------------------------------------------------


def sos_convexity_check(h: Polynomial, m: int | None = None, gens=()) -> bool:
    """Is h s.o.s-convex in x, uniformly over Y = {gens >= 0}?

    The one verdict of the package, for every datum and the family p
    (``relax.convexity_findings``): a pass needs a
    :func:`sos_convexity_margin` of at least -1e-7, and a test that ends
    without a margin refuses.  Slices sampled from Y cannot stand in for
    a failed family test, since a family may fail between the samples.
    """
    try:
        return sos_convexity_margin(h, m, gens) >= -1e-7
    except NumericalTroubleError:
        return False


def hessian_form(p: Polynomial, m: int) -> Polynomial:
    """z^T (d^2 p / dx^2) z, x the first m of p's variables, as a
    polynomial in p's variables followed by z_1, ..., z_m."""
    terms: dict[tuple, float] = {}
    for i in range(m):
        row = p.partial(i)
        for j in range(i, m):
            w = 1.0 if i == j else 2.0
            z = tuple(int(t == i) + int(t == j) for t in range(m))
            for exp, c in row.partial(j).terms.items():
                terms[exp + z] = terms.get(exp + z, 0.0) + w * c
    return Polynomial(p.nvars + m, terms)


def sos_convexity_margin(h: Polynomial, m: int | None = None,
                         gens=()) -> float:
    """The margin of the Hessian form z^T grad_x^2 h z, x the first m of
    h's variables (all of them by default) and y the rest, in the
    quadratic module of ``gens`` (polynomials in y) at order
    ceil(deg form / 2), restricted to squares linear in z: the maximal t
    with Gram - t*I still PSD on the bases {y^beta x^alpha z_i}
    (``moment.membership_margin``).  The form is normalized by its largest
    coefficient, so the margin is scale-free; +inf when it is unbounded,
    -inf when the form is outside the cone, and any other solver outcome
    raises :class:`NumericalTroubleError`.

    A zero form has margin 0.  A Hessian free of y is that of h's y^0
    part, p(., 0) of a family, tested alone without generators.  A
    quadratic needs no SDP.  Its basis is {z_1, ..., z_m}, and the rows
    fix every Gram entry: G = H - t*I with H the normalized Hessian (the
    form's coefficient of z_i z_j, i != j, is 2 H_ij).  The largest t
    keeping G PSD is the smallest eigenvalue of H.

    A pass is always a certificate: the restricted cone lies inside the
    full module.  It is exact when Y has interior.  Split each square of
    a full-module certificate sum_i q_i sigma_i (q_0 = 1) by z-degree,
    (s_0 + ... + s_D)^2.  The z-degree-0 part, sum q_i s_0^2, is
    nonnegative on Y and equals the form's, zero, so each term vanishes
    on int Y, hence identically: s_0 = 0.  Likewise s_D = 0 while 2D > 2.
    So every square is linear in z.  Interval and QuadraticSet have
    interior; on a Semialgebraic Y without it the restriction can only
    turn a pass into a refusal, so one path serves every index set.
    """
    m = h.nvars if m is None else m
    form = hessian_form(h, m)
    if form.is_zero():
        return 0.0
    if m < h.nvars and not any(any(e[m:h.nvars]) for e in form.terms):
        return sos_convexity_margin(Polynomial(m, {
            e[:m]: c for e, c in h.terms.items() if not any(e[m:])}))
    if h.degree <= 2:  # free of y: a y-dependent Hessian has degree >= 3
        scale = max(abs(c) for c in form.terms.values())
        H = np.zeros((m, m))
        for exp, c in form.terms.items():
            i, j = np.repeat(np.arange(m), exp[m:])
            H[i, j] = H[j, i] = c / scale if i == j else 0.5 * c / scale
        return float(np.linalg.eigvalsh(H)[0])
    padded = [Polynomial(form.nvars, {(0,) * m + e + (0,) * m: c
                                      for e, c in q.terms.items()})
              for q in gens]  # in (x, y, z)
    cone = QModule(tuple(padded), order=ceil_half(form.degree), nz=m)
    t_star, sol = membership_margin(form, cone)
    if np.isnan(t_star):
        raise NumericalTroubleError(
            f"s.o.s-convexity SDP ended with status {sol.status}")
    return t_star


# --------------------------------------------------------------------------
# combined report
# --------------------------------------------------------------------------


@dataclass
class KktReport:
    p_star: float
    Lambda: list
    J: list
    omega: float
    multipliers: dict
    feasible_within_tau: bool
    tau: float
    margin: float = float("nan")
    lower_certified: bool = False

    @property
    def passes(self) -> bool:
        """Stop-criterion success: certified feasibility and a KKT residual
        within tolerance.  An uncertified lower level never passes."""
        return (self.lower_certified and self.feasible_within_tau
                and self.omega <= self.tau)

    @property
    def verdict(self) -> str:
        """CERTIFIED when the stop test passes, else INCONCLUSIVE."""
        return "CERTIFIED" if self.passes else "INCONCLUSIVE"

    def as_dict(self) -> dict:
        """The fields, gamma's keys joined by commas, and ``passes``."""
        gamma = self.multipliers.get("gamma", {})
        return {**asdict(self), "passes": self.passes, "multipliers": {
            "gamma": {",".join(map(repr, y)): v for y, v in gamma.items()},
            "eta": self.multipliers.get("eta", {})}}


def certify_point(u, prob, tau: float = 1e-3,
                  sdp_tol: float = 1e-8) -> KktReport:
    """Run the full stop criterion at a candidate point."""
    lower = lower_level_solve(u, prob, sdp_tol=sdp_tol)
    p_star, _, certified = lower
    feasible, margin = feasibility_check(u, prob, tau=tau, lower=lower)
    Lambda, J = active_sets(u, prob, tau=tau, lower=lower)
    omega, multipliers = kkt_residual(u, prob, Lambda, J)
    return KktReport(p_star=float(p_star), Lambda=Lambda, J=J, omega=omega,
                     multipliers=multipliers, feasible_within_tau=feasible,
                     tau=tau, margin=margin, lower_certified=certified)
