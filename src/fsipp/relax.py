"""Fractional programs over a semi-infinite polynomial constraint family.

An instance asks for  min f(x)/g(x)  subject to finitely many polynomial
constraints psi_j(x) <= 0 and a family  p(x, y) <= 0 for all y in a
compact set Y.  Writing C[x] and C[y] for cones of polynomials
nonnegative on a region containing the feasible set and on Y, the value
equals a conic pair: maximize rho with

    f - rho*g + H(p(., y)) + sum_j eta_j psi_j  in  C[x],

over eta >= 0 and H in the dual cone of C[y]; and, dually, minimize L(f)
over functionals L with L(g) = 1, L(psi_j) <= 0, L in the dual of C[x],
and  y -> -L(p(., y))  in C[y].  This module holds the instance model,
the taxonomy that picks the cones, and the compilers producing the two
semidefinite programs for a given relaxation order, plus the driver that
walks orders until a certificate is found.  The two programs are conic
duals, so the driver solves only the moment SDP and reads rho from its
multipliers; the certificate-side compiler is an independent check of
that value.

Cone choices by tag: with d = max(deg f, deg g, deg psi_j, deg_x p) and
d_y = deg_y p, every cone is a truncated quadratic module Q_k(G) of
generators G at order k (``moment.QModule``):

* Case1 -- one parameter, Y = [-1, 1], all data s.o.s-convex in x:
  C[x] = Q_d({}), sums of squares of degree <= 2d; C[y] =
  Q_ceil(d_y/2)({1 - y^2}), the interval cone theta0 + theta1*(1 - y^2).
  A single exact solve.
* Case2 -- Y = {phi >= 0} with interior, p quadratic in y, data
  s.o.s-convex: C[x] = Q_d({}); C[y] = Q_1({phi}), theta + lam*phi with
  lam >= 0 (S-procedure).  A single exact solve.
* Case3/Case4 -- the index sets of Case1/Case2 with merely convex data:
  C[x] = Q_k({R^2 - |x|^2}), C[y] as in Case1/Case2, iterated over k with
  a moment-matrix rank test as stopping rule.
* General -- Y semialgebraic: C[x] = Q_k({R^2 - |x|^2, g - g_star}),
  C[y] = Q_k(Y's generators), an equality written as q, -q compiled as
  the ideal (q), with a feasibility/stationarity check at the recovered
  point as stopping rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .certify import KktReport, certify_point, sos_convexity_check
from .errors import MissingHintError, NumericalTroubleError, OptimumKnownSignal
from .extract import (RankCertificate, certify_and_extract,
                      point_from_functional)
from .indexset import IndexSet, Interval, QuadraticSet, ball_poly
from .moment import MomentFunctional, MomentVarMap, QModule, sos_membership_blocks
from .poly import BivariatePoly, Polynomial, ceil_half
from .sdp import LinExpr, SdpBuilder, solve


# --------------------------------------------------------------------------
# instance model and options
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FsippProblem:
    """min f/g  s.t.  psi_j <= 0  and  p(., y) <= 0 for all y in the index set."""

    f: Polynomial
    g: Polynomial
    psis: tuple
    p: BivariatePoly
    index_set: IndexSet
    d: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "psis", tuple(self.psis))
        m = self.f.nvars
        if self.g.nvars != m or any(psi.nvars != m for psi in self.psis):
            raise ValueError("objective and constraints must share x-variables")
        if self.p.n_x != m:
            raise ValueError(f"constraint family has {self.p.n_x} x-variables, "
                             f"expected {m}")
        if self.p.n_y != self.index_set.n_y:
            raise ValueError(f"constraint family has {self.p.n_y} index variables "
                             f"but the index set has {self.index_set.n_y}")
        degs = [self.f.degree, self.g.degree, self.p.d_x]
        degs += [psi.degree for psi in self.psis]
        d = max(int(v) for v in degs if v != float("-inf"))
        object.__setattr__(self, "d", max(d, 1))

    @property
    def m(self) -> int:
        return self.f.nvars

    @property
    def s(self) -> int:
        return len(self.psis)


class CaseTag(Enum):
    CASE1 = "Case1"
    CASE2 = "Case2"
    CASE3 = "Case3"
    CASE4 = "Case4"
    GENERAL = "General"


@dataclass(frozen=True)
class RelaxOptions:
    """The settings of one hierarchy run.

    R and g_star feed the ball and denominator generators of the x-cone
    (unused by Case1/Case2).  k_min and k (k_max in problem files and
    flags) bound the relaxation orders; :func:`solve_hierarchy` says which
    run.  tau is the feasibility/stationarity tolerance of the stop
    criterion, sdp_tol the interior-point accuracy.
    """

    R: float | None = None
    g_star: float | None = None
    k_min: int | None = None
    k: int | None = None
    case_override: CaseTag | None = None
    tau: float = 1e-3
    sdp_tol: float = 1e-8

    def __post_init__(self):
        for name in ("R", "g_star"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite; "
                                 f"got {value}")
        if self.k_min is not None and self.k_min < 1:
            raise ValueError("k_min must be at least 1")
        if self.k is not None and self.k < 1:
            raise ValueError("the relaxation order must be at least 1")
        if None not in (self.k_min, self.k) and self.k_min > self.k:
            raise ValueError(f"k_min {self.k_min} is above k_max {self.k}")
        if not (0 < self.tau < math.inf and 0 < self.sdp_tol < math.inf):
            raise ValueError("tau and sdp_tol must be positive and finite; "
                             f"got tau {self.tau}, sdp_tol {self.sdp_tol}")


def check_tag(prob: FsippProblem, tag: CaseTag) -> None:
    """Validate that the tag's structural preconditions hold for the
    instance: Case1/Case3 need the shape :func:`convex_shape` calls Case1,
    Case2/Case4 the one it calls Case2."""
    shape = convex_shape(prob)
    if tag in (CaseTag.CASE1, CaseTag.CASE3) and shape is not CaseTag.CASE1:
        raise ValueError(f"{tag.value} needs the interval index set")
    if tag in (CaseTag.CASE2, CaseTag.CASE4) and shape is not CaseTag.CASE2:
        raise ValueError(f"{tag.value} needs a quadratic index set and the "
                         "constraint family at most quadratic in the index "
                         f"variables (it has degree {prob.p.d_y} in them)")


# --------------------------------------------------------------------------
# classification
# --------------------------------------------------------------------------


def _family_sos_convex(prob: FsippProblem) -> bool:
    """Is p(., y) s.o.s-convex in x for every y in the index set?"""
    return sos_convexity_check(prob.p.to_joint(), prob.m,
                               prob.index_set.as_generators())


def convexity_findings(prob: FsippProblem,
                       family: bool | None = None) -> list[tuple[str, bool]]:
    """Sum-of-squares-convexity verdict for each datum, in report order:
    f, -g, each constraint, then the family p (uniformly over the index
    set).  ``family``, when given, is that last verdict, already decided
    for the same p and index set."""
    out = [("f", sos_convexity_check(prob.f)),
           ("-g", sos_convexity_check(prob.g.scale(-1.0)))]
    for j, psi in enumerate(prob.psis):
        out.append((f"psi[{j}]", sos_convexity_check(psi)))
    out.append(("p", _family_sos_convex(prob) if family is None else family))
    return out


def convex_shape(prob: FsippProblem) -> CaseTag | None:
    """Case1 or Case2 when the index set has that tag's shape (the interval;
    a quadratic set with p at most quadratic in y), else None."""
    if isinstance(prob.index_set, Interval):
        return CaseTag.CASE1
    if isinstance(prob.index_set, QuadraticSet) and prob.p.d_y <= 2:
        return CaseTag.CASE2
    return None


@dataclass(frozen=True)
class Classification:
    """A route tag with the findings that decided it, in
    :func:`convexity_findings` order (none under an override or off the
    Case1/Case2 shapes), and p's verdict when it is known."""

    tag: CaseTag
    findings: tuple = ()
    family: bool | None = None


def classify_case(prob: FsippProblem, case_override: CaseTag | None = None,
                  family: bool | None = None) -> Classification:
    """The most specific tag whose checkable conditions pass.

    Case3/Case4 are only reachable through ``case_override`` (their extra
    hypothesis concerns an unknown minimizer); anything unverified falls
    back to General.  ``family``, when given, is p's verdict, already
    decided for the same p and index set.
    """
    if case_override is not None:
        check_tag(prob, case_override)
        return Classification(case_override, (), family)
    shape = convex_shape(prob)
    if shape is None:
        return Classification(CaseTag.GENERAL, (), family)
    findings = tuple(convexity_findings(prob, family))
    tag = shape if all(ok for _, ok in findings) else CaseTag.GENERAL
    return Classification(tag, findings, findings[-1][1])


# --------------------------------------------------------------------------
# ball radius and denominator floor
# --------------------------------------------------------------------------


def _round_down_sig(v: float) -> float:
    """Largest a*10^e <= v with a single leading digit (guarding roundoff)."""
    v = float(v) * (1.0 + 1e-12)
    e = math.floor(math.log10(v))
    return math.floor(v / 10.0 ** e) * 10.0 ** e


def _aux_min(prob: FsippProblem, numerator: Polynomial, bound,
             family: bool | None) -> float:
    """Minimize ``numerator`` over the feasible set (denominator one)."""
    one = Polynomial.constant(prob.m, 1.0)
    aux = FsippProblem(numerator, one, prob.psis, prob.p, prob.index_set)
    tag = classify_case(aux, family=family).tag
    if tag in (CaseTag.CASE1, CaseTag.CASE2):
        opts, orders = RelaxOptions(), (aux.d,)  # cone orders fixed by the data
    elif bound is None:
        raise MissingHintError(
            "a bound on the feasible region is needed for the auxiliary solve")
    else:
        opts = RelaxOptions(R=1.5 * float(bound), g_star=0.5)
        k0 = max(ceil_half(aux.d), 1)
        orders = (k0, k0 + 1)
    rows = [_solve_order(aux, opts, tag, k) for k in orders]
    values = [row.r_dual for row in rows if row.dual_status == "Optimal"]
    if not values:
        raise NumericalTroubleError(
            "auxiliary minimization did not converge: " + "; ".join(
                f"k={row.k}: {row.error or row.dual_status}" for row in rows))
    return max(values)


def choose_g_star(prob: FsippProblem, hints: dict,
                  family: bool | None = None) -> float:
    """The floor recipe: a positive g_star below the denominator g at the
    minimizers, for the General route with a non-constant g.

    ``hints`` may carry ``bound`` (a radius enclosing the feasible set or
    its minimizers) and ``feasible_point`` (a point u' of the feasible
    set, needed when g is not affine); ``family`` is p's verdict when it
    is known, for the auxiliary problems' classification.

    g affine gives half the minimum of g over the feasible set.
    Otherwise the recipe needs f >= 0 on the feasible set: it minimizes f
    first and refuses a negative minimum, then returns a rounded-down
    positive number below (g(u')/f(u')) * min f.  A zero of f at u', or a
    zero minimum, pins the optimal value at zero and raises
    :class:`OptimumKnownSignal` instead of returning.
    """
    bound = hints.get("bound")
    if prob.g.degree == 1:
        g_min = _aux_min(prob, prob.g, bound, family)
        if g_min <= 0:
            raise NumericalTroubleError(
                f"denominator minimum {g_min} is not positive")
        return 0.5 * g_min
    u_prime = hints.get("feasible_point")
    if u_prime is None:
        raise MissingHintError(
            "a feasible point is needed when the denominator is nonlinear")
    f_min = _aux_min(prob, prob.f, bound, family)
    if f_min < -1e-9:
        raise MissingHintError(
            f"the floor recipe needs f >= 0 on the feasible set, but its "
            f"minimum is {f_min:.6g}; set g_star")
    u_prime = np.asarray(u_prime, dtype=float)
    f_u = prob.f(u_prime)
    if f_u == 0.0:
        raise OptimumKnownSignal(0.0, point=u_prime)
    if f_min <= 1e-9:
        raise OptimumKnownSignal(0.0, point=None)
    return _round_down_sig(0.5 * (prob.g(u_prime) / f_u) * f_min)


# --------------------------------------------------------------------------
# cone selection shared by both compilers
# --------------------------------------------------------------------------


def _y_cone(prob: FsippProblem, tag: CaseTag, k: int | None) -> QModule:
    d_y = max(int(prob.p.d_y), 0)
    if tag in (CaseTag.CASE1, CaseTag.CASE3):
        order = ceil_half(d_y)
    elif tag in (CaseTag.CASE2, CaseTag.CASE4):
        order = 1
    else:  # General: the compilers check k in _x_cone first
        order = k
    if d_y > 2 * order:
        raise ValueError(f"degree overflow: the constraint family has degree "
                         f"{d_y} in the index variables, above the cone bound "
                         f"{2 * order}")
    return QModule(tuple(prob.index_set.as_generators()), order)


def _x_cone(prob: FsippProblem, opts: RelaxOptions, tag: CaseTag,
            k: int | None) -> QModule:
    if tag in (CaseTag.CASE1, CaseTag.CASE2):
        return QModule((), prob.d)
    if k is None or k < ceil_half(prob.d):
        raise ValueError(f"relaxation order must be at least {ceil_half(prob.d)}")
    if opts.R is None:
        raise MissingHintError("the ball generator needs the radius R")
    gens = [ball_poly(prob.m, float(opts.R) ** 2)]
    if tag is CaseTag.GENERAL and prob.g.degree >= 1:
        if opts.g_star is None:
            raise MissingHintError("the general cone needs the floor g_star")
        gens.append(prob.g - Polynomial.constant(prob.m, opts.g_star))
    return QModule(tuple(gens), order=k)


# --------------------------------------------------------------------------
# the two compilers
# --------------------------------------------------------------------------


def build_dual_sdp(prob: FsippProblem, opts: RelaxOptions, tag: CaseTag,
                   k: int | None):
    """Compile  min L(f) : L(g)=1, L(psi_j)<=0, L in C[x]*, -Lp in C[y].

    Returns (SdpProblem, MomentVarMap), the map's localizers the x-cone's
    generators.  The moment variables range over monomials of degree
    <= 2d for Case1/Case2 (k unused) and <= 2k otherwise, k the order.
    """
    check_tag(prob, tag)
    cone_x = _x_cone(prob, opts, tag, k)
    cone_y = _y_cone(prob, tag, k)

    builder = SdpBuilder()
    mv = MomentVarMap(builder, prob.m, cone_x.order, cone_x.generators)
    L_g, L_f, *rest = mv.lin_polys([prob.g, prob.f, *prob.psis,
                                    *prob.p.slices.values()])
    builder.add_equality(L_g, 1.0)
    if prob.psis:
        slack = builder.nonneg_block(prob.s)
        for j, L_psi in enumerate(rest[:prob.s]):
            builder.add_equality(L_psi + slack.entry(j))
    for expr in rest[prob.s:]:  # negated one at a time: dense over points
        expr.coeffs = {k: -v for k, v in expr.coeffs.items()}
    sos_membership_blocks(builder, dict(zip(prob.p.slices, rest[prob.s:])),
                          cone_y, prob.p.n_y)
    builder.set_objective(L_f)
    return builder.build(), mv


@dataclass
class PrimalSdpMap:
    """Handles into the certificate-side SDP."""

    rho: object
    h_moments: MomentVarMap
    eta: object = None


def build_primal_sdp(prob: FsippProblem, opts: RelaxOptions, tag: CaseTag,
                     k: int | None):
    """Compile  max rho : f - rho*g + H(p) + sum eta_j psi_j in C[x],
    H in C[y]*, eta >= 0, at relaxation order k (as :func:`build_dual_sdp`).

    Returns (SdpProblem, PrimalSdpMap); the reported objective of the
    emitted minimization problem is -rho.
    """
    check_tag(prob, tag)
    cone_x = _x_cone(prob, opts, tag, k)
    cone_y = _y_cone(prob, tag, k)

    builder = SdpBuilder()
    pair = builder.nonneg_block(2)
    rho = pair.entry(0) - pair.entry(1)  # free
    eta = builder.nonneg_block(prob.s) if prob.psis else None
    hm = MomentVarMap(builder, prob.p.n_y, cone_y.order, cone_y.generators)
    vmap = PrimalSdpMap(rho=rho, h_moments=hm, eta=eta)

    target: dict[tuple, LinExpr] = {}

    def bump(mono: tuple, index: int, coef: float):
        target.setdefault(mono, LinExpr()).add_term(index, coef)

    for mono, c in prob.f.terms.items():
        target.setdefault(mono, LinExpr()).const += c
    for mono, c in prob.g.terms.items():
        for k, v in rho.coeffs.items():
            bump(mono, k, -c * v)
    for ymono, slice_x in prob.p.slices.items():
        hidx = hm.lin(ymono)
        for mono, c in slice_x.terms.items():
            for k, v in hidx.coeffs.items():
                bump(mono, k, c * v)
    for j, psi in enumerate(prob.psis):
        for mono, c in psi.terms.items():
            bump(mono, eta.index(j), c)

    top = max((sum(mono) for mono in target), default=0)
    if top > 2 * cone_x.order:
        raise ValueError(f"degree overflow: certificate target has degree {top}, "
                         f"above the cone bound {2 * cone_x.order}")
    sos_membership_blocks(builder, target, cone_x, prob.m)
    builder.set_objective(rho.scaled(-1.0))
    return builder.build(), vmap


# --------------------------------------------------------------------------
# hierarchy driver
# --------------------------------------------------------------------------


@dataclass
class HierarchyRow:
    """One relaxation order's outcome: the one solve of its moment SDP."""

    k: int
    r_primal: float = float("-inf")
    r_dual: float = float("inf")
    dual_functional: MomentFunctional | None = None
    localizers: tuple = ()  # the x-cone generators localizing dual_functional
    dual_status: str = ""
    dual_iterations: int = 0
    error: str | None = None

    @property
    def primal_status(self) -> str:
        """The certificate SDP's status: it is the moment SDP's conic dual,
        so each side's infeasibility is the other side's unboundedness."""
        swapped = {"PrimalInfeasible": "DualInfeasible",
                   "DualInfeasible": "PrimalInfeasible"}
        return swapped.get(self.dual_status, self.dual_status)


@dataclass
class HierarchyTrace:
    """The walk over relaxation orders with its stopping evidence."""

    tag: CaseTag
    rows: list = field(default_factory=list)
    candidate: np.ndarray | None = None
    atoms: list | None = None
    certificate: RankCertificate | None = None
    kkt: KktReport | None = None
    hessian_pd: bool | None = None
    stop_reason: str = "exhausted"
    family: bool | None = None  # p's s.o.s-convexity verdict, when decided
    known_optimum: float | None = None  # pinned by the floor recipe

    @property
    def verdict(self) -> str:
        """CERTIFIED on an optimum pinned by the floor recipe, a passed rank
        certificate or a passing stop test (a Case1/Case2 ``single`` stop
        rests on classification alone, ROADMAP item 9); else INFEASIBLE when
        every order's moment SDP is PrimalInfeasible; else INCONCLUSIVE."""
        if (self.known_optimum is not None
                or (self.certificate is not None and self.certificate.passed)
                or (self.kkt is not None and self.kkt.passes)):
            return "CERTIFIED"
        if self.rows and all(row.dual_status == "PrimalInfeasible"
                             for row in self.rows):
            return "INFEASIBLE"
        return "INCONCLUSIVE"

    @property
    def r_dual(self) -> float:
        """Best (lowest finite) moment-side value seen, or the pinned one."""
        if self.known_optimum is not None:
            return self.known_optimum
        vals = [row.r_dual for row in self.rows if np.isfinite(row.r_dual)]
        return min(vals) if vals else float("inf")

    @property
    def r_primal(self) -> float:
        if self.known_optimum is not None:
            return self.known_optimum
        vals = [row.r_primal for row in self.rows if np.isfinite(row.r_primal)]
        return max(vals) if vals else float("-inf")


def _solve_order(prob, opts, tag, k):
    """Build and solve the moment SDP at one order; never raises.

    The certificate side is the conic dual of the moment SDP, so one
    primal-dual interior-point solve gives both values: r_dual = L(f) from
    the moment point, r_primal = rho = b.lambda from its multipliers.
    """
    row = HierarchyRow(k=k)
    try:
        sdp, mv = build_dual_sdp(prob, opts, tag, k)
        sol = solve(sdp, tol=opts.sdp_tol)
        row.dual_status, row.dual_iterations = sol.status, sol.iterations
        if sol.status == "Optimal":
            row.r_dual = float(sol.primal_value)
            row.r_primal = float(sol.dual_value)
            row.dual_functional = mv.read_solution(sdp, sol)
            row.localizers = mv.localizers
    except Exception as exc:  # noqa: BLE001 - recorded, not fatal
        row.error = f"moment side: {exc}"
    return row


def _hessian_pd(f: Polynomial, u: np.ndarray) -> bool:
    w = np.linalg.eigvalsh(f.hessian_at(u))
    return bool(w.min() > 0)


def solve_hierarchy(prob: FsippProblem, opts: RelaxOptions,
                    hints: dict | None = None,
                    family: bool | None = None) -> HierarchyTrace:
    """Set up one hierarchy run, then walk relaxation orders, recording
    values and stopping on a certificate.

    Set-up classifies once (``family`` is p's verdict when already
    decided) and, when the problem file's ``hints`` carry a ``bound``,
    fills what the route needs and ``opts`` lacks: R = 1.5 * bound on
    Case3, Case4 and General, g_star by :func:`choose_g_star` on General
    with a non-constant g.  On a Case1/Case2 shape that recipe gets p's
    verdict, decided here when still unknown and kept on the trace, so a
    walk decides it once.  An optimum the recipe pins is returned as a
    trace with no rows and stop reason ``known-optimum``.

    Case1/Case2 solve order d alone, whatever the settings (the data fix
    their cones' orders).  The iterated tags run opts.k_min (default
    ceil(d/2)) up to opts.k (default k_min when set, else ceil(d/2) + 2),
    never below the first order, each compiled and solved once, on the
    moment side, whose multipliers also give the certificate-side value;
    the walk stops once the moment matrix passes the rank test
    (Case3/Case4 and General) or the recovered point passes feasibility
    plus stationarity (General).  Per-order failures are recorded in the
    row and the walk continues.
    """
    cls = classify_case(prob, opts.case_override, family)
    tag = cls.tag
    trace = HierarchyTrace(tag=tag, family=cls.family)
    hints = hints or {}
    if "bound" in hints and tag not in (CaseTag.CASE1, CaseTag.CASE2):
        g_star = opts.g_star
        if g_star is None and tag is CaseTag.GENERAL and prob.g.degree >= 1:
            if trace.family is None and convex_shape(prob) is not None:
                # the recipe's auxiliary problems would each decide p
                trace.family = _family_sos_convex(prob)
            try:
                g_star = choose_g_star(prob, hints, trace.family)
            except OptimumKnownSignal as sig:
                trace.known_optimum, trace.candidate = sig.r_star, sig.point
                trace.stop_reason = "known-optimum"
                return trace
        R = opts.R if opts.R is not None else 1.5 * float(hints["bound"])
        opts = replace(opts, R=R, g_star=g_star)
    d_half = max(ceil_half(prob.d), 1)
    if tag in (CaseTag.CASE1, CaseTag.CASE2):
        orders = [prob.d]
    else:
        lo = max(opts.k_min or d_half, d_half)
        hi = (opts.k if opts.k is not None
              else lo if opts.k_min is not None else d_half + 2)
        orders = range(lo, max(lo, hi) + 1)

    for k in orders:
        row = _solve_order(prob, opts, tag, k)
        trace.rows.append(row)
        L = row.dual_functional
        if L is None:
            continue
        try:
            trace.candidate = point_from_functional(L)
        except Exception:
            continue

        cert, atoms = certify_and_extract(L, k=k, k0=1, d_half=d_half,
                                          rel_tol=1e-6,
                                          gens=row.localizers)
        if cert is not None:
            trace.certificate, trace.atoms = cert, atoms
            trace.hessian_pd = _hessian_pd(prob.f, trace.candidate)
        if tag in (CaseTag.CASE1, CaseTag.CASE2):
            trace.stop_reason = "single"
            break
        if cert is not None:
            trace.stop_reason = "rank"
            break
        if tag is CaseTag.GENERAL:
            try:
                trace.kkt = certify_point(trace.candidate, prob, tau=opts.tau,
                                          sdp_tol=opts.sdp_tol)
            except NumericalTroubleError:
                trace.kkt = None
            if trace.kkt is not None and trace.kkt.passes:
                trace.stop_reason = "kkt"
                break
    return trace
