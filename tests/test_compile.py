"""The compilers against a reference that builds every entry on its own.

``ReferenceMomentVarMap`` and ``reference_sos_membership_blocks`` write
each LMI entry L(q b_i b_j) and each Gram row as a dict of ``LinExpr``
keyed by monomial tuples, and reduce modulo the equalities one dict row at
a time; on a module with a ball and no equality pair the reference
evaluates every monomial and polynomial at the package's points one float
at a time (the points themselves are tested in ``test_moment.py``).  The
package compiles the same SDPs by index arithmetic on exponent arrays
(``fsipp.moment``); both must give the same SDP to the last bit (A, b, c,
block dims and every LMI map) and the same ``read``,
on the packaged instances, planted seeds 0-39, the walk stages, the
z-linear classification cones, the arc's lower-level SDPs, and equalities
whose coefficients make every division step round.
"""

from __future__ import annotations

import numpy as np
import pytest

from fsipp import certify, indexset, instances, moment, relax
from fsipp.moment import QModule, _leading
from fsipp.multiobj import scalarize
from fsipp.poly import Polynomial, ceil_half, monomials_up_to
from fsipp.relax import build_dual_sdp, build_primal_sdp, classify_case
from fsipp.sdp import LinExpr, LmiBlock, SdpBuilder, SdpProblem, tri_index
from fsipp.sdp.model import RankOneMap, SparseRows

# ---------------------------------------------------------------- reference


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _gram_structure(cone: QModule, nvars: int):
    """(q, standard Gram basis as tuples) for 1 and each inequality."""
    eqs = cone.equalities
    leads = [_leading(q) for q in eqs]
    out = []
    for q in (Polynomial.constant(nvars, 1.0), *cone.generators):
        if q in eqs or -q in eqs:
            continue
        rest = cone.order - ceil_half(q.degree)
        basis = monomials_up_to(nvars, rest) if not cone.nz else [
            mono + tuple(int(t == i) for t in range(cone.nz))
            for i in range(cone.nz)
            for mono in monomials_up_to(nvars - cone.nz, rest - 1)]
        basis = [b for b in basis
                 if not any(all(x <= y for x, y in zip(a, b)) for a in leads)]
        if basis:
            out.append((q, basis))
    return out


def _reduce(rows: dict, equalities) -> None:
    """Reduce {monomial: LinExpr} modulo the equalities in place, largest
    monomial first: x^a = x^s LM(q) becomes x^s (LM(q) - q / lc(q))."""
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


def reference_sos_membership_blocks(builder, target, cone, nvars, margin=None):
    """moment.sos_membership_blocks, one dict row per monomial."""
    if isinstance(target, Polynomial):
        aff = {m: LinExpr.constant(c) for m, c in target.terms.items()}
    else:
        aff = dict(target)
    bound = 2 * cone.order
    for mono in aff:
        if sum(mono) > bound:
            raise ValueError(
                f"target degree {sum(mono)} exceeds cone bound {bound}")
    rows = {m: LinExpr() for m in monomials_up_to(nvars, bound)}
    gram_handles = []
    for gi, (gen, basis) in enumerate(_gram_structure(cone, nvars)):
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
                for k, v in margin.coeffs.items():
                    rows[_add(bmono, bmono)].add_term(k, v)
    for mono, expr in aff.items():
        rows[mono] = rows[mono] - expr
    if cone.equalities:
        _reduce(rows, cone.equalities)
    for expr in rows.values():
        if expr.coeffs or expr.const != 0.0:
            builder.add_equality(expr, 0.0)
    return gram_handles


def _monomial_at(point, mono) -> float:
    """x^mono at the point: each power by repeated products, then their
    product in coordinate order."""
    value = 1.0
    for x, e in zip(point, mono):
        power = 1.0
        for _ in range(e):
            power *= x
        value *= power
    return value


class ReferenceMomentVarMap:
    """moment.MomentVarMap, one LinExpr per moment and per LMI entry, or
    one float per point and monomial."""

    def __init__(self, builder: SdpBuilder, nvars: int, order: int,
                 localizers=()):
        self.nvars = nvars
        self.order = order
        every = monomials_up_to(nvars, 2 * order)
        rows = {m: LinExpr.term(i) for i, m in enumerate(every)}
        self.localizers = tuple(localizers)
        cone = QModule(self.localizers, order)
        radius = moment._radius(self.localizers)
        self.points = None
        if radius is not None and not cone.equalities:
            self.points, _, self.scale = moment._points(nvars, order, radius)
            self.block = builder.lmi_block(len(self.points))
            for q, basis in _gram_structure(cone, nvars):
                P = np.array([[_monomial_at(u, b) for b in basis]
                              for u in self.points.tolist()])
                self.block.add_matrix(len(basis), RankOneMap(P, self._at(q)))
            return
        _reduce(rows, cone.equalities)  # row s holds NF(x^m)[s] at m's index
        self.monomials = list(rows)
        self.position = {m: i for i, m in enumerate(self.monomials)}
        self.block = builder.lmi_block(len(self.monomials))
        self.normal_form = {m: LinExpr() for m in every}  # L(NF(x^m))
        for s, expr in rows.items():
            for i, c in expr.coeffs.items():
                self.normal_form[every[i]].add_term(
                    self.block.index(self.position[s]), c)
        for q, basis in _gram_structure(cone, nvars):
            entries = {(i, j): self._lin_poly(q, _add(basis[i], bj))
                       for j, bj in enumerate(basis)
                       for i in range(j, len(basis))}
            self.block.add_matrix(len(basis), self._map(len(basis), entries))

    def _map(self, dim: int, entries: dict) -> SparseRows:
        rows, cols, vals = [], [], []
        for (i, j), expr in entries.items():
            for k, v in expr.coeffs.items():
                rows.append(tri_index(i, j))
                cols.append(k - self.block.offset)
                vals.append(v)
        order = np.lexsort((cols, rows))
        return SparseRows(np.array(rows, dtype=np.intp)[order],
                          np.array(cols, dtype=np.intp)[order],
                          np.array(vals, dtype=float)[order],
                          (dim * (dim + 1) // 2, self.block.dim))

    def _at(self, poly: Polynomial) -> np.ndarray:
        """scale_i * poly(u_i), each sum in term order from zero."""
        out = []
        for u, s in zip(self.points.tolist(), self.scale.tolist()):
            acc = 0.0
            for m, c in poly.terms.items():
                acc += _monomial_at(u, m) * c
            out.append(acc * s)
        return np.array(out)

    def _lin_poly(self, poly: Polynomial, shift: tuple = ()) -> LinExpr:
        if self.points is not None:
            return LinExpr({self.block.offset + i: v
                            for i, v in enumerate(self._at(poly).tolist()) if v})
        expr = LinExpr()
        for m, c in poly.terms.items():
            m = _add(shift, m) if shift else m
            if m in self.position:
                expr.add_term(self.block.index(self.position[m]), c)
            else:
                expr += self.normal_form[m].scaled(c)
        return expr

    def lin(self, mono: tuple) -> LinExpr:
        if self.points is not None:
            return self._lin_poly(Polynomial(self.nvars, {tuple(mono): 1.0}))
        return LinExpr(self.normal_form[tuple(mono)].coeffs)

    def lin_poly(self, poly: Polynomial) -> LinExpr:
        return self._lin_poly(poly)

    def lin_polys(self, polys) -> list:
        return [self._lin_poly(p) for p in polys]

    def read(self, x: np.ndarray):
        if self.points is not None:  # w_a = sum_i u_i^a (scale_i c_i)
            c = x[self.block.offset:self.block.offset + self.block.dim]
            weights = (self.scale * c).tolist()
            values = []
            for mono in monomials_up_to(self.nvars, 2 * self.order):
                acc = 0.0
                for u, v in zip(self.points.tolist(), weights):
                    acc += _monomial_at(u, mono) * v
                values.append(acc)
            return moment.MomentFunctional(self.nvars, self.order, values)
        return moment.MomentFunctional(self.nvars, self.order, np.array([
            sum(c * x[i] for i, c in expr.coeffs.items())
            for expr in self.normal_form.values()], dtype=float))


# ---------------------------------------------------------------- harness


class _Captured(Exception):
    """Carries the SDP handed to ``solve`` out of the call that built it."""


def _capture(sdp, **kwargs):
    raise _Captured(sdp)


def _compile(monkeypatch, call, reference: bool):
    """(SDP, moment maps) that ``call`` builds, with the package's
    compilers or the reference ones.  A call that solves stops at its
    first ``solve``, whose SDP it returns; the SDP is None when the call
    solves none."""
    maps = []
    base = ReferenceMomentVarMap if reference else moment.MomentVarMap

    class Recorded(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            maps.append(self)

    with monkeypatch.context() as mp:
        for module in (relax, indexset):
            mp.setattr(module, "MomentVarMap", Recorded)
        for module in (indexset, moment):
            mp.setattr(module, "solve", _capture)
        if reference:
            for module in (relax, moment):
                mp.setattr(module, "sos_membership_blocks",
                           reference_sos_membership_blocks)
        try:
            sdp = call()
        except _Captured as got:
            sdp = got.args[0]
    if isinstance(sdp, tuple):  # (SdpProblem, map) from build_*_sdp
        sdp = sdp[0]
    return (sdp if isinstance(sdp, SdpProblem) else None), maps


def _bits(a) -> bytes:
    a = np.asarray(a)
    return a.dtype.str.encode() + str(a.shape).encode() + a.tobytes()


def _sparse_bits(F) -> tuple:
    if isinstance(F, RankOneMap):
        return (F.shape, _bits(F.P), _bits(F.q))
    return (F.shape, _bits(F.rows), _bits(F.cols), _bits(F.vals))


def _same(monkeypatch, call, label: str) -> int:
    """Assert that both compilers give ``call`` the same SDP and the same
    ``read`` of every moment map; the SDP's row count (0: no SDP)."""
    new, new_maps = _compile(monkeypatch, call, reference=False)
    ref, ref_maps = _compile(monkeypatch, call, reference=True)
    if ref is None:
        assert new is None, label
        return 0
    assert _sparse_bits(new.A) == _sparse_bits(ref.A), label
    assert _bits(new.b) == _bits(ref.b), label
    assert _bits(new.objective) == _bits(ref.objective), label
    assert len(new.blocks) == len(ref.blocks), label
    for got, want in zip(new.blocks, ref.blocks):
        assert type(got) is type(want), label
        if isinstance(want, LmiBlock):
            assert (got.nvars, got.dims) == (want.nvars, want.dims), label
            for F, G in zip(got.maps, want.maps):
                assert _sparse_bits(F) == _sparse_bits(G), label
        else:
            assert got.dim == want.dim, label
    assert len(new_maps) == len(ref_maps), label
    x = np.random.default_rng(7).normal(size=new.num_scalars)
    for got, want in zip(new_maps, ref_maps):
        if want.points is None:
            assert got.points is None and got.monomials == want.monomials, label
        else:
            assert _bits(got.points) == _bits(want.points), label
        assert _bits(got.read(x).values) == _bits(want.read(x).values), label
    return new.A.shape[0]


# ---------------------------------------------------------------- cases


def _both_sides(monkeypatch, prob, opts, tag, k, label):
    for build in (build_dual_sdp, build_primal_sdp):
        assert _same(monkeypatch, lambda: build(prob, opts, tag, k),
                     f"{label} {build.__name__}") > 0


@pytest.mark.parametrize("make", [
    instances.case1_problem, instances.case2_problem, instances.case3_problem,
    instances.case4_problem], ids=["case1", "case2", "case3", "case4"])
def test_packaged_instances_compile_as_the_reference(monkeypatch, make):
    prob, opts = make()
    tag = classify_case(prob, opts.case_override).tag
    _both_sides(monkeypatch, prob, opts, tag, opts.k, make.__name__)


@pytest.mark.parametrize("k", [4, 5, 6])
def test_quarter_circle_compiles_as_the_reference(monkeypatch, k):
    prob, opts = instances.quarter_circle_problem()
    tag = classify_case(prob, opts.case_override).tag
    _both_sides(monkeypatch, prob, opts, tag, k, f"quarter k={k}")


def test_planted_seeds_compile_as_the_reference(monkeypatch):
    for seed in range(40):
        prob, opts, _, _ = instances.planted_convex_quadratic(seed)
        tag = classify_case(prob, opts.case_override).tag
        for k in ((1, 2, 3) if seed % 2 else (None,)):
            _both_sides(monkeypatch, prob, opts, tag, k,
                        f"planted {seed} k={k}")


def test_walk_stages_compile_as_the_reference(monkeypatch, bio_runs):
    for name, (mprob, u0, opts, report) in bio_runs.items():
        u_prev = u0
        for (stage, point, _), trace in zip(report.path, report.traces):
            sub = scalarize(mprob, stage, u_prev)
            for row in trace.rows:
                _both_sides(monkeypatch, sub, opts, trace.tag, row.k,
                            f"walk {name}/{stage} k={row.k}")
            u_prev = point


def test_zlinear_classification_cones_compile_as_the_reference(monkeypatch):
    probs = [make()[0] for make in (
        instances.case1_problem, instances.case2_problem,
        instances.case3_problem, instances.case4_problem,
        instances.quarter_circle_problem)]
    for make in (instances.biobjective_case1, instances.biobjective_case2,
                 instances.biobjective_case3, instances.biobjective_case4):
        probs.append(make()[0].base_problem(1))
    compiled = 0
    for i, prob in enumerate(probs):
        compiled += _same(monkeypatch, lambda: certify.sos_convexity_check(
            prob.p.to_joint(), prob.m, prob.index_set.as_generators()),
            f"family {i}") > 0
        for h in (prob.f, prob.g.scale(-1.0), *prob.psis):
            compiled += _same(
                monkeypatch, lambda: certify.sos_convexity_margin(h),
                f"datum {i} {h}") > 0
    assert compiled >= 6


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_arc_lower_level_sdps_compile_as_the_reference(monkeypatch, k):
    # a linear form at every order, and -p(u, .) (degree 8) from order 4
    prob, _ = instances.quarter_circle_problem()
    gens = prob.index_set.as_generators()
    objectives = [Polynomial(2, {(1, 0): 0.6, (0, 1): 0.8})]
    if k >= 4:
        u = np.array([0.7377, 0.6033])
        objectives.append(prob.p.substitute_x(u).scale(-1.0))
    for h in objectives:
        assert _same(monkeypatch, lambda: indexset.minimize_on_semialgebraic(
            h, gens, k, 1), f"arc k={k} {h}") == 1


@pytest.mark.parametrize("k", [2, 3, 4])
def test_inexact_equalities_compile_as_the_reference(monkeypatch, k):
    # the arc's equality has unit coefficients, so its division steps
    # multiply exactly; an ellipse and a curve whose tails tie in degree
    # round at every step, on the moment side and on the Gram side
    y1, y2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    rng = np.random.default_rng(23 + k)
    target = Polynomial(2, {m: rng.normal() for m in monomials_up_to(2, 2 * k)})
    for q in (Polynomial(2, {(2, 0): 1.7, (1, 1): 0.3, (0, 2): 2.9, (0, 0): -1.1}),
              Polynomial(2, {(2, 0): 3.0, (1, 1): 1.0, (0, 1): -1.0, (0, 0): 0.3})):
        gens = (q, q.scale(-1.0), y1)
        assert _same(monkeypatch, lambda: indexset.minimize_on_semialgebraic(
            y1.scale(0.6) + y2.scale(0.8), gens, k, 1), f"moment {q}") == 1
        assert _same(monkeypatch, lambda: moment.membership_margin(
            target, QModule(gens, k)), f"gram {q}") > 0


def test_division_steps_are_cached_read_only_per_term_order():
    # the steps add q's other terms in q's order, so an equal q in another
    # term order has steps of its own
    q = Polynomial(2, {(2, 0): 1.7, (1, 1): 0.3, (0, 2): 2.9, (0, 0): -1.1})
    flipped = Polynomial(2, dict(reversed(q.terms.items())))
    assert flipped == q
    steps = moment._division_steps(2, 6, (tuple(q.terms.items()),))
    assert steps is moment._division_steps(2, 6, (tuple(q.terms.items()),))
    assert len(steps[-1]) and not any(x.flags.writeable for x in steps)
    with pytest.raises(ValueError):
        steps[0][0] = 1.0
    other = moment._division_steps(2, 6, (tuple(flipped.terms.items()),))
    assert not np.array_equal(other[1], steps[1])
