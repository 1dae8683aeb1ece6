"""Efficient solutions of multi-objective fractional programs.

For objectives f_1/g_1, ..., f_t/g_t over a common feasible set F (given
by psi_j <= 0 and the semi-infinite family p(., y) <= 0), a point u* in F
is efficient when no x in F improves one component without worsening
another.  The sequential scheme here minimizes one component at a time:
stage i minimizes f_i/g_i subject to the cross-constraints

    g_j(u^(i-1)) f_j(x) - f_j(u^(i-1)) g_j(x) <= 0,   j != i,

which pin the other components at or below their values at the previous
stage's point.  After t stages the point is efficient; the walk stops
early when a stage's minimizer is provably unique (rank-one moment matrix
with a positive definite numerator Hessian under a quadratic-module tag).

The audit is a falsification test: it rasterizes a user-declared box,
keeps the grid points that dominate the candidate componentwise and
satisfy the scalar constraints, and only then sweeps y over those few to
see whether one is clearly feasible for the semi-infinite constraint.
Audits and grids are evaluated on the raster's axes (``eval_raster``).
That sweep is the index set's ``y_sweep`` (``indexset``), the package's
one sampler of index sets.  On a semialgebraic set whose grid misses Y,
such as an arc, it has no point, and one without an ``archimedean_hint``
has no cube to grid; the audit and ``image_grid`` then raise ValueError
rather than let every point pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .certify import feasibility_check
from .errors import NumericalTroubleError
from .indexset import IndexSet, raster
from .poly import BivariatePoly
from .relax import (CaseTag, FsippProblem, RelaxOptions, check_tag,
                    solve_hierarchy)


@dataclass(frozen=True)
class MultiFsippProblem:
    """Min (f_1/g_1, ..., f_t/g_t) over psi_j <= 0, p(., y) <= 0 on the index set."""

    objectives: tuple
    p: BivariatePoly
    index_set: IndexSet
    psis: tuple = ()

    def __post_init__(self):
        objs = tuple((f, g) for f, g in self.objectives)
        object.__setattr__(self, "objectives", objs)
        object.__setattr__(self, "psis", tuple(self.psis))
        if len(objs) < 2:
            raise ValueError("at least two objectives are required")
        m = objs[0][0].nvars
        for f, g in objs:
            if f.nvars != m or g.nvars != m:
                raise ValueError("objectives must share x-variables")
        if any(psi.nvars != m for psi in self.psis):
            raise ValueError("constraints must share x-variables")
        if self.p.n_x != m:
            raise ValueError("constraint family has the wrong x-dimension")
        if self.p.n_y != self.index_set.n_y:
            raise ValueError("constraint family and index set disagree on y")

    @property
    def m(self) -> int:
        return self.objectives[0][0].nvars

    @property
    def t(self) -> int:
        return len(self.objectives)

    def base_problem(self, i: int) -> FsippProblem:
        """The single-objective instance of component i (1-based), without
        cross-constraints."""
        f, g = self.objectives[i - 1]
        return FsippProblem(f, g, self.psis, self.p, self.index_set)

    def objective_vector(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.array([f(u) / g(u) for f, g in self.objectives])


def scalarize(mprob: MultiFsippProblem, i: int, u_prev) -> FsippProblem:
    """The stage-i single-objective instance anchored at the point u_prev.

    Component i (1-based) becomes the objective; every other component j
    contributes the cross-constraint
    g_j(u_prev) f_j(x) - f_j(u_prev) g_j(x) <= 0, appended after any
    original constraints.  The anchor is not checked here: the walk
    checks it (:func:`epsilon_constraint_solve`).
    """
    if not 1 <= i <= mprob.t:
        raise ValueError(f"stage index {i} outside 1..{mprob.t}")
    u_prev = np.asarray(u_prev, dtype=float)
    cross = []
    for j, (fj, gj) in enumerate(mprob.objectives, start=1):
        if j == i:
            continue
        cross.append(fj.scale(gj(u_prev)) - gj.scale(fj(u_prev)))
    fi, gi = mprob.objectives[i - 1]
    return FsippProblem(fi, gi, mprob.psis + tuple(cross), mprob.p,
                        mprob.index_set)


@dataclass
class EfficiencyReport:
    """Outcome of the sequential scheme."""

    path: list  # [(stage, point, stage value), ...]
    final_point: np.ndarray
    stopped_by: str  # "Uniqueness" | "Exhausted_t"
    objective_vector: np.ndarray
    traces: list = field(default_factory=list)

    @property
    def verdict(self) -> str:
        """CERTIFIED when the walk stopped on a unique minimizer or every
        stage's run is CERTIFIED, else INCONCLUSIVE."""
        if (self.stopped_by == "Uniqueness"
                or all(t.verdict == "CERTIFIED" for t in self.traces)):
            return "CERTIFIED"
        return "INCONCLUSIVE"


def _check_anchor(mprob: MultiFsippProblem, u, tau: float, what: str):
    """Raise ValueError unless u meets the original constraints within tau."""
    ok, margin = feasibility_check(u, mprob.base_problem(1), tau=tau)
    if not ok:
        raise ValueError(
            f"{what} infeasible: constraint margin {margin:.3e} > {tau}")


def epsilon_constraint_solve(mprob: MultiFsippProblem, u0,
                             opts: RelaxOptions,
                             hints: dict | None = None) -> EfficiencyReport:
    """Run the stages from the initial feasible point u0.

    Each stage scalarizes at the previous point and is set up and solved
    by :func:`relax.solve_hierarchy` as ``fsipp solve`` sets up one
    problem: the settings ``opts``, and the problem file's ``hints`` with
    the stage's anchor as their feasible point (the floor recipe needs a
    point of the stage's feasible set, and a later stage's
    cross-constraints may exclude u0).  Each anchor, u0 first, must meet
    the original constraints within tau, or ValueError names it.  A
    ``case_override`` that does not fit the index set raises ValueError
    before any stage, as in :func:`relax.classify_case`.  The walk returns
    after a stage whose minimizer is verified unique (rank-one certificate
    plus positive definite numerator Hessian under a Case3/Case4 tag), or
    after all t stages.  Failures carry the stage index.

    Stages share p and the index set, so the s.o.s-convexity of p, the
    one SDP of classification, is decided once per walk.
    """
    u_prev = np.asarray(u0, dtype=float)
    _check_anchor(mprob, u_prev, opts.tau, "initial point")
    if opts.case_override is not None:  # reads only p and the index set
        check_tag(mprob.base_problem(1), opts.case_override)
    family = None  # p's s.o.s-convexity verdict, shared by every stage
    path, traces = [], []
    stopped_by = "Exhausted_t"
    for i in range(1, mprob.t + 1):
        try:
            if i > 1:
                _check_anchor(mprob, u_prev, opts.tau, "anchor point")
            sub = scalarize(mprob, i, u_prev)
            trace = solve_hierarchy(
                sub, opts, {**(hints or {}), "feasible_point": u_prev}, family)
            family = trace.family
            if trace.candidate is None:
                statuses = [(row.k, row.dual_status, row.error)
                            for row in trace.rows]
                raise NumericalTroubleError(
                    f"no point recovered; per-order outcomes: {statuses}")
        except Exception as exc:
            raise type(exc)(f"stage {i}: {exc}") from exc
        u_prev = np.asarray(trace.candidate, dtype=float)
        path.append((i, u_prev, trace.r_dual))
        traces.append(trace)
        if (trace.tag in (CaseTag.CASE3, CaseTag.CASE4)
                and trace.certificate is not None
                and trace.certificate.rank_high == 1
                and bool(trace.hessian_pd)):
            stopped_by = "Uniqueness"
            break
    return EfficiencyReport(path=path, final_point=u_prev, stopped_by=stopped_by,
                            objective_vector=mprob.objective_vector(u_prev),
                            traces=traces)


# --------------------------------------------------------------------------
# grid audit
# --------------------------------------------------------------------------


def _audit_y_points(index_set: IndexSet) -> np.ndarray:
    """The index set's y-sweep, by the name ``bench/spans.py`` calls."""
    return index_set.y_sweep()


def _slabs(mprob: MultiFsippProblem, box, grid_size: int):
    """The box's raster (first axis slowest) in slabs of 2^13 points or one row of the
    first axis: each slab's axes, the mask where every psi_j <= 0 and every denominator
    is positive, and each objective's values.  Slabs keep temporaries small enough for
    the heap to reuse; whole 200 x 200 ones page-faulted 1 ms into every audit."""
    if grid_size < 1:
        raise ValueError(f"grid_size must be at least 1; got {grid_size}")
    if len(box) != mprob.m:
        raise ValueError(f"box has {len(box)} axes for {mprob.m} variables")
    axes = [np.linspace(float(lo), float(hi), grid_size) for lo, hi in box]
    rows = max(1, 2 ** 13 // grid_size ** (mprob.m - 1))
    for start in range(0, grid_size, rows):
        sub = [axes[0][start:start + rows], *axes[1:]]
        dens = [g.eval_raster(sub) for _, g in mprob.objectives]
        ok = np.logical_and.reduce([den > 0.0 for den in dens] + [
            psi.eval_raster(sub) <= 0.0 for psi in mprob.psis])
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = [np.divide(f.eval_raster(sub), den, out=den)
                    for (f, _), den in zip(mprob.objectives, dens)]
        yield sub, ok, vals


def _swept_feasible(mprob: MultiFsippProblem, evaluate) -> np.ndarray:
    """Mask of the points whose worst p(x, y) over the y-sweep, in chunks of 2^20
    products, stays below -1e-4, a margin for the sweep's discretization slack
    (``evaluate`` gives a y-slice of p at the points).  Raises ValueError on an empty
    sweep: it refutes nothing, so no point can pass the semi-infinite constraint."""
    ypts = mprob.index_set.y_sweep()
    if not len(ypts):
        raise ValueError("the y-sweep found no point of the index set: its "
                         "grid misses Y, so no point can be checked feasible")
    svals = np.vstack([evaluate(sx) for sx in mprob.p.slices.values()])
    ypows = np.column_stack([np.prod(ypts ** np.array(ymono, dtype=float),
                                     axis=1) for ymono in mprob.p.slices])
    worst = np.full(svals.shape[1], -np.inf)
    step = max(1, 2 ** 20 // svals.shape[1])
    for start in range(0, len(ypts), step):  # one (step, N) product alive
        np.maximum(worst, (ypows[start:start + step] @ svals).max(axis=0), out=worst)
    return worst <= -1e-4


def image_grid(mprob: MultiFsippProblem, box, grid_size: int = 200):
    """Rasterize the box: grid points, a feasibility mask and the t
    objective values per point.

    A point counts as feasible when its worst constraint value over a
    dense y-sweep stays below -1e-4, every scalar constraint holds, and all
    denominators are positive.  Returns ``(points, feasible, values)`` of
    shapes (N, m), (N,), (N, t).  It alone sweeps y at every grid point;
    ``efficiency_audit`` sweeps only the points that dominate its candidate.
    Raises ValueError when the y-sweep has no point or grid_size < 1.
    """
    feasible, values = zip(*[(ok & _swept_feasible(mprob, lambda q: q.eval_raster(sub)),
                              np.column_stack(vals))
                             for sub, ok, vals in _slabs(mprob, box, grid_size)])
    return raster(box, grid_size), np.concatenate(feasible), np.concatenate(values)


def efficiency_audit(mprob: MultiFsippProblem, u_star, grid_size: int = 200,
                     *, box) -> bool:
    """Search a grid over ``box`` for a feasible point dominating u_star.

    Returns False iff some grid point that is feasible with margin at
    least 1e-4 (guarding against the finite y-sweep) improves every
    component within 1e-6 and at least one strictly beyond it.
    True means the falsification attempt found nothing -- evidence, not
    proof, of efficiency.

    The cheap tests run on the whole grid first: the scalar constraints,
    the denominators and dominance of u_star.  The y-sweep then runs only
    on the points that pass them, and not at all when none does, so the
    verdict is that of ``image_grid``'s full mask at a fraction of its
    cost.  Like ``image_grid``, it raises ValueError when it must sweep
    and the y-sweep is empty, and when grid_size < 1.
    """
    star, pts = mprob.objective_vector(u_star), []
    for sub, ok, vals in _slabs(mprob, box, grid_size):
        better = np.zeros_like(ok)
        for v, s in zip(vals, star):
            ok &= v <= s + 1e-6
            better |= v < s - 1e-6
        cand = np.unravel_index(np.flatnonzero(ok & better), [len(a) for a in sub])
        pts.append(np.column_stack([a[i] for a, i in zip(sub, cand)]))
    pts = np.concatenate(pts)
    return not (len(pts) and _swept_feasible(mprob, lambda q: q.eval_many(pts)).any())
