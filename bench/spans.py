"""Spans around fsipp's layer boundaries, recorded from outside the program.

:class:`Tracer` replaces each boundary function with a wrapper at every
``fsipp`` module that binds it (``solve`` is bound in ``fsipp.sdp``,
``fsipp.relax`` and ``fsipp.certify``, for example), so calls made through
any of those names are recorded.  A span holds its layer name, start,
end, parent span, problem id and a few attributes read from the call's
arguments and result (SDP sizes, iterations, status).  Spans stay in
memory; :meth:`Tracer.dump` writes them out, and :func:`layer_metrics`
turns one pass's spans into the per-layer metrics (their units are the
ones ``BENCHMARK.json`` declares).
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

# (layer, module, function) at each boundary
BOUNDARIES = (
    ("cli.main", "fsipp.cli", "main"),
    ("relax.hierarchy", "fsipp.relax", "solve_hierarchy"),
    ("relax.classify", "fsipp.relax", "classify_case"),
    ("relax.compile", "fsipp.relax", "build_dual_sdp"),
    ("relax.compile", "fsipp.relax", "build_primal_sdp"),
    ("sdp.solve", "fsipp.sdp.solver", "solve"),
    ("extract", "fsipp.extract", "point_from_functional"),
    ("extract.rank", "fsipp.extract", "flat_truncation_check"),
    ("extract", "fsipp.extract", "extract_atoms"),
    ("certify.stoptest", "fsipp.certify", "certify_point"),
    ("certify.inner", "fsipp.certify", "lower_level_solve"),
    ("certify.nnls", "fsipp.certify", "nnls"),
    ("certify.sos_convexity", "fsipp.certify", "sos_convexity_check"),
    ("multiobj.walk", "fsipp.multiobj", "epsilon_constraint_solve"),
    ("multiobj.audit", "fsipp.multiobj", "efficiency_audit"),
)

# the nearest of these ancestors of an SDP solve says what it was for
_SOLVE_PURPOSE = {"relax.hierarchy": "relax",
                  "certify.sos_convexity": "classify",
                  "certify.inner": "inner"}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    problem: str = ""
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sdp_attrs(prob, sol) -> dict:
    """The SDP census of one solve.  The Schur figures are computed from
    sizes for a dense Schur complement: per iteration, assembly costs
    4*p*d^3 per PSD block of dim d plus a p^3/3 Cholesky, and assembly
    reads a (p, d, d) float64 tensor per block."""
    p = int(prob.A.shape[0])
    psd = [b.dim for b in prob.blocks if type(b).__name__ == "PsdBlock"]
    iters = int(sol.iterations)
    return {"rows": p, "nnz": int(prob.A.nnz), "psd": psd,
            "iterations": iters, "status": sol.status,
            "schur_gflop": iters * (sum(4.0 * p * d ** 3 for d in psd)
                                    + p ** 3 / 3.0) / 1e9,
            "schur_tensor_mb": 8.0 * p * sum(d * d for d in psd) / 1e6}


def _audit_evals(args, kwargs) -> int:
    from fsipp import multiobj
    mprob = args[0]
    grid = kwargs.get("grid_size", args[2] if len(args) > 2 else 200)
    ys = multiobj._audit_y_points(mprob.index_set)
    return int(grid ** mprob.m * len(ys))


def _attrs(name: str, args, kwargs, result) -> dict:
    if name == "sdp.solve":
        return _sdp_attrs(args[0], result)
    if name == "extract.rank":
        return {"passed": result is not None and bool(result.passed)}
    if name == "relax.hierarchy":
        return {"orders": len(result.rows)}
    if name == "multiobj.audit":
        return {"evals": _audit_evals(args, kwargs)}
    return {}


class Tracer:
    """Installs the wrappers on entry and restores the originals on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.problem = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack
                        else None, problem=self.problem)
            idx = len(self.spans)
            self.spans.append(span)
            self._stack.append(idx)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = time.perf_counter()
                span.attrs = {"raised": type(exc).__name__}
                if name == "sdp.solve":
                    span.attrs["status"] = "raised"
                raise
            finally:
                self._stack.pop()
            span.end = time.perf_counter()
            span.attrs = _attrs(name, args, kwargs, result)
            return result
        return wrapper

    def __enter__(self):
        modules = [m for n, m in sys.modules.items()
                   if n == "fsipp" or n.startswith("fsipp.")]
        for name, modname, attr in BOUNDARIES:
            orig = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, orig)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self._patched):
            setattr(mod, key, orig)
        self._patched.clear()
        return False

    def dump(self, path: Path):
        path.write_text(json.dumps([asdict(s) for s in self.spans]),
                        encoding="utf-8")


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


def _self_seconds(spans: list[Span], index: dict) -> dict[int, float]:
    """Span id -> its duration minus what its direct children cover."""
    child = {i: 0.0 for i in index}
    for i, s in index.items():
        if s.parent in child:
            child[s.parent] += s.seconds
    return {i: s.seconds - child[i] for i, s in index.items()}


def _purpose(i: int, spans: list[Span]) -> str:
    parent = spans[i].parent
    while parent is not None:
        purpose = _SOLVE_PURPOSE.get(spans[parent].name)
        if purpose:
            return purpose
        parent = spans[parent].parent
    return "other"


def layer_metrics(spans: list[Span], ids: list[int]) -> dict[str, float]:
    """Per-layer metrics of the spans with the given ids (one pass)."""
    index = {i: spans[i] for i in ids}
    self_s = _self_seconds(spans, index)

    def of(name):
        return [i for i, s in index.items() if s.name == name]

    def total(name):
        return sum(index[i].seconds for i in of(name))

    m = {
        "cli.calls": len(of("cli.main")),
        "cli.self_s": sum(self_s[i] for i in of("cli.main")),
        "relax.classify.calls": len(of("relax.classify")),
        "relax.classify.s": total("relax.classify"),
        "certify.sos_convexity.calls": len(of("certify.sos_convexity")),
        "certify.sos_convexity.s": total("certify.sos_convexity"),
        "relax.compile.calls": len(of("relax.compile")),
        "relax.compile.s": total("relax.compile"),
        "relax.orders": sum(index[i].attrs.get("orders", 0)
                            for i in of("relax.hierarchy")),
        "relax.hierarchy.self_s": sum(self_s[i]
                                      for i in of("relax.hierarchy")),
        "certify.stoptest.calls": len(of("certify.stoptest")),
        "certify.stoptest.s": total("certify.stoptest"),
        "certify.inner.calls": len(of("certify.inner")),
        "certify.inner.s": total("certify.inner"),
        "certify.nnls.s": total("certify.nnls"),
        "multiobj.walk.self_s": sum(self_s[i] for i in of("multiobj.walk")),
        "multiobj.stages": sum(1 for i in of("relax.hierarchy")
                               if index[i].parent is not None
                               and spans[index[i].parent].name
                               == "multiobj.walk"),
        "multiobj.audit.s": total("multiobj.audit"),
        "multiobj.audit.evals": sum(index[i].attrs.get("evals", 0)
                                    for i in of("multiobj.audit")),
    }

    solves = of("sdp.solve")
    m["sdp.solve.calls"] = len(solves)
    m["sdp.solve.s"] = total("sdp.solve")
    for purpose in ("relax", "classify", "inner"):
        mine = [i for i in solves if _purpose(i, spans) == purpose]
        m[f"sdp.{purpose}.calls"] = len(mine)
        m[f"sdp.{purpose}.s"] = sum(index[i].seconds for i in mine)
    sized = [index[i].attrs for i in solves if "rows" in index[i].attrs]
    iters = sum(a["iterations"] for a in sized)
    m["sdp.iterations"] = iters
    m["sdp.s_per_iter"] = m["sdp.solve.s"] / iters if iters else 0.0
    m["sdp.not_optimal"] = sum(1 for i in solves
                               if index[i].attrs.get("status") != "Optimal")
    m["sdp.rows_max"] = max((a["rows"] for a in sized), default=0)
    m["sdp.rows_sum"] = sum(a["rows"] for a in sized)
    m["sdp.nnz_max"] = max((a["nnz"] for a in sized), default=0)
    m["sdp.psd_dim_max"] = max((d for a in sized for d in a["psd"]), default=0)
    m["sdp.schur_gflop"] = sum(a["schur_gflop"] for a in sized)
    m["sdp.schur_tensor_mb"] = max((a["schur_tensor_mb"] for a in sized),
                                   default=0.0)

    extract = of("extract") + of("extract.rank")
    ranks = of("extract.rank")
    m["extract.calls"] = len(extract)
    m["extract.s"] = sum(index[i].seconds for i in extract)
    passed = sum(1 for i in ranks if index[i].attrs.get("passed"))
    m["extract.cert_ratio"] = passed / len(ranks) if ranks else 0.0
    return m


def _is_count(unit: str) -> bool:
    return unit.startswith("count")


def median_metrics(per_pass: list[dict[str, float]],
                   units: dict[str, str]) -> dict[str, float]:
    """Median of each metric over passes; counts (by their unit in
    ``units``) take the lower median, which is their value when they
    repeat."""
    return {k: (statistics.median_low if _is_count(units.get(k, ""))
                else statistics.median)(p[k] for p in per_pass)
            for k in per_pass[0]}


def counts_repeat(per_pass: list[dict[str, float]],
                  units: dict[str, str]) -> bool:
    """Do all count metrics read the same in every pass?"""
    counts = [k for k in per_pass[0] if _is_count(units.get(k, ""))]
    return all(p[k] == per_pass[0][k] for p in per_pass for k in counts)
