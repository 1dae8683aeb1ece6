"""Batch front end: problem files in, reports out.

Four commands operate on a JSON problem document (schema shipped with the
package): ``classify`` prints the solver route for the instance,
``solve`` runs the relaxation hierarchy and writes a run report,
``certify`` runs the feasibility/stationarity check at a given point, and
``pareto`` runs the sequential efficient-point scheme for files with an
objectives list.  Reports are canonical JSON (sorted keys, two-space
indent, trailing newline) so that byte-identical round-trips hold; trace
rows and image grids can additionally be exported as CSV.

Each verdict is decided by the result it judges; this module renders it.
``solve``: ``relax.HierarchyTrace.verdict``, CERTIFIED on a pinned
optimum, a passed rank certificate or a passing stop test, INFEASIBLE
when every order's moment SDP is PrimalInfeasible, else INCONCLUSIVE.
``certify``: ``certify.KktReport.verdict``, CERTIFIED when the stop test
passes.  ``pareto``: ``multiobj.EfficiencyReport.verdict``, CERTIFIED on
a unique minimizer or when every stage's run is.  Exit status is 0 for
CERTIFIED and INCONCLUSIVE, 1 for INFEASIBLE and 2 for ERROR (bad files,
bad arguments, failed runs).
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import indexset, schemacheck
from .certify import certify_point
from .multiobj import MultiFsippProblem, epsilon_constraint_solve, image_grid
from .poly import BivariatePoly, Polynomial
from .relax import (CaseTag, FsippProblem, HierarchyRow, RelaxOptions,
                    classify_case, solve_hierarchy)

class CliError(Exception):
    """A user-facing failure; carries one message line per finding."""

    def __init__(self, *lines: str):
        super().__init__("\n".join(lines))
        self.lines = list(lines)


def validate_document(doc, name: str) -> list[str]:
    """Schema findings as ``<json-pointer>: <message>`` lines (empty = valid)."""
    findings = sorted(schemacheck.load(name).errors(doc),
                      key=lambda f: [str(p) for p in f[0]])
    return ["/" + "/".join(map(str, path)) + f": {message}"
            for path, message in findings]


# --------------------------------------------------------------------------
# problem-file parsing
# --------------------------------------------------------------------------


def _poly(nvars: int, pairs) -> Polynomial:
    return Polynomial.from_pairs(nvars, pairs)


def _family(items, n_x: int, n_y: int) -> BivariatePoly:
    slices: dict[tuple[int, ...], Polynomial] = {}
    for item in items:
        ymono = tuple(int(e) for e in item["y_monomial"])
        if len(ymono) != n_y:
            raise CliError(f"/p: y_monomial {list(ymono)} does not have "
                           f"length {n_y}")
        px = _poly(n_x, item["coeffs"])
        slices[ymono] = slices[ymono] + px if ymono in slices else px
    return BivariatePoly(n_x, n_y, slices)


class ParsedProblem:
    """A problem document resolved into solver inputs."""

    def __init__(self, doc: dict, args=None):
        findings = validate_document(doc, "problem")
        if findings:
            raise CliError(*[f"schema error at {line}" for line in findings])
        self.doc = doc
        n_x, n_y = int(doc["vars_x"]), int(doc["vars_y"])
        options = dict(doc.get("options", {}))
        self.hints = dict(doc.get("hints", {}))
        psis = tuple(_poly(n_x, q) for q in doc.get("psis", []))
        p = _family(doc["p"], n_x, n_y)
        if doc["index_set"]["kind"] == "interval" and n_y != 1:
            raise CliError("/index_set: the interval index set is univariate "
                           f"but vars_y is {n_y}")
        index_set = indexset.from_doc(doc["index_set"], n_y, options)

        for field in ("k_min", "k_max", "tau", "tol"):
            flag = getattr(args, field, None) if args is not None else None
            if flag is not None:
                options[field if field != "tol" else "sdp_tol"] = flag
        override = options.get("case_override")
        # only the settings given, RelaxOptions holding the defaults; the
        # schema admits integral floats as orders
        given = {key: options[key] for key in ("R", "g_star", "tau", "sdp_tol")
                 if key in options}
        given.update((name, int(options[key])) for key, name
                     in (("k_min", "k_min"), ("k_max", "k")) if key in options)
        self.opts = RelaxOptions(
            case_override=CaseTag(override) if override else None, **given)

        self.single: FsippProblem | None = None
        self.multi: MultiFsippProblem | None = None
        if "objective" in doc:
            f = _poly(n_x, doc["objective"]["f"])
            g = _poly(n_x, doc["objective"]["g"])
            self.single = FsippProblem(f, g, psis, p, index_set)
        else:
            pairs = tuple((_poly(n_x, o["f"]), _poly(n_x, o["g"]))
                          for o in doc["objectives"])
            self.multi = MultiFsippProblem(pairs, p, index_set, psis)

    def require_single(self, command: str) -> FsippProblem:
        if self.single is None:
            raise CliError(f"{command} needs a single objective; "
                           "this file declares an objectives list")
        return self.single

    def require_multi(self, command: str) -> MultiFsippProblem:
        if self.multi is None:
            raise CliError(f"{command} needs an objectives list; "
                           "this file declares a single objective")
        return self.multi


def problem_to_doc(problem, options: dict | None = None,
                   hints: dict | None = None) -> dict:
    """Encode a single- or multi-objective problem as a problem-file
    document (the inverse of parsing)."""
    p = problem.p
    doc = {
        "vars_x": p.n_x,
        "vars_y": p.n_y,
        "psis": [q.to_pairs() for q in problem.psis],
        "p": [{"y_monomial": list(ymono), "coeffs": px.to_pairs()}
              for ymono, px in sorted(p.slices.items())],
        "index_set": problem.index_set.to_doc(),
    }
    if isinstance(problem, MultiFsippProblem):
        doc["objectives"] = [{"f": f.to_pairs(), "g": g.to_pairs()}
                             for f, g in problem.objectives]
    else:
        doc["objective"] = {"f": problem.f.to_pairs(),
                            "g": problem.g.to_pairs()}
    if options:
        doc["options"] = dict(options)
    if hints:
        doc["hints"] = dict(hints)
    return doc


def _load(path: str) -> dict:
    """The file's document; NaN, Infinity and -Infinity are not JSON."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc

    def refuse(literal):
        raise CliError(f"{path} is not JSON: {literal} is not a JSON number")

    try:
        return json.loads(raw, parse_constant=refuse)
    except json.JSONDecodeError as exc:
        raise CliError(f"{path} is not JSON: {exc}") from exc


def problem_sha256(doc: dict) -> str:
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------


def _plain(obj):
    """Make a structure JSON-clean: numpy scalars/arrays to Python types,
    tuples to lists, non-finite floats to null."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        return v if np.isfinite(v) else None
    return obj


def render_report(report: dict) -> str:
    return json.dumps(_plain(report), indent=2, sort_keys=True) + "\n"


def _write_out(text: str, out: str | None):
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _csv_path(out: str) -> Path:
    path = Path(out)
    if path.suffix == ".csv":
        return path.with_suffix(".rows.csv")
    return path.with_suffix(".csv")


def _write_csv(path: Path, header: list[str], rows):
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


EXIT_BY_VERDICT = {"CERTIFIED": 0, "INCONCLUSIVE": 0, "INFEASIBLE": 1,
                   "ERROR": 2}


def _finish(report: dict, out: str | None) -> int:
    _write_out(render_report(report), out)
    return EXIT_BY_VERDICT[report["verdict"]]


def _message(exc: Exception) -> str:
    """A failure's message; a :class:`CliError` carries its own."""
    if isinstance(exc, CliError):
        return str(exc)
    return f"{type(exc).__name__}: {exc}"


def _error_report(command: str, doc, message: str, started: float) -> dict:
    sha = problem_sha256(doc) if isinstance(doc, dict) else "0" * 64
    return {"command": command, "problem_sha256": sha, "verdict": "ERROR",
            "error": message, "timing_seconds": time.perf_counter() - started}


def _row_doc(row) -> dict:
    """A row's report fields, non-finite values nulled for the CSV export."""
    return {
        "k": row.k,
        "r_primal": row.r_primal if np.isfinite(row.r_primal) else None,
        "r_dual": row.r_dual if np.isfinite(row.r_dual) else None,
        "dual_status": row.dual_status,
        "primal_status": row.primal_status,
        # one interior-point solve per order gives both sides' count
        "dual_iterations": row.dual_iterations,
        "primal_iterations": row.dual_iterations,
        "error": row.error,
    }


def _trace_doc(trace) -> dict:
    atoms = None
    if trace.atoms is not None:
        atoms = [{"point": pt, "weight": w} for pt, w in trace.atoms]
    return {
        "tag": trace.tag.value,
        "rows": [_row_doc(r) for r in trace.rows],
        "r_dual": trace.r_dual,
        "r_primal": trace.r_primal,
        "candidate": trace.candidate,
        "atoms": atoms,
        "certificate": trace.certificate and asdict(trace.certificate),
        "kkt": trace.kkt.as_dict() if trace.kkt else None,
        "hessian_pd": trace.hessian_pd,
        "stop_reason": trace.stop_reason,
        "solver": {
            "orders_solved": len(trace.rows),
            "total_iterations": sum(r.dual_iterations for r in trace.rows),
        },
        "verdict": trace.verdict,
    }


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def run_classify(args) -> int:
    doc = _load(args.problem)
    parsed = ParsedProblem(doc, args)
    prob = parsed.single if parsed.single is not None \
        else parsed.multi.base_problem(1)
    lines = []
    if parsed.multi is not None:
        lines.append(f"classifying objective 1 of {parsed.multi.t}")
    override = parsed.opts.case_override
    cls = classify_case(prob, override)
    if override is not None:
        lines.append(f"override: {override.value}")
    elif isinstance(prob.index_set, indexset.Semialgebraic):
        hint = prob.index_set.archimedean_hint
        lines.append("index set: semialgebraic, archimedean hint "
                     + (f"M={hint}" if hint is not None else "not declared"))
    lines += [f"{name}: {'sos-convex' if ok else 'not sos-convex'}"
              for name, ok in cls.findings]
    lines.append(cls.tag.value)
    _write_out("\n".join(lines) + "\n", args.out)
    return 0


def _run(args) -> int:
    """Load the problem file, run the command's body and write its report.

    The body returns the command's report fields and an optional export,
    called with ``args.out`` once the report is written.  Any failure
    before that becomes an ERROR report, whose message is also printed
    to stderr.
    """
    started = time.perf_counter()
    doc = None
    try:
        doc = _load(args.problem)
        fields, export = args.body(ParsedProblem(doc, args), args)
    except Exception as exc:  # noqa: BLE001 - surfaced as ERROR verdict
        message = _message(exc)
        print(message, file=sys.stderr)
        report = _error_report(args.command, doc, message, started)
        return _finish(report, args.out)
    report = {"command": args.command, "problem_sha256": problem_sha256(doc),
              **fields, "timing_seconds": time.perf_counter() - started}
    code = _finish(report, args.out)
    if args.out and export is not None:
        export(args.out)
    return code


def _write_rows_csv(out: str, rows) -> None:
    """The report's rows as CSV: csv writes None as "" and a float as its
    repr."""
    _write_csv(_csv_path(out), list(_row_doc(HierarchyRow(k=0))),
               [list(_row_doc(r).values()) for r in rows])


def run_solve(parsed: ParsedProblem, args):
    trace = solve_hierarchy(parsed.require_single("solve"), parsed.opts,
                            parsed.hints)
    return _trace_doc(trace), lambda out: _write_rows_csv(out, trace.rows)


def _numbers(text: str, what: str) -> list[float]:
    """The finite numbers of a comma-separated list ``what``."""
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise CliError(f"{what} must be comma-separated numbers") from exc
    if not np.isfinite(values).all():
        raise CliError(f"{what} must be finite numbers; got {text}")
    return values


def _parse_point(text: str, m: int, what: str) -> np.ndarray:
    values = _numbers(text, what)
    if len(values) != m:
        raise CliError(f"{what} has {len(values)} coordinates; expected {m}")
    return np.array(values)


def run_certify(parsed: ParsedProblem, args):
    prob = parsed.require_single("certify")
    point = _parse_point(args.point, prob.m, "point")
    kkt = certify_point(point, prob, tau=parsed.opts.tau,
                        sdp_tol=parsed.opts.sdp_tol)
    return {"point": point, "kkt": kkt.as_dict(), "verdict": kkt.verdict}, None


def _parse_box(text: str, m: int) -> list[tuple[float, float]]:
    values = _numbers(text, "--box")
    if len(values) != 2 * m:
        raise CliError(f"--box needs {2 * m} numbers (lo,hi per variable); "
                       f"got {len(values)}")
    box = list(zip(values[0::2], values[1::2]))
    if any(lo >= hi for lo, hi in box):
        raise CliError("--box intervals must have lo < hi")
    return box


def _write_grid_csv(out: str, mprob: MultiFsippProblem, box, grid: int) -> None:
    try:
        pts, feas, vals = image_grid(mprob, box, grid_size=grid)
    except ValueError as exc:  # an empty y-sweep
        raise CliError(f"--box: {exc}") from exc
    header = ([f"x{i + 1}" for i in range(mprob.m)] + ["feasible"]
              + [f"objective{i + 1}" for i in range(mprob.t)])
    # csv writes each float as its repr
    rows = [x + [f] + v for x, f, v in zip(pts.tolist(), feas.astype(int).tolist(),
                                            vals.tolist())]
    _write_csv(_csv_path(out), header, rows)


def run_pareto(parsed: ParsedProblem, args):
    mprob = parsed.require_multi("pareto")
    if args.grid < 1:
        raise CliError(f"--grid must be at least 1; got {args.grid}")
    box = None if args.box is None else _parse_box(args.box, mprob.m)
    if args.u0 is not None:
        u0 = _parse_point(args.u0, mprob.m, "u0")
    elif "feasible_point" in parsed.hints:
        u0 = np.asarray(parsed.hints["feasible_point"], dtype=float)
    else:
        raise CliError("pareto needs an initial point: pass u0 on the "
                       "command line or hints.feasible_point in the file")
    result = epsilon_constraint_solve(mprob, u0, parsed.opts, parsed.hints)
    fields = {
        "stages": [{"stage": i, "point": u, "value": r,
                    "tag": result.traces[i - 1].tag.value,
                    "stop_reason": result.traces[i - 1].stop_reason}
                   for i, u, r in result.path],
        "final_point": result.final_point,
        "objective_vector": result.objective_vector,
        "stopped_by": result.stopped_by,
        "verdict": result.verdict,
    }
    if box is None:
        return fields, None
    return fields, lambda out: _write_grid_csv(out, mprob, box, args.grid)


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: the handlers
    it binds here are the ones every later :func:`main` call runs."""
    parser = argparse.ArgumentParser(
        prog="fsipp",
        description="Solve fractional semi-infinite polynomial programs "
                    "from JSON problem files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--k-min", dest="k_min", type=int, default=None,
                       help="lowest relaxation order")
        p.add_argument("--k-max", dest="k_max", type=int, default=None,
                       help="highest relaxation order")
        p.add_argument("--tau", type=float, default=None,
                       help="feasibility/stationarity tolerance")
        p.add_argument("--tol", type=float, default=None,
                       help="interior-point solver tolerance")
        p.add_argument("--out", default=None, help="write the report here "
                       "instead of stdout (CSV exports go next to it)")

    p = sub.add_parser("classify", help="print the solver route for a file")
    common(p)
    p.set_defaults(handler=run_classify)

    p = sub.add_parser("solve", help="run the relaxation hierarchy")
    common(p)
    p.set_defaults(handler=_run, body=run_solve)

    # let coordinate literals such as "-0.5,-0.5" parse as positional values
    point_matcher = re.compile(r"^-\d+(?:\.\d+)?(?:,-?\d+(?:\.\d+)?)*$")

    p = sub.add_parser("certify",
                       help="check feasibility and stationarity at a point")
    p._negative_number_matcher = point_matcher
    common(p)
    p.add_argument("point", help="comma-separated coordinates, e.g. 0.7,0.6")
    p.set_defaults(handler=_run, body=run_certify)

    p = sub.add_parser("pareto",
                       help="sequential efficient-point scheme for files "
                            "with an objectives list")
    p._negative_number_matcher = point_matcher
    common(p)
    p.add_argument("u0", nargs="?", default=None,
                   help="initial feasible point (falls back to "
                        "hints.feasible_point)")
    p.add_argument("--grid", type=int, default=200,
                   help="image-grid resolution per axis for the CSV export")
    p.add_argument("--box", default=None,
                   help="bounding box as lo,hi pairs, e.g. -1,1,-1,1")
    p.set_defaults(handler=_run, body=run_pareto)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:  # noqa: BLE001 - any failure exits 2 (ERROR)
        print(_message(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
