"""The benchmark's workloads: which problems each one runs, and how.

A problem is one CLI command run in-process through ``fsipp.cli.main``
(its report captured from stdout), or one biobjective walk followed by its
grid audit.  Problem files are written by :func:`build`, which is also
what the set-up time measures.  ``fsipp`` must be importable (``run.py``
puts the checkout's ``src/`` on the path).

* ``routes`` -- every packaged single-objective instance through
  ``fsipp solve`` at its pinned orders, ``fsipp certify`` at the quarter
  circle's candidate, and 8 planted convex quadratics chosen by the seed
  from planted seeds 0-999 (4 Case1, 4 General at k=2).  Small SDPs;
  classification, per-solve fixed cost and step-length eigen-solves
  dominate.
* ``deep`` -- the quarter circle at single orders k=5 and k=6.  The only
  large SDPs: Schur assembly and factorization dominate.
* ``pareto`` -- the four packaged walks, each followed by a 200x200 grid
  audit, and the identical-objective walk.  Many tiny SDPs, repeated
  classification, inner feasibility solves and the numpy grid audit.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from fsipp import cli, instances, multiobj
from fsipp.poly import BivariatePoly, Polynomial
from fsipp.relax import Interval, RelaxOptions

import reference

PLANTED_PER_SEED = 8
# planted seeds 0-999, whose outcomes are known (reference.KNOWN_DEFECT)
PLANTED_SEEDS = 1000


@dataclass
class Problem:
    """One unit of the closed loop: ``run()`` does the work, ``kind`` and
    ``reference`` tell the gate how to check what it returned."""

    name: str
    kind: str  # "solve" | "certify" | "walk"
    run: Callable[[], Any]
    reference: dict


def _cli(argv: list[str]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _options_doc(opts: RelaxOptions) -> dict:
    doc = {}
    if opts.R is not None:
        doc["R"] = opts.R
    if opts.g_star is not None:
        doc["g_star"] = opts.g_star
    if opts.k is not None:
        doc["k_max"] = opts.k
    if opts.case_override is not None:
        doc["case_override"] = opts.case_override.value
    return doc


def _write(workdir: Path, stem: str, prob, opts: RelaxOptions) -> str:
    path = workdir / f"{stem}.json"
    doc = cli.problem_to_doc(prob, _options_doc(opts))
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
    return str(path)


def _solve(name: str, path: str, k: int | None, ref: dict | None = None):
    argv = ["solve", path]
    if k is not None:
        argv += ["--k-min", str(k), "--k-max", str(k)]
    if ref is None:
        ref = reference.REFERENCES[name]
    return Problem(name, "solve", lambda: _cli(argv), ref)


def planted_seeds(seed: int) -> list[int]:
    """The planted-instance seeds of a workload seed: 4 even, 4 odd, all
    below PLANTED_SEEDS (workload seeds repeat every 125)."""
    first = PLANTED_PER_SEED * seed % PLANTED_SEEDS
    return [first + j for j in range(PLANTED_PER_SEED)]


def _routes(workdir: Path, seed: int) -> list[Problem]:
    probs = []
    packaged = [("case1", instances.case1_problem, None),
                ("case2", instances.case2_problem, None),
                ("case3-k4", instances.case3_problem, 4),
                ("case4-k4", instances.case4_problem, 4),
                ("quarter-k4", instances.quarter_circle_problem, 4)]
    for stem, make, k in packaged:
        prob, opts = make()
        probs.append(_solve(f"solve-{stem}", _write(workdir, stem, prob, opts),
                            k))
    quarter = str(workdir / "quarter-k4.json")
    probs.append(Problem("certify-quarter", "certify",
                         lambda: _cli(["certify", quarter, "0.7377,0.6033"]),
                         reference.REFERENCES["certify-quarter"]))
    for ps in planted_seeds(seed):
        prob, opts, c0, argmin = instances.planted_convex_quadratic(ps)
        general = ps % 2 == 1
        ref = reference.planted_reference(
            "General" if general else "Case1", c0, argmin)
        probs.append(_solve(f"solve-planted-{ps}",
                            _write(workdir, f"planted-{ps}", prob, opts),
                            2 if general else None, ref))
    return probs


def _deep(workdir: Path) -> list[Problem]:
    prob, opts = instances.quarter_circle_problem()
    path = _write(workdir, "quarter", prob, opts)
    return [_solve(f"solve-quarter-k{k}", path, k) for k in (5, 6)]


def identical_pair_problem() -> multiobj.MultiFsippProblem:
    """Two identical objectives: the walk must keep the stage-1 minimizer
    (0.3, -0.2).  Same instance as in tests/test_multiobj.py."""
    f = Polynomial(2, {(2, 0): 1.0, (1, 0): -0.6, (0, 2): 1.0, (0, 1): 0.4,
                       (0, 0): 0.2})
    g = Polynomial.constant(2, 1.0)
    psi = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -2.0})
    joint = Polynomial(3, {(1, 0, 1): 1.0, (0, 0, 0): -2.0})
    p = BivariatePoly.from_joint(joint, 2, 1)
    return multiobj.MultiFsippProblem(objectives=((f, g), (f, g)), p=p,
                                      index_set=Interval(), psis=(psi,))


def _walk(mprob, u0, opts, box):
    report = multiobj.epsilon_constraint_solve(mprob, u0, opts)
    audit = None
    if box is not None:
        audit = multiobj.efficiency_audit(mprob, report.final_point,
                                          grid_size=reference.AUDIT_GRID,
                                          box=box)
    return report, audit


def _pareto() -> list[Problem]:
    makers = {"I": instances.biobjective_case1,
              "II": instances.biobjective_case2,
              "III": instances.biobjective_case3,
              "IV": instances.biobjective_case4}
    probs = []
    for label, make in makers.items():
        mprob, u0, opts = make()
        box = reference.AUDIT_BOXES[label]
        probs.append(Problem(
            f"walk-{label}", "walk",
            lambda m=mprob, u=u0, o=opts, b=box: _walk(m, u, o, b),
            reference.REFERENCES[f"walk-{label}"]))
    mprob = identical_pair_problem()
    probs.append(Problem(
        "walk-identical", "walk",
        lambda: _walk(mprob, np.zeros(2), RelaxOptions(), None),
        reference.REFERENCES["walk-identical"]))
    return probs


def build(workload: str, seed: int, workdir: Path) -> list[Problem]:
    """Write the workload's problem files into ``workdir`` and return its
    problems in pass order."""
    if workload == "routes":
        return _routes(workdir, seed)
    if workload == "deep":
        return _deep(workdir)
    if workload == "pareto":
        return _pareto()
    raise ValueError(f"unknown workload {workload!r}")


def warmup(workload: str, problems: list[Problem], workdir: Path):
    """Problems run once, untimed, before measuring.

    A full pass, except on ``deep``, whose lazy set-up (schemas, code
    paths, BLAS) is the same at order 4 at a tenth of the cost.
    """
    if workload == "deep":
        return [_solve("solve-quarter-k4", str(workdir / "quarter.json"), 4)]
    return problems


def fingerprint(kind: str, output) -> str:
    """A canonical text of a problem's output, for bit-identity checks
    (the CLI's own ``timing_seconds`` is left out)."""
    if kind == "raised":
        return output
    if kind == "walk":
        report, audit = output
        path = [(i, np.asarray(u).tobytes().hex(), float(r).hex())
                for i, u, r in report.path]
        return repr((np.asarray(report.final_point).tobytes().hex(),
                     report.stopped_by, path, audit))
    code, text = output
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        return f"{code}:{text}"
    doc.pop("timing_seconds", None)
    return f"{code}:{json.dumps(doc, sort_keys=True)}"
