"""Self-test of the benchmark's metric names and correctness gate.

    python3 bench/selftest.py

Exits 1 if ``BENCHMARK.json`` and the benchmark disagree on a workload or
metric name, if a doctored reference does not trip the correctness gate,
or if the gate excuses a known-defect-shaped failure on a problem that is
not known to fail that way (or fails to excuse one that is).  It solves a few cheap problems (a few seconds).
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run  # sets the BLAS thread pins before numpy loads

sys.path.insert(0, str(run.SRC))

import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

CHEAP = ("solve-case1", "solve-case3-k4", "certify-quarter",
         "solve-planted-1", "walk-III", "walk-identical")


def check_names(errors: list[str]):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        errors.append("workload names differ from run.WORKLOADS")

    sample = [(1.0, [("p", 0.5, "solve", None)], range(0))]
    produced = {"end_to_end": run.end_to_end(sample, [0.5])[0],
                "per_layer": spans.layer_metrics([], [])}
    for section, metrics in produced.items():
        differ = set(metrics) ^ set(run.declared_units(section))
        if differ:
            errors.append(f"{section} metrics differ from BENCHMARK.json: "
                          f"{sorted(differ)}")


def _doctor(key: str, value):
    """A reference entry moved well past its tolerance."""
    if key in ("value", "p_star"):
        return (value[0] + 10 * value[1], value[1])
    if key in ("point", "active", "final"):
        return (tuple(c + 10 * value[1] for c in value[0]), value[1])
    if key == "atoms":
        return ([tuple(c + 10 * value[1] for c in a) for a in value[0]],
                value[1])
    if key == "rank":
        return (value[0] + 1, value[1] + 1)
    if key in ("omega_max", "final_is_stage1"):
        return -1.0
    if key == "stages":
        return value + 1
    if key == "audit":
        return not value
    return f"not-{value}"  # tag, stopped_by, tau


def _fails_gate(problem, kind, output) -> bool:
    """Does one failed output of ``problem`` make the gate fail?"""
    passes = [(0.0, [(problem.name, 0.0, kind, output)], range(0))]
    attempted, failed, correct, _ = run.judge([problem], passes)
    return (attempted, failed) == (1, 1) and not correct


def check_known_defect(errors: list[str], problems: dict):
    """Only the problems in reference.KNOWN_DEFECT, failing the known way,
    leave the gate passing; the same failure anywhere else fails it."""
    report = {"verdict": "INCONCLUSIVE", "candidate": None,
              "rows": [{"k": 2, "dual_status": "NumericalTrouble"}]}
    trouble = (0, json.dumps(report))
    other = (0, json.dumps({**report, "rows": [{"dual_status": "Optimal"}]}))
    raised = "NumericalTroubleError: stage 1: no point recovered"
    cases = [  # (problem, kind, output, should the gate fail?)
        ("solve-quarter-k6", "solve", trouble, True),
        ("solve-quarter-k6", "raised", raised, True),
        ("solve-case1", "solve", trouble, True),
        ("solve-planted-0", "solve", trouble, True),
        ("walk-I", "raised", raised, True),
        ("walk-identical", "raised", "ValueError: boom", True),
        ("solve-planted-384", "solve", other, True),
        ("walk-identical", "raised", raised, False),
        ("solve-planted-384", "solve", trouble, False),
    ]
    for name, kind, output, should_fail in cases:
        if _fails_gate(problems[name], kind, output) != should_fail:
            errors.append(f"{name}: a {kind} failure like {output!r} "
                          f"{'passed' if should_fail else 'failed'} the gate")


def check_gate(errors: list[str]):
    run.OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        # routes seed 48 draws planted seeds 384-391
        problems = {p.name: p for p in
                    workloads.build("routes", 0, workdir)
                    + workloads.build("routes", 48, workdir)
                    + workloads.build("deep", 0, workdir)
                    + workloads.build("pareto", 0, workdir)}
        check_known_defect(errors, problems)
        for name in CHEAP:
            problem = problems[name]
            _, kind, output = run.run_problem(problem)
            if kind == "raised":
                if not reference.excused(name, kind, output):
                    errors.append(f"{name} raised outside the known defect: "
                                  f"{output}")
                continue
            if reference.misses(kind, problem.reference, output):
                errors.append(f"{name} misses its true reference")
                continue
            for key in problem.reference:
                doctored = copy.deepcopy(problem.reference)
                doctored[key] = _doctor(key, doctored[key])
                bad = workloads.Problem(name, kind, problem.run, doctored)
                passes = [(0.0, [(name, 0.0, kind, output)], range(0))]
                attempted, failed, correct, _ = run.judge([bad], passes)
                if (attempted, failed, correct) != (1, 1, False):
                    errors.append(f"{name}: doctored {key!r} did not trip "
                                  "the gate")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    errors: list[str] = []
    check_names(errors)
    check_gate(errors)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest: " + ("FAIL" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
