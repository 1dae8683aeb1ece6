"""Reference table and correctness gate for the benchmark's problems.

Every problem a workload runs has an entry here.  Tolerances are the ones
``tests/test_acceptance.py`` pins: values and points at 1e-3 on the exact
routes, 2e-3 on the rank and general routes, 5e-3 on efficient points.
Planted instances are checked against their exact minimum ``c0`` and
argmin at 1e-3.  :func:`misses` returns one line per way an output
missed its reference; an empty list means the problem passed.
:func:`excused` says which failures leave the gate passing: only those
of the problems in :data:`KNOWN_DEFECT`, failing the known way.
"""

from __future__ import annotations

import json

import numpy as np

# acceptance boxes of the four packaged walks (tests/conftest.py)
AUDIT_BOXES = {
    "I": ((-2.7, 0.75), (-0.65, 2.7)),
    "II": ((-1.0, 1.0), (-1.0, 1.0)),
    "III": ((-1.6, 1.6), (-1.6, 1.6)),
    "IV": ((-1.6, 1.6), (-1.6, 1.6)),
}
AUDIT_GRID = 200

QUARTER_VALUE = (0.0274, 2e-3)
QUARTER_POINT = ((0.7377, 0.6033), 2e-3)

REFERENCES = {
    # test_01
    "solve-case1": {"tag": "Case1", "value": (0.25, 1e-3),
                    "point": ((-0.5, -0.5), 1e-3)},
    # test_02
    "solve-case2": {"tag": "Case2", "value": (0.5, 1e-3),
                    "point": ((0.5, 0.5), 1e-3)},
    # test_03
    "solve-case3-k4": {"tag": "Case3", "value": (-0.8745, 2e-3),
                       "rank": (1, 1), "atoms": ([(0.9044, 0.8460)], 2e-3)},
    # test_04
    "solve-case4-k4": {"tag": "Case4", "rank": (1, 1),
                       "atoms": ([(0.7211, 0.6912)], 2e-3)},
    # test_05, hierarchy part
    "solve-quarter-k4": {"tag": "General", "value": QUARTER_VALUE,
                         "point": QUARTER_POINT},
    "solve-quarter-k5": {"tag": "General", "value": QUARTER_VALUE,
                         "point": QUARTER_POINT},
    "solve-quarter-k6": {"tag": "General", "value": QUARTER_VALUE,
                         "point": QUARTER_POINT},
    # test_05, stop-test part
    "certify-quarter": {"p_star": (6.7654e-5, 5e-4),
                        "active": ((0.775, 0.6315), 2e-3),
                        "omega_max": 1e-4, "tau": 1e-3},
    # test_06
    "walk-I": {"final": ((-0.2138, 0.8319), 5e-3), "audit": True},
    "walk-II": {"final": ((0.6822, -0.1476), 5e-3), "audit": True},
    "walk-III": {"final": ((0.000, -0.1623), 5e-3), "audit": True,
                 "stopped_by": "Uniqueness", "stages": 1},
    "walk-IV": {"final": ((0.1231, 0.000), 5e-3), "audit": True,
                "stopped_by": "Uniqueness", "stages": 1},
    # test_multiobj.py: identical objectives keep the stage-1 minimizer
    "walk-identical": {"final": ((0.3, -0.2), 1e-4),
                       "stopped_by": "Exhausted_t", "stages": 2,
                       "final_is_stage1": 1e-4},
}


# The problems that fail today because the interior-point method leaves
# the cone on small moment-side SDPs and ends NumericalTrouble (ROADMAP
# item 1): the identical-objective walk, and the Case1 planted quadratics
# among seeds 0-999 (the only planted seeds a workload draws) that it hits.
KNOWN_DEFECT = frozenset(
    ["walk-identical"]
    + [f"solve-planted-{s}" for s in (384, 434, 464, 632, 652, 686, 756)])


def planted_reference(tag: str, c0: float, argmin) -> dict:
    """Reference of one planted convex quadratic: exact minimum and argmin."""
    return {"tag": tag, "value": (float(c0), 1e-3),
            "point": (tuple(float(a) for a in argmin), 1e-3)}


# --------------------------------------------------------------------------
# the gate
# --------------------------------------------------------------------------


def _near(got, want, tol) -> bool:
    if got is None:
        return False
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= tol))


def _solve_misses(ref: dict, report: dict) -> list[str]:
    out = []
    if report.get("verdict") != "CERTIFIED":
        out.append(f"verdict {report.get('verdict')}, want CERTIFIED")
    if "tag" in ref and report.get("tag") != ref["tag"]:
        out.append(f"tag {report.get('tag')}, want {ref['tag']}")
    if "value" in ref and not _near(report.get("r_dual"), *ref["value"]):
        out.append(f"value {report.get('r_dual')}, want {ref['value'][0]} "
                   f"+/- {ref['value'][1]}")
    if "point" in ref and not _near(report.get("candidate"), *ref["point"]):
        out.append(f"point {report.get('candidate')}, want {ref['point'][0]} "
                   f"+/- {ref['point'][1]}")
    if "rank" in ref:
        cert = report.get("certificate") or {}
        got = (cert.get("rank_low"), cert.get("rank_high"))
        if not cert.get("passed") or got != ref["rank"]:
            out.append(f"rank certificate {got} passed={cert.get('passed')}, "
                       f"want {ref['rank']} passed")
    if "atoms" in ref:
        want, tol = ref["atoms"]
        atoms = [a["point"] for a in report.get("atoms") or []]
        if len(atoms) != len(want) or not all(
                any(_near(a, w, tol) for a in atoms) for w in want):
            out.append(f"atoms {atoms}, want {list(want)} +/- {tol}")
    return out


def _certify_misses(ref: dict, report: dict) -> list[str]:
    out = []
    kkt = report.get("kkt") or {}
    if report.get("verdict") != "CERTIFIED":
        out.append(f"verdict {report.get('verdict')}, want CERTIFIED")
    if kkt.get("tau") != ref["tau"]:
        out.append(f"tau {kkt.get('tau')}, want {ref['tau']}")
    if not _near(kkt.get("p_star"), *ref["p_star"]):
        out.append(f"p_star {kkt.get('p_star')}, want {ref['p_star'][0]} "
                   f"+/- {ref['p_star'][1]}")
    active = kkt.get("Lambda") or []
    if not active or not all(_near(y, *ref["active"]) for y in active):
        out.append(f"active index points {active}, want {ref['active'][0]} "
                   f"+/- {ref['active'][1]}")
    omega = kkt.get("omega")
    if omega is None or omega > ref["omega_max"]:
        out.append(f"omega {omega}, want <= {ref['omega_max']}")
    if not (kkt.get("feasible_within_tau") and kkt.get("passes")):
        out.append("stop test did not pass")
    return out


def _walk_misses(ref: dict, outcome) -> list[str]:
    report, audit = outcome
    out = []
    if not _near(report.final_point, *ref["final"]):
        out.append(f"final point {np.asarray(report.final_point).tolist()}, "
                   f"want {ref['final'][0]} +/- {ref['final'][1]}")
    if "stopped_by" in ref and report.stopped_by != ref["stopped_by"]:
        out.append(f"stopped by {report.stopped_by}, want {ref['stopped_by']}")
    if "stages" in ref and len(report.path) != ref["stages"]:
        out.append(f"{len(report.path)} stages, want {ref['stages']}")
    if "final_is_stage1" in ref and (
            not report.path or not _near(report.final_point, report.path[0][1],
                                         ref["final_is_stage1"])):
        out.append("final point moved away from the stage-1 minimizer")
    if "audit" in ref and audit is not ref["audit"]:
        out.append(f"efficiency audit returned {audit}, want {ref['audit']}")
    return out


def misses(kind: str, ref: dict, output) -> list[str]:
    """How ``output`` missed ``ref``; empty when the problem passed.

    ``kind`` is ``solve`` or ``certify`` for CLI problems, whose output is
    ``(exit code, report text)``, and ``walk`` for a walk plus its audit,
    whose output is ``(EfficiencyReport, audit result or None)``.
    """
    if kind == "walk":
        return _walk_misses(ref, output)
    code, text = output
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"exit {code}, report is not JSON: {exc}"]
    out = [] if code == 0 else [f"exit code {code}"]
    if kind == "solve":
        return out + _solve_misses(ref, report)
    return out + _certify_misses(ref, report)


def excused(name: str, kind: str, output) -> bool:
    """May this failure leave the correctness gate passing?

    Only a problem named in :data:`KNOWN_DEFECT`, and only when it fails
    the way that defect makes it fail: a walk raises
    ``NumericalTroubleError``, and a solve report has no candidate and a
    moment-side row that ended ``NumericalTrouble``.  Any other failure,
    on any problem, fails the gate.  Excused failures still count as
    failed.
    """
    if name not in KNOWN_DEFECT:
        return False
    if kind == "raised":
        return output.startswith("NumericalTroubleError:")
    if kind != "solve":
        return False
    try:
        report = json.loads(output[1])
    except json.JSONDecodeError:
        return False
    return report.get("candidate") is None and any(
        r.get("dual_status") == "NumericalTrouble"
        for r in report.get("rows") or [])
