"""Tests for the batch front end: document validation, the four commands,
report schemas, exit codes and CSV exports."""

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsipp import cli, instances, relax
from fsipp.cli import (EXIT_BY_VERDICT, ParsedProblem, main, problem_sha256,
                       problem_to_doc, render_report, validate_document)
from fsipp.indexset import Interval
from fsipp.multiobj import scalarize
from fsipp.poly import BivariatePoly, Polynomial
from fsipp.relax import FsippProblem

from test_multiobj import _arc_pair


def run(argv):
    """Invoke the command line in-process, capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def checked(text: str) -> dict:
    report = json.loads(text)
    problems = validate_document(report, "report")
    assert not problems, problems[0]
    return report


def _options_doc(opts) -> dict:
    doc = {}
    if opts.R is not None:
        doc["R"] = opts.R
    if opts.g_star is not None:
        doc["g_star"] = opts.g_star
    if opts.k is not None:
        doc["k_min"] = opts.k
        doc["k_max"] = opts.k
    if opts.case_override is not None:
        doc["case_override"] = opts.case_override.value
    return doc


def _write(tmp, name, doc):
    path = tmp / name
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("problems")
    out = {}
    prob, _ = instances.case1_problem()
    out["case1"] = _write(tmp, "case1.json", problem_to_doc(prob))

    prob, opts = instances.case4_problem()
    out["case4"] = _write(tmp, "case4.json",
                          problem_to_doc(prob, options=_options_doc(opts)))

    prob, opts = instances.quarter_circle_problem()
    quarter_opts = _options_doc(opts)
    quarter_opts.pop("case_override")  # the route is inferred for this shape
    out["quarter"] = _write(tmp, "quarter.json",
                            problem_to_doc(prob, options=quarter_opts))

    doc = problem_to_doc(instances.case1_problem()[0])
    doc["p"] = [{"y_monomial": [0], "coeffs": [[[0, 0], 1.0]]}]
    out["infeasible"] = _write(tmp, "infeasible.json", doc)

    prob = replace(instances.case1_problem()[0], psis=(
        Polynomial(2, {(0, 0): 1.0, (1, 0): -1.0}),
        Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0})))
    out["strongly_infeasible"] = _write(tmp, "strongly_infeasible.json",
                                        problem_to_doc(prob))

    bad = problem_to_doc(instances.case1_problem()[0])
    bad["objective"]["f"][0][0] = [2, -1]
    out["bad"] = _write(tmp, "bad.json", bad)

    mprob, u0, _ = instances.biobjective_case1()
    out["pair"] = _write(tmp, "pair.json",
                         problem_to_doc(mprob,
                                        hints={"feasible_point": list(u0)}))
    out["pair_bare"] = _write(tmp, "pair_bare.json", problem_to_doc(mprob))

    mprob, u0, opts = _arc_pair()
    out["arc_pair"] = _write(tmp, "arc_pair.json",
                             problem_to_doc(mprob, options=_options_doc(opts),
                                            hints={"feasible_point": list(u0)}))

    text = tmp / "broken.txt"
    text.write_text("not json {", encoding="utf-8")
    out["notjson"] = str(text)
    out["dir"] = tmp
    return out


@pytest.fixture(scope="module")
def quarter_solved(files):
    code, out, err = run(["solve", files["quarter"]])
    return code, checked(out)


# ------------------------------------------------------------- documents

def test_problem_documents_validate(files):
    for key in ("case1", "case4", "quarter", "pair"):
        doc = json.loads(open(files[key], encoding="utf-8").read())
        assert validate_document(doc, "problem") == []


def test_validation_reports_json_pointers():
    doc = problem_to_doc(instances.case1_problem()[0])
    doc["objective"]["f"][0][0] = [2, -1]
    findings = validate_document(doc, "problem")
    assert any("/objective/f/0/0" in line for line in findings)


def test_problem_sha_is_canonical(files):
    doc = json.loads(open(files["case1"], encoding="utf-8").read())
    reordered = json.loads(json.dumps(doc, sort_keys=True))
    assert problem_sha256(doc) == problem_sha256(reordered)
    assert len(problem_sha256(doc)) == 64


@pytest.mark.parametrize("make, where", [
    (instances.case1_problem, None),
    (instances.case2_problem, None),
    (instances.quarter_circle_problem, None),
    (instances.quarter_circle_problem, "index_set"),
    (instances.quarter_circle_problem, "options"),
], ids=["interval", "quadratic", "semialgebraic", "hint-in-index-set",
        "hint-in-options"])
def test_the_index_set_round_trips_through_the_file_form(make, where):
    prob = make()[0]
    if where is not None:
        prob = replace(prob, index_set=replace(prob.index_set,
                                               archimedean_hint=2.5))
    doc = problem_to_doc(prob)
    if where == "options":  # the hint may also stand in the options
        doc["options"] = {"archimedean_hint":
                          doc["index_set"].pop("archimedean_hint")}
    assert validate_document(doc, "problem") == []
    parsed = ParsedProblem(doc).single.index_set
    assert parsed == prob.index_set


# ------------------------------------------------------------- classify

def test_classify_prints_findings_then_tag(files):
    code, out, _ = run(["classify", files["case1"]])
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[-1] == "Case1"
    assert "f: sos-convex" in lines
    assert "p: sos-convex" in lines


def test_classify_solves_the_family_sdp_once(tmp_path, monkeypatch):
    # The listing's findings decide the tag: the case2 family's
    # s.o.s-convexity SDP is solved once, not again for the tag.
    from fsipp import certify
    calls = []
    real = certify.membership_margin

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "membership_margin", counted)
    prob, _ = instances.case2_problem()
    path = _write(tmp_path, "case2.json", problem_to_doc(prob))
    code, out, _ = run(["classify", path])
    assert code == 0 and out.strip().splitlines()[-1] == "Case2"
    assert "p: sos-convex" in out
    assert len(calls) == 1


def test_classify_override_and_hint_notes(files):
    code, out, _ = run(["classify", files["case4"]])
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1] == "Case4"
    assert lines[0] == "override: Case4"

    code, out, _ = run(["classify", files["quarter"]])
    lines = out.strip().splitlines()
    assert code == 0 and lines[-1] == "General"
    assert any("archimedean hint" in line for line in lines)


def test_classify_schema_error_names_the_pointer(files):
    code, _, err = run(["classify", files["bad"]])
    assert code == 2
    assert "/objective/f/0/0" in err


@pytest.mark.parametrize("field, value, message", [
    ("interior_point", [5.0, 5.0], "the given point is not interior to the set"),
    ("phi", [[[0, 0, 0], 1.0], [[2, 0], -1.0], [[0, 2], -1.0]],
     "exponent vector [0, 0, 0] does not have length 2")],
    ids=["interior-point", "phi-exponent"])
def test_classify_reports_a_bad_index_set_as_an_error(tmp_path, field, value,
                                                      message):
    # exit 1 is the INFEASIBLE code: a file that does not describe an
    # instance exits 2 with its message, as solve's ERROR report does
    doc = problem_to_doc(instances.case2_problem()[0])
    doc["index_set"][field] = value
    path = _write(tmp_path, "case2.json", doc)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))
    done = subprocess.run([sys.executable, "-m", "fsipp.cli", "classify", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert message in done.stderr and "Traceback" not in done.stderr
    code, out, _ = run(["solve", path])
    assert code == 2 and message in checked(out)["error"]


# ------------------------------------------------------------- solve

def test_solve_report_values_and_shape(files, quarter_solved):
    code, report = quarter_solved
    assert code == 0
    assert report["command"] == "solve"
    assert report["verdict"] == "CERTIFIED"
    assert report["tag"] == "General"
    assert report["r_dual"] == pytest.approx(0.0274, abs=2e-3)
    np.testing.assert_allclose(report["candidate"], [0.7377, 0.6033],
                               atol=2e-3)
    assert [row["k"] for row in report["rows"]] == [4]
    assert report["solver"]["orders_solved"] == 1
    # one interior-point solve per order gives both sides' iteration count
    (row,) = report["rows"]
    assert row["primal_iterations"] == row["dual_iterations"] > 0
    assert report["solver"]["total_iterations"] == row["dual_iterations"]
    doc = json.loads(open(files["quarter"], encoding="utf-8").read())
    assert report["problem_sha256"] == problem_sha256(doc)


def test_solve_reports_round_trip_byte_identical(quarter_solved):
    _, report = quarter_solved
    text = render_report(report)
    assert render_report(json.loads(text)) == text


def test_solve_rank_one_certificate(files):
    code, out, _ = run(["solve", files["case4"]])
    report = checked(out)
    assert code == 0 and report["verdict"] == "CERTIFIED"
    cert = report["certificate"]
    assert cert["passed"] and cert["rank_high"] == 1
    assert report["stop_reason"] == "rank"


def test_solve_infeasible_family(files):
    code, out, _ = run(["solve", files["infeasible"]])
    report = checked(out)
    assert report["verdict"] == "INFEASIBLE"
    assert code == 1
    assert all(row["dual_status"] == "PrimalInfeasible"
               for row in report["rows"])


def test_solve_strongly_infeasible_constraints(files):
    # x1 >= 1 and x1 <= -1: a Farkas certificate exists, so the verdict
    # does not rest on how close an approximate ray comes to the rule
    code, out, _ = run(["solve", files["strongly_infeasible"]])
    report = checked(out)
    assert report["verdict"] == "INFEASIBLE"
    assert code == 1
    assert report["rows"] and all(row["dual_status"] == "PrimalInfeasible"
                                  for row in report["rows"])


def test_solve_writes_report_and_row_csv(files):
    out_path = files["dir"] / "case4_report.json"
    code, stdout, _ = run(["solve", files["case4"], "--out", str(out_path)])
    assert code == 0 and stdout == ""
    checked(out_path.read_text(encoding="utf-8"))
    rows = (files["dir"] / "case4_report.csv").read_text().splitlines()
    assert rows[0].startswith("k,r_primal,r_dual")
    assert len(rows) == 2


def test_solve_csv_suffix_does_not_clobber_the_report(files):
    out_path = files["dir"] / "case4_out.csv"
    run(["solve", files["case4"], "--out", str(out_path)])
    checked(out_path.read_text(encoding="utf-8"))  # report JSON lives here
    assert (files["dir"] / "case4_out.rows.csv").exists()


def test_solve_classifies_the_problem_once(files, monkeypatch):
    # the bound hint makes the route decide whether R is needed; that tag
    # must then be the one the hierarchy runs with
    doc = problem_to_doc(instances.case1_problem()[0], hints={"bound": 2})
    path = _write(files["dir"], "case1_bound.json", doc)
    calls = []
    findings = relax.convexity_findings

    def counted(prob, family):
        calls.append(prob)
        return findings(prob, family)

    monkeypatch.setattr(relax, "convexity_findings", counted)
    code, out, _ = run(["solve", path])
    report = checked(out)
    assert code == 0 and report["tag"] == "Case1"
    assert len(calls) == 1


def test_solve_rejects_multi_objective_files(files):
    code, out, err = run(["solve", files["pair"]])
    assert code == 2
    assert checked(out)["verdict"] == "ERROR"
    assert "objectives list" in err


def test_solve_handles_unreadable_and_malformed_files(files):
    code, out, _ = run(["solve", str(files["dir"] / "missing.json")])
    assert code == 2 and checked(out)["verdict"] == "ERROR"
    code, out, _ = run(["solve", files["notjson"]])
    assert code == 2 and "not JSON" in checked(out)["error"]


@pytest.mark.parametrize("literal, value", [
    ("NaN", float("nan")), ("Infinity", float("inf")),
    ("-Infinity", float("-inf"))])
def test_files_with_non_finite_literals_are_refused(files, literal, value):
    # Python's json reads these literals, which JSON has not; NaN would pass
    # the schema, since it fails no bound test
    doc = problem_to_doc(instances.case1_problem()[0], options={"R": value})
    path = _write(files["dir"], "nonfinite.json", doc)
    assert f'"R": {literal}' in Path(path).read_text(encoding="utf-8")
    code, out, _ = run(["solve", path])
    report = checked(out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert f"{literal} is not a JSON number" in report["error"]


@pytest.mark.parametrize("argv, named", [
    (["certify", "quarter", "0.1,0.1", "--tau", "inf"], "tau inf"),
    (["solve", "case1", "--tol", "nan"], "sdp_tol nan"),
    (["solve", "case1", "--tol", "inf"], "sdp_tol inf")])
def test_settings_must_be_finite(files, argv, named):
    # an infinite tau counts every constraint active, and NaN fails every
    # comparison, so a test of sign alone lets both through
    code, out, _ = run([argv[0], files[argv[1]], *argv[2:]])
    report = checked(out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert "must be positive and finite" in report["error"]
    assert named in report["error"]


@pytest.mark.parametrize("argv, what", [
    (["certify", "quarter", "0.1,nan"], "point"),
    (["pareto", "pair", "inf,0"], "u0"),
    (["pareto", "pair", "-1,1", "--box", "0,1,0,inf"], "--box")])
def test_coordinates_must_be_finite(files, argv, what):
    out_path = files["dir"] / "coordinates.json"
    code, _, err = run([argv[0], files[argv[1]], *argv[2:],
                        "--out", str(out_path)])
    assert code == 2 and f"{what} must be finite numbers" in err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol", "-1", "sdp_tol must be positive"),
    ("--tau", "-1", "tau and sdp_tol must be positive"),
    ("--k-min", "0", "k_min must be at least 1"),
    ("--k-min", "5 --k-max 4", "k_min 5 is above k_max 4")])
def test_solve_flags_are_checked_as_the_schema_checks_options(files, flag, value,
                                                              message):
    # the same values in a file's options are refused too: the first three
    # by the schema, the last as in the test below
    code, out, _ = run(["solve", files["case1"], flag, *value.split()])
    report = checked(out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert message in report["error"]


@pytest.mark.parametrize("options, flags", [
    ({"k_min": 5, "k_max": 4}, []), ({"k_max": 4}, ["--k-min", "5"])])
def test_k_min_above_k_max_is_an_error_in_file_options_too(files, options,
                                                            flags):
    doc = problem_to_doc(instances.quarter_circle_problem()[0],
                         options={"R": 2.0, "g_star": 1.0, **options})
    path = _write(files["dir"], "k_order.json", doc)
    code, out, _ = run(["solve", path, *flags])
    report = checked(out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert "k_min 5 is above k_max 4" in report["error"]


def test_integral_float_orders_in_file_options_are_read_as_integers():
    # the schema's integer type admits 4.0; range() over the orders does not
    doc = problem_to_doc(instances.case3_problem()[0],
                         options={"R": 2.0, "k_min": 3.0, "k_max": 4.0})
    opts = ParsedProblem(doc).opts
    assert (opts.k_min, opts.k) == (3, 4)
    assert type(opts.k_min) is type(opts.k) is int


@pytest.mark.parametrize("flags", [["--k-min", "5"],
                                   ["--k-min", "5", "--k-max", "6"]])
def test_single_solve_routes_ignore_the_order_settings(files, flags):
    # Case1 solves order d = 2 whatever k_min and k_max say
    code, out, _ = run(["solve", files["case1"], *flags])
    report = checked(out)
    assert code == 0 and report["verdict"] == "CERTIFIED"
    assert [row["k"] for row in report["rows"]] == [2]
    (row,) = report["rows"]
    assert row["primal_iterations"] == row["dual_iterations"] > 0


def _report_fields(report: dict) -> dict:
    """A report without the fields that name the file or time the run."""
    return {k: v for k, v in report.items()
            if k not in ("problem_sha256", "timing_seconds")}


def _solved(tmp, name, doc, *flags):
    code, out, _ = run(["solve", _write(tmp, name, doc), *flags])
    return code, checked(out)


def test_solve_orders_start_at_the_first_order(files):
    # the quarter circle's first order is 4: lower k_min are raised to it,
    # as k_max already is
    doc = json.loads(open(files["quarter"], encoding="utf-8").read())
    del doc["options"]["k_min"], doc["options"]["k_max"]
    both = _solved(files["dir"], "quarter_k.json", doc, "--k-min", "1",
                   "--k-max", "2")
    alone = _solved(files["dir"], "quarter_k.json", doc, "--k-max", "2")
    assert _report_fields(both[1]) == _report_fields(alone[1])
    assert both[0] == 0 and both[1]["verdict"] == "CERTIFIED"
    assert [row["k"] for row in both[1]["rows"]] == [4]
    bare = problem_to_doc(instances.quarter_circle_problem()[0])
    code, report = _solved(files["dir"], "quarter_bare.json", bare,
                           "--k-min", "2", "--k-max", "5")
    assert [row["k"] for row in report["rows"]] == [4, 5]


def _pinned_problem(f, psis=()):
    """f/(2 - x1^2) subject to psis and the family -1 <= 0."""
    g = Polynomial(2, {(0, 0): 2.0, (2, 0): -1.0})
    p = BivariatePoly.from_joint(Polynomial(3, {(0, 0, 0): -1.0}), 2, 1)
    return FsippProblem(f, g, tuple(psis), p, Interval())


def test_solve_reports_an_optimum_the_floor_recipe_pins(files):
    # f = x1^2 + x2^2 vanishes at the feasible point: the optimum is 0
    f = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0})
    doc = problem_to_doc(_pinned_problem(f),
                         options={"case_override": "General"},
                         hints={"bound": 1, "feasible_point": [0, 0]})
    out_path = files["dir"] / "pinned_report.json"
    code, _, _ = run(["solve", _write(files["dir"], "pinned.json", doc),
                      "--out", str(out_path)])
    report = checked(out_path.read_text(encoding="utf-8"))
    assert code == 0 and report["verdict"] == "CERTIFIED"
    assert report["stop_reason"] == "known-optimum"
    assert report["rows"] == [] and report["tag"] == "General"
    assert report["r_dual"] == report["r_primal"] == 0.0
    assert report["candidate"] == [0.0, 0.0]
    rows = (files["dir"] / "pinned_report.csv").read_text().splitlines()
    assert len(rows) == 1 and rows[0].startswith("k,r_primal,r_dual")


@pytest.mark.parametrize("point", [[0.5, 0.0], [-0.5, 0.0]])
def test_the_floor_recipe_refuses_a_numerator_that_can_be_negative(files,
                                                                  point):
    # min (x1 + 0.5)/(2 - x1^2) over the unit disc is -0.5 at (-1, 0); the
    # recipe's pinned zero would be wrong, so it asks for g_star
    disc = Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0, (0, 0): -1.0})
    prob = _pinned_problem(Polynomial(2, {(1, 0): 1.0, (0, 0): 0.5}), [disc])
    options = {"case_override": "General", "k_max": 3}
    hints = {"bound": 1, "feasible_point": point}
    code, report = _solved(files["dir"], "negative.json",
                           problem_to_doc(prob, options, hints))
    assert code == 2 and report["verdict"] == "ERROR"
    assert "g_star" in report["error"] and "-0.5" in report["error"]
    code, report = _solved(files["dir"], "negative_g.json",
                           problem_to_doc(prob, {**options, "g_star": 0.5},
                                          hints))
    assert code == 0 and report["verdict"] == "CERTIFIED"
    assert report["r_dual"] == pytest.approx(-0.5, abs=1e-6)


def _quarter_doc(options, hints=None):
    return problem_to_doc(instances.quarter_circle_problem()[0],
                          {"k_max": 4, "case_override": "General", **options},
                          hints)


def test_a_hint_fills_only_the_value_the_options_lack(files):
    tmp, quarter = files["dir"], {"bound": 4.0 / 3.0,
                                  "feasible_point": [0.5, 0.5]}
    # R set, g_star from the floor recipe: as with the hints alone
    with_r = _solved(tmp, "r_hints.json", _quarter_doc({"R": 2}, quarter))
    hints_only = _solved(tmp, "hints.json", _quarter_doc({}, quarter))
    assert with_r[0] == 0 and with_r[1]["verdict"] == "CERTIFIED"
    assert _report_fields(with_r[1]) == _report_fields(hints_only[1])
    # g_star set: the recipe does not run, R = 1.5 * bound
    with_g = _solved(tmp, "g_bound.json",
                     _quarter_doc({"g_star": 1}, {"bound": 4.0 / 3.0}))
    both = _solved(tmp, "r_g.json", _quarter_doc({"R": 2, "g_star": 1}))
    assert with_g[0] == 0 and with_g[1]["verdict"] == "CERTIFIED"
    assert _report_fields(with_g[1]) == _report_fields(both[1])
    # Case4 never uses g_star
    case4 = problem_to_doc(instances.case4_problem()[0],
                           {"k_min": 4, "k_max": 4, "case_override": "Case4"},
                           {"bound": 4.0 / 3.0})
    from_hint = _solved(tmp, "case4_bound.json", case4)
    code, out, _ = run(["solve", files["case4"]])
    assert from_hint[0] == code == 0
    assert _report_fields(from_hint[1]) == _report_fields(checked(out))


# ------------------------------------------------------------- certify

def test_certify_at_the_reported_minimizer(files):
    code, out, _ = run(["certify", files["quarter"], "0.7377,0.6033"])
    report = checked(out)
    assert code == 0 and report["verdict"] == "CERTIFIED"
    kkt = report["kkt"]
    assert kkt["feasible_within_tau"] and kkt["omega"] <= 1e-4
    assert kkt["p_star"] == pytest.approx(6.7654e-5, abs=5e-4)


def test_certify_feasible_but_not_stationary(files):
    code, out, _ = run(["certify", files["quarter"], "0,0"])
    report = checked(out)
    assert code == 0 and report["verdict"] == "INCONCLUSIVE"
    assert report["kkt"]["feasible_within_tau"]
    assert report["kkt"]["omega"] > 1e-3


def test_certify_flags_points_outside_the_feasible_set(files):
    code, out, _ = run(["certify", files["quarter"], "0.95,0.95"])
    report = checked(out)
    assert report["kkt"]["feasible_within_tau"] is False
    assert report["verdict"] == "INCONCLUSIVE"


def test_certify_errors_when_the_denominator_vanishes(files):
    code, out, _ = run(["certify", files["quarter"], "2,2"])
    report = checked(out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert "denominator" in report["error"]


def test_certify_rejects_wrong_dimension(files):
    code, out, _ = run(["certify", files["quarter"], "1,2,3"])
    assert code == 2 and checked(out)["verdict"] == "ERROR"


# ------------------------------------------------------------- pareto

def test_pareto_walk_report_and_grid_export(files):
    out_path = files["dir"] / "pair_report.json"
    argv = ["pareto", files["pair"], "-1,1", "--out", str(out_path),
            "--box", "-2.7,0.75,-0.65,2.7", "--grid", "25"]
    code, _, _ = run(argv)
    report = checked(out_path.read_text(encoding="utf-8"))
    assert code == 0
    np.testing.assert_allclose(report["final_point"], [-0.2138, 0.8319],
                               atol=5e-3)
    assert [s["stage"] for s in report["stages"]] == [1, 2]
    assert report["stopped_by"] == "Exhausted_t"
    csv_path = files["dir"] / "pair_report.csv"
    first = csv_path.read_text(encoding="utf-8")
    assert first.splitlines()[0] == "x1,x2,feasible,objective1,objective2"
    assert len(first.splitlines()) == 1 + 25 * 25
    run(argv)  # the export is deterministic
    assert csv_path.read_text(encoding="utf-8") == first


def test_solve_and_pareto_judge_a_stage_by_the_same_rule(files):
    # walk I's stages are Case1 single solves without a rank certificate:
    # classification alone does not certify them, in pareto as in solve
    code, out, _ = run(["pareto", files["pair"]])
    report = checked(out)
    assert code == 0 and report["verdict"] == "INCONCLUSIVE"
    assert [(s["tag"], s["stop_reason"]) for s in report["stages"]] == [
        ("Case1", "single")] * 2

    mprob, u0, _ = instances.biobjective_case1()
    stage1 = problem_to_doc(scalarize(mprob, 1, u0))
    code, out, _ = run(["solve", _write(files["dir"], "stage1.json", stage1)])
    report = checked(out)
    assert code == 0 and report["verdict"] == "INCONCLUSIVE"
    assert (report["tag"], report["stop_reason"]) == ("Case1", "single")
    assert report["certificate"] is None

    # walk II's stages pass the rank test
    mprob, u0, _ = instances.biobjective_case2()
    doc = problem_to_doc(mprob, hints={"feasible_point": list(u0)})
    code, out, _ = run(["pareto", _write(files["dir"], "walk2.json", doc)])
    assert code == 0 and checked(out)["verdict"] == "CERTIFIED"


def test_pareto_checks_a_case_override_as_solve_does(files):
    mprob, u0, _ = instances.biobjective_case1()
    options = {"case_override": "Case2"}  # walk I's index set is the interval
    base = problem_to_doc(mprob.base_problem(1), options=options)
    walk = problem_to_doc(mprob, options=options,
                          hints={"feasible_point": list(u0)})
    reports = []
    for command, name, doc in (("solve", "override1.json", base),
                               ("pareto", "override2.json", walk)):
        code, out, _ = run([command, _write(files["dir"], name, doc)])
        report = checked(out)
        assert code == 2 and report["verdict"] == "ERROR"
        reports.append(report["error"])
    assert reports[0] == reports[1]
    assert "Case2 needs a quadratic index set" in reports[0]


def test_pareto_fills_R_from_the_bound_hint_as_solve_does(files):
    mprob, u0, _ = instances.biobjective_case3()
    options = {"k_max": 4, "case_override": "Case3"}
    reports = []
    for name, opts, hints in (
            ("walk3_bound.json", options,
             {"bound": 4.0 / 3.0, "feasible_point": list(u0)}),
            ("walk3_R.json", {**options, "R": 2.0},
             {"feasible_point": list(u0)})):
        code, out, _ = run(["pareto", _write(files["dir"], name,
                                             problem_to_doc(mprob, opts,
                                                            hints))])
        assert code == 0
        reports.append(_report_fields(checked(out)))
    assert reports[0] == reports[1]
    assert reports[0]["verdict"] == "CERTIFIED"


def test_pareto_uses_the_feasible_point_hint(files):
    code, out, _ = run(["pareto", files["pair"]])
    report = checked(out)
    assert code == 0
    np.testing.assert_allclose(report["final_point"], [-0.2138, 0.8319],
                               atol=5e-3)


def test_pareto_requires_some_initial_point(files):
    code, out, err = run(["pareto", files["pair_bare"]])
    assert code == 2 and checked(out)["verdict"] == "ERROR"
    assert "initial point" in err


def test_pareto_rejects_infeasible_initial_point(files):
    code, out, err = run(["pareto", files["pair"], "5,5"])
    assert code == 2 and checked(out)["verdict"] == "ERROR"
    assert "infeasible" in err


def test_pareto_checks_the_initial_point_once(files, monkeypatch):
    # the walk checks u0 itself; stage 2's anchor check is the other solve
    from fsipp import certify
    mprob, u0, _ = instances.biobjective_case2()
    path = _write(files["dir"], "walk2_u0.json", problem_to_doc(mprob))
    code, out, err = run(["pareto", path, "2,2"])
    report = checked(out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert report["error"] == ("ValueError: initial point infeasible: "
                               "constraint margin 1.500e+01 > 0.001")
    assert report["error"] in err

    calls = []
    real = certify.lower_level_solve

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(certify, "lower_level_solve", counted)
    code, out, _ = run(["pareto", path, ",".join(map(str, u0))])
    assert code == 0 and checked(out)["verdict"] == "CERTIFIED"
    assert len(calls) == 2


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_pareto_box_validation(files):
    code, _, err = run(["pareto", files["pair"], "-1,1",
                        "--out", str(files["dir"] / "x.json"), "--box", "0,1"])
    assert code == 2 and "--box needs 4 numbers" in err
    code, _, err = run(["pareto", files["pair"], "-1,1",
                        "--out", str(files["dir"] / "x.json"),
                        "--box", "1,0,0,1"])
    assert code == 2 and "lo < hi" in err


def test_pareto_box_refuses_an_index_set_the_sweep_misses(files):
    # the arc {y >= 0, |y| = 1} has no interior, so the y-sweep is empty
    # and no grid point could be flagged feasible honestly
    out_path = files["dir"] / "arc_report.json"
    code, _, err = run(["pareto", files["arc_pair"], "--out", str(out_path),
                        "--box", "-2,2,-2,2", "--grid", "41"])
    assert code == 2 and "--box" in err and "y-sweep" in err
    assert checked(out_path.read_text(encoding="utf-8"))["verdict"] != "ERROR"
    assert not (files["dir"] / "arc_report.csv").exists()


@pytest.mark.parametrize("grid", ["0", "-3"])
def test_pareto_rejects_a_grid_below_one_before_solving(files, grid,
                                                        monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr("fsipp.cli.epsilon_constraint_solve", walk)
    out_path = files["dir"] / f"grid{grid}.json"
    code, _, err = run(["pareto", files["pair"], "-1,1", "--out",
                        str(out_path), "--box", "-1,1,-1,1", "--grid", grid])
    report = checked(out_path.read_text(encoding="utf-8"))
    assert code == 2 and report["verdict"] == "ERROR"
    assert "--grid" in report["error"] and "--grid" in err
    assert not out_path.with_suffix(".csv").exists()


@pytest.mark.parametrize("box, message", [("0,1", "--box needs 4 numbers"),
                                          ("1,0,0,1", "--box intervals")])
@pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
def test_pareto_rejects_a_bad_box_before_solving(files, box, message, to_file,
                                                 monkeypatch):
    # without --out there is no export, but a bad box is still refused
    def walk(*args, **kwargs):
        raise AssertionError("the walk ran")

    monkeypatch.setattr("fsipp.cli.epsilon_constraint_solve", walk)
    out_path = files["dir"] / "bad_box.json"
    out_path.unlink(missing_ok=True)
    code, out, err = run(["pareto", files["pair"], "-1,1", "--box", box]
                         + (["--out", str(out_path)] if to_file else []))
    report = checked(out_path.read_text(encoding="utf-8") if to_file else out)
    assert code == 2 and report["verdict"] == "ERROR"
    assert message in report["error"] and message in err
    assert "stages" not in report
    assert not out_path.with_suffix(".csv").exists()


# ------------------------------------------------------------- exit codes

def test_exit_codes_are_a_function_of_the_verdict(files, quarter_solved):
    assert EXIT_BY_VERDICT == {"CERTIFIED": 0, "INCONCLUSIVE": 0,
                               "INFEASIBLE": 1, "ERROR": 2}
    observed = [quarter_solved]
    for argv in (["solve", files["infeasible"]],
                 ["certify", files["quarter"], "0,0"],
                 ["solve", files["bad"]]):
        code, out, _ = run(argv)
        observed.append((code, checked(out)))
    for code, report in observed:
        assert code == EXIT_BY_VERDICT[report["verdict"]]
