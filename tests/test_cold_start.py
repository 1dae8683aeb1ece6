"""Cold start: fsipp runs without scipy and loads no jsonschema.

numpy is the only runtime dependency.  scipy is a test dependency (the
tests' oracle for sparse products and nonnegative least squares), and so
is jsonschema (with referencing, rpds and attrs): problem files are
checked by ``fsipp.schemacheck``.  A fresh interpreter in which scipy
cannot be imported runs the command line: it solves and certifies the
quarter circle, classifies packaged walk II and runs it with a grid
export.  Walk II is chosen because one of its lower-level solves ends
without a rank certificate, so the uncertified outcome runs too.  None of
the heavy modules may be loaded on the way.

Nor does a solve, a certify or a walk load ``numpy.random``: only the
seeded generators of ``fsipp.instances`` draw from it.  pytest loads it
itself, so that is checked in a fresh interpreter too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from fsipp import instances
from fsipp.cli import problem_to_doc

from test_cli import _options_doc

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys
sys.modules["scipy"] = None  # any import of scipy raises ImportError
import contextlib, io, json
import fsipp.cli
quarter, walk, walk_out = sys.argv[1:]
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [fsipp.cli.main(["solve", quarter]),
             fsipp.cli.main(["certify", quarter, "0.7377,0.6033"]),
             fsipp.cli.main(["classify", walk]),
             fsipp.cli.main(["pareto", walk, "--out", walk_out,
                             "--box", "-1,1,-1,1", "--grid", "20"])]
heavy = {"scipy", "jsonschema", "referencing", "rpds", "attrs"}
print(json.dumps({"codes": codes,
                  "heavy": sorted(m for m, mod in sys.modules.items()
                                  if mod is not None
                                  and m.split(".")[0] in heavy)}))
"""

NO_RANDOM_SCRIPT = """
import contextlib, io, json, sys
import fsipp.cli
quarter, walk = sys.argv[1:]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [fsipp.cli.main(["solve", quarter]),
             fsipp.cli.main(["certify", quarter, "0.7377,0.6033"]),
             fsipp.cli.main(["pareto", walk])]
print(json.dumps({"codes": codes, "random": "numpy.random" in sys.modules}))
"""


def _quarter_and_walk(tmp_path, make_walk):
    """Problem files of the quarter circle (order 4) and a packaged walk."""
    prob, opts = instances.quarter_circle_problem()
    options = _options_doc(opts)
    options.pop("case_override")  # the route is inferred for this shape
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(problem_to_doc(prob, options=options)),
                    encoding="utf-8")
    mprob, u0, opts = make_walk()
    walk = tmp_path / "walk.json"
    walk.write_text(json.dumps(problem_to_doc(
        mprob, options=_options_doc(opts),
        hints={"feasible_point": list(u0)})), encoding="utf-8")
    return path, walk


def _fresh(tmp_path, script, *args) -> dict:
    """Run ``script`` in a fresh interpreter on the source tree; the JSON
    object its last line of output prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_commands_run_without_scipy(tmp_path):
    path, walk = _quarter_and_walk(tmp_path, instances.biobjective_case2)
    result = _fresh(tmp_path, SCRIPT, path, walk,
                    tmp_path / "walk_report.json")
    assert result["codes"] == [0, 0, 0, 0]
    assert result["heavy"] == []
    report = json.loads((tmp_path / "walk_report.json").read_text())
    assert report["verdict"] == "CERTIFIED"
    assert (tmp_path / "walk_report.csv").exists()


def test_solve_certify_and_walk_load_no_numpy_random(tmp_path):
    path, walk = _quarter_and_walk(tmp_path, instances.biobjective_case1)
    result = _fresh(tmp_path, NO_RANDOM_SCRIPT, path, walk)
    assert result["codes"] == [0, 0, 0]
    assert not result["random"]
