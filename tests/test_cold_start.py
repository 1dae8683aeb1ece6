"""Cold start: importing fsipp and solving with it load no scipy and no
jsonschema.

scipy stays a dependency only for the SLSQP polish of a lower-level
minimizer that no rank certificate covers, which imports it when it runs.
Problem files are checked by ``fsipp.schemacheck``; jsonschema (with
referencing, rpds and attrs) is a test dependency only.  A fresh
interpreter imports the command line, solves and certifies the quarter
circle, and must not have loaded any of these modules on the way.
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
import contextlib, io, json, sys
import fsipp.cli
out = io.StringIO()
with contextlib.redirect_stdout(out):
    codes = [fsipp.cli.main(["solve", sys.argv[1]]),
             fsipp.cli.main(["certify", sys.argv[1], "0.7377,0.6033"])]
heavy = {"scipy", "jsonschema", "referencing", "rpds", "attrs"}
print(json.dumps({"codes": codes,
                  "heavy": sorted(m for m in sys.modules
                                  if m.split(".")[0] in heavy)}))
"""


def test_solve_and_certify_load_no_scipy(tmp_path):
    prob, opts = instances.quarter_circle_problem()
    options = _options_doc(opts)
    options.pop("case_override")  # the route is inferred for this shape
    path = tmp_path / "quarter.json"
    path.write_text(json.dumps(problem_to_doc(prob, options=options)),
                    encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(path)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["codes"] == [0, 0]
    assert result["heavy"] == []
