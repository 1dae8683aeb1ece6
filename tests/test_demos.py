"""Each demo script runs to completion against the package in ``src``, in
an interpreter that cannot import scipy (a test-only dependency)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, TMPDIR=str(tmp_path))  # demos write temp files
    # a scipy package that refuses to load, ahead of the installed one
    blocker = tmp_path / "no_scipy" / "scipy"
    blocker.mkdir(parents=True)
    (blocker / "__init__.py").write_text(
        'raise ImportError("scipy is not a runtime dependency")\n')
    env["PYTHONPATH"] = os.pathsep.join(
        [str(blocker.parent), str(ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
