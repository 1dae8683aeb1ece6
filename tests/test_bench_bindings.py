"""The benchmark binds fsipp functions by name: keep those names alive.

``bench/spans.py`` wraps each function in its ``BOUNDARIES`` table, and
``bench/selftest.py`` checks the metric names and the correctness gate, so
a rename in ``src`` that the benchmark still uses fails here.
"""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", BENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_span_boundary_resolves_to_a_callable():
    for layer, modname, attr in _spans().BOUNDARIES:
        fn = getattr(importlib.import_module(modname), attr, None)
        assert callable(fn), f"{layer}: {modname}.{attr} is gone"


def test_benchmark_selftest_passes():
    done = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          cwd=BENCH.parent, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
