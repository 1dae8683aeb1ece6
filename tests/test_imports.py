"""Every module of the package uses each name it imports, every
top-level function or class of the package is named outside the tests,
and every defaulted parameter of a top-level function is passed by some
call.

The package ``__init__.py`` files import names only to re-export them, so
they are left out.  Names are found with ``ast``: a name counts as used
when it appears anywhere in the module as an identifier, including inside
a quoted annotation.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fsipp"
BENCH = ROOT / "bench"
CALLERS = [ROOT / d for d in ("src", "tests", "demos", "bench")]

# The independent residual check of a solve: nothing in the package calls
# it yet, and the per-order observability report (ROADMAP item 2) will.
UNNAMED_ALLOWED = {"sdp/model.py:check_solution"}


def _annotation_names(tree: ast.AST) -> set:
    """Identifiers inside quoted annotations such as ``-> "Polynomial"``."""
    names = set()
    for node in ast.walk(tree):
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= {n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    """``name (line n)`` for each imported name the module never uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _annotation_names(tree)
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_scan_flags_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from __future__ import annotations\n"
                      "import math\nimport numpy as np\n"
                      "from dataclasses import dataclass, field\n"
                      "from .poly import Polynomial\n\n"
                      "@dataclass\nclass A:\n    x: 'Polynomial'\n\n"
                      "def f() -> np.ndarray:\n    return np.zeros(1)\n",
                      encoding="utf-8")
    assert unused_imports(module) == ["field (line 4)", "math (line 2)"]


def test_no_module_imports_a_name_it_does_not_use():
    modules = sorted(p for p in SRC.rglob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    found = {str(p.relative_to(SRC)): unused_imports(p) for p in modules}
    assert {k: v for k, v in found.items() if v} == {}


def _names(node: ast.AST, strings: bool = False) -> set:
    """The identifiers a syntax tree names: variables, attributes, imported
    names and quoted annotations; with ``strings``, also every string
    constant (``bench/spans.py`` binds functions by module and name)."""
    out = _annotation_names(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif strings and isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def unnamed_definitions(src: Path, others=()) -> list[str]:
    """``module:name`` for each top-level function or class of the package
    at ``src`` that no code names outside its own definition.  The
    package's ``__init__.py`` re-exports do not count; the modules
    ``others``, outside the package, do, string constants included."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(src.rglob("*.py")) if p.name != "__init__.py"}
    outside = set().union(*(_names(ast.parse(p.read_text(encoding="utf-8")),
                                   strings=True) for p in others))
    per_node = {p: [_names(n) for n in t.body] for p, t in trees.items()}
    found = []
    for path, tree in trees.items():
        elsewhere = outside.union(*(n for q, ns in per_node.items()
                                    if q != path for n in ns))
        for i, node in enumerate(tree.body):
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            rest = elsewhere.union(*(n for j, n in enumerate(per_node[path])
                                     if j != i))
            if node.name not in rest:
                found.append(f"{path.relative_to(src).as_posix()}:{node.name}")
    return found


def test_scan_flags_a_definition_only_tests_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import only_tests\n",
                                     encoding="utf-8")
    (pkg / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def only_self(n):\n    return only_self(n - 1) if n else 0\n\n"
        "def only_tests():\n    return used()\n\n"
        "class Bound:\n    pass\n\n"
        "def named_by_string():\n    return 0\n",
        encoding="utf-8")
    (pkg / "b.py").write_text("from .a import Bound\nx: 'Bound' = None\n",
                              encoding="utf-8")
    bench = tmp_path / "spans.py"
    bench.write_text("SPANS = [('pkg.a', 'named_by_string')]\n",
                     encoding="utf-8")
    assert unnamed_definitions(pkg, [bench]) == ["a.py:only_self",
                                                  "a.py:only_tests"]
    assert unnamed_definitions(pkg) == ["a.py:only_self", "a.py:only_tests",
                                        "a.py:named_by_string"]


def test_every_definition_is_named_outside_the_tests():
    found = unnamed_definitions(SRC, sorted(BENCH.glob("*.py")))
    assert [f for f in found if f not in UNNAMED_ALLOWED] == []


def _defaulted(fn: ast.FunctionDef) -> list[tuple]:
    """(position, name) of each parameter with a default; a keyword-only
    parameter has position None."""
    args = fn.args
    pos = args.posonlyargs + args.args
    first = len(pos) - len(args.defaults)
    return ([(i, a.arg) for i, a in enumerate(pos) if i >= first]
            + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
               if d is not None])


def uncalled_defaults(src: Path, callers) -> list[str]:
    """``module:function(parameter)`` for each defaulted parameter of a
    top-level function of the package at ``src`` that no call in the
    directories ``callers`` passes, by keyword or by position.  A call
    counts by the name it calls, bare or as an attribute; ``*args`` passes
    every position and ``**kwargs`` every keyword."""
    calls: dict[str, list[ast.Call]] = {}
    for path in sorted(p for d in callers for p in d.rglob("*.py")):
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                calls.setdefault(name, []).append(n)
    found = []
    for path in sorted(src.rglob("*.py")):
        for fn in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            for i, arg in _defaulted(fn):
                if not any(
                        any(k.arg in (arg, None) for k in c.keywords)
                        or (i is not None and (
                            len(c.args) > i
                            or any(isinstance(a, ast.Starred) for a in c.args)))
                        for c in calls.get(fn.name, [])):
                    found.append(f"{path.relative_to(src).as_posix()}:"
                                 f"{fn.name}({arg})")
    return found


def test_scan_flags_a_default_no_call_passes(tmp_path):
    pkg, use = tmp_path / "pkg", tmp_path / "use"
    pkg.mkdir()
    use.mkdir()
    (pkg / "a.py").write_text(
        "def f(x, tol=1e-8, cap=10, *, scale=1.0, loud=False):\n"
        "    return x\n\n"
        "def g(x, y=0):\n    return x\n\n"
        "def h(x, y=0):\n    return x\n\n"
        "class C:\n    def m(self, z=1):\n        return z\n",
        encoding="utf-8")
    (use / "b.py").write_text(
        "from pkg.a import f, g, h\n"
        "f(1, 1e-9)\nf(2, scale=2.0)\n"
        "g(*(1, 2))\nh(1, **{'y': 2})\n",
        encoding="utf-8")
    assert uncalled_defaults(pkg, [use]) == ["a.py:f(cap)", "a.py:f(loud)"]
    assert uncalled_defaults(pkg, [pkg]) == [
        "a.py:f(tol)", "a.py:f(cap)", "a.py:f(scale)", "a.py:f(loud)",
        "a.py:g(y)", "a.py:h(y)"]


def test_every_default_is_passed_by_some_call():
    assert uncalled_defaults(SRC, CALLERS) == []


# Defaults that only tests pass, each with its reason; any other test-only
# knob belongs in the tests, not in the package.
TEST_ONLY_DEFAULTS = {
    # the iteration cap that tests lower to force IterLimit
    "sdp/solver.py:solve(max_iter)",
    # writes the file form's hints, which cli.ParsedProblem reads
    "cli.py:problem_to_doc(hints)",
}


def test_no_default_is_passed_by_tests_alone():
    callers = [ROOT / d for d in ("src", "demos", "bench")]
    found = uncalled_defaults(SRC, callers)
    assert [f for f in found if f not in TEST_ONLY_DEFAULTS] == []


# The index-set kinds answer for themselves (``indexset.py``); outside it,
# only the Case1/Case2 shape test and the classify listing's note on a
# semialgebraic set's hint ask which kind a set is.
KIND_TESTS_ALLOWED = ["cli.py:run_classify", "relax.py:convex_shape",
                      "relax.py:convex_shape"]


def _scoped(tree: ast.AST):
    """(scope, node) for every node of a module, scope the name of the
    outermost function holding it (``Class.method`` for a method), or ""
    outside every function."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if not scope and isinstance(child, (ast.FunctionDef,
                                                ast.AsyncFunctionDef)):
                inner = (f"{node.name}.{child.name}"
                         if isinstance(node, ast.ClassDef) else child.name)
            yield inner, child
            yield from visit(child, inner)
    return visit(tree, "")


def kind_tests(src: Path, home: str = "indexset.py") -> list[str]:
    """``module:function`` for each ``isinstance`` test, outside the module
    ``home``, against a class ``home`` defines at top level; one entry per
    test, sorted."""
    kinds = {n.name for n in ast.parse((src / home).read_text(
        encoding="utf-8")).body if isinstance(n, ast.ClassDef)}
    found = []
    for path in sorted(src.rglob("*.py")):
        if path.name == home:
            continue
        for scope, n in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(n, ast.Call) and getattr(n.func, "id", None)
                    == "isinstance" and len(n.args) == 2
                    and _names(n.args[1]) & kinds):
                found.append(f"{path.relative_to(src).as_posix()}:"
                             f"{scope or '<module>'}")
    return sorted(found)


def function_imports(src: Path) -> list[str]:
    """``module:function (line n)`` for each import inside a function."""
    return [f"{path.relative_to(src).as_posix()}:{scope} (line {n.lineno})"
            for path in sorted(src.rglob("*.py"))
            for scope, n in _scoped(ast.parse(path.read_text(encoding="utf-8")))
            if scope and isinstance(n, (ast.Import, ast.ImportFrom))]


def test_scans_flag_kind_tests_and_imports_in_functions(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "indexset.py").write_text(
        "class Box:\n    pass\n\nclass Ball:\n    pass\n\n"
        "def own(y):\n    return isinstance(y, Box)\n", encoding="utf-8")
    (pkg / "a.py").write_text(
        "import math\nfrom . import indexset\nfrom .indexset import Box\n\n"
        "def f(y):\n    return isinstance(y, (int, Box))\n\n"
        "def g(y):\n    from .indexset import Ball\n"
        "    return isinstance(y, indexset.Ball) or isinstance(y, int)\n\n"
        "class C:\n    def m(self, y):\n"
        "        def inner():\n            import json\n"
        "            return isinstance(y, Box)\n"
        "        return inner()\n\n"
        "TOP = isinstance(None, Box)\n", encoding="utf-8")
    assert kind_tests(pkg) == ["a.py:<module>", "a.py:C.m", "a.py:f",
                               "a.py:g"]
    assert function_imports(pkg) == ["a.py:g (line 9)", "a.py:C.m (line 15)"]


def test_only_the_kinds_ask_which_kind_an_index_set_is():
    assert kind_tests(SRC) == KIND_TESTS_ALLOWED


def test_no_function_imports_a_module():
    assert function_imports(SRC) == []


# A hierarchy run is set up in ``relax.solve_hierarchy`` alone: no other
# module classifies through classification's parts, runs the hint
# recipes or catches the pinned-optimum signal (``errors.py`` defines it
# without naming it), and none pins a route by rewriting the settings.
SETUP_NAMES = {"convexity_findings", "convex_shape", "_aux_min",
               "choose_g_star", "OptimumKnownSignal"}


def setup_outside_relax(src: Path) -> list[str]:
    """``module:name`` for each set-up name a module other than
    ``relax.py`` names, and ``module:replace(case_override) (line n)``
    for each ``replace`` call that passes ``case_override``."""
    found = []
    for path in sorted(p for p in src.rglob("*.py")
                       if p.name not in ("__init__.py", "relax.py")):
        module = path.relative_to(src).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{module}:{name}"
                  for name in sorted(_names(tree) & SETUP_NAMES)]
        found += [f"{module}:replace(case_override) (line {n.lineno})"
                  for n in ast.walk(tree)
                  if isinstance(n, ast.Call)
                  and getattr(n.func, "id", getattr(n.func, "attr", None))
                  == "replace"
                  and any(k.arg == "case_override" for k in n.keywords)]
    return found


def test_scan_flags_run_set_up_outside_relax(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "relax.py").write_text(
        "def convex_shape(p):\n    return None\n\n"
        "def solve(p, o):\n    return convex_shape(p)\n", encoding="utf-8")
    (pkg / "errors.py").write_text(
        "class OptimumKnownSignal(Exception):\n    pass\n",
        encoding="utf-8")
    (pkg / "a.py").write_text(
        "from dataclasses import replace\n"
        "from .relax import convex_shape\n\n"
        "def f(p, o, t):\n"
        "    return convex_shape(p), replace(o, case_override=t)\n\n"
        "def g(o):\n    return replace(o, k=2)\n", encoding="utf-8")
    assert setup_outside_relax(pkg) == [
        "a.py:convex_shape", "a.py:replace(case_override) (line 5)"]


def test_only_relax_sets_up_a_hierarchy_run():
    assert setup_outside_relax(SRC) == []


# The s.o.s-convexity test has one home, ``certify.py``: no other module
# names its parts (``moment.py`` defines the membership margin without
# being one of its callers).
CONVEXITY_NAMES = {"hessian_form", "sos_convexity_margin", "membership_margin"}


def convexity_outside_certify(src: Path) -> list[str]:
    """``module:name`` for each part of the s.o.s-convexity test that a
    module other than ``certify.py`` and ``moment.py`` names."""
    return [f"{path.relative_to(src).as_posix()}:{name}"
            for path in sorted(src.rglob("*.py"))
            if path.name not in ("certify.py", "moment.py")
            for name in sorted(_names(ast.parse(path.read_text(
                encoding="utf-8"))) & CONVEXITY_NAMES)]


def test_scan_flags_convexity_tested_outside_certify(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "moment.py").write_text(
        "def membership_margin(t, c):\n    return 0.0\n", encoding="utf-8")
    (pkg / "certify.py").write_text(
        "from .moment import membership_margin\n\n"
        "def hessian_form(p, m):\n    return p\n\n"
        "def sos_convexity_margin(h):\n"
        "    return membership_margin(hessian_form(h, 1), None)\n\n"
        "def sos_convexity_check(h):\n"
        "    return sos_convexity_margin(h) >= 0\n", encoding="utf-8")
    (pkg / "relax.py").write_text(
        "from . import certify\nfrom .certify import hessian_form\n\n"
        "def ok(h):\n    return certify.sos_convexity_check(h)\n\n"
        "def family(h):\n"
        "    return certify.sos_convexity_margin(hessian_form(h, 1))\n",
        encoding="utf-8")
    assert convexity_outside_certify(pkg) == ["relax.py:hessian_form",
                                              "relax.py:sos_convexity_margin"]


def test_only_certify_tests_sos_convexity():
    assert convexity_outside_certify(SRC) == []


# Min over Y has one home, ``indexset.py``: each kind's ``minimum``, which
# falls back on the one walk over lower-level orders, ``hierarchy_minimum``.
# ``indexset`` takes nothing from ``certify``, only that walk solves one
# order, and no module keeps the answer-or-None ``exact_minimum``.
def lower_level_outside_indexset(src: Path) -> list[str]:
    """``module:scope what`` for each import of ``certify`` in
    ``indexset.py``, each call of ``minimize_on_semialgebraic`` outside
    ``indexset.py:hierarchy_minimum``, and each definition or use of the
    name ``exact_minimum``, in order of the module and its syntax tree."""
    found = []
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        for scope, n in _scoped(ast.parse(path.read_text(encoding="utf-8"))):
            where = f"{module}:{scope or '<module>'}"
            if module == "indexset.py" and isinstance(n, (ast.Import,
                                                          ast.ImportFrom)):
                named = [a.name for a in n.names] + [getattr(n, "module", None)
                                                     or ""]
                if any("certify" in name.split(".") for name in named):
                    found.append(f"{where} imports certify")
            if (isinstance(n, ast.Call) and getattr(
                    n.func, "id", getattr(n.func, "attr", None))
                    == "minimize_on_semialgebraic"
                    and where != "indexset.py:hierarchy_minimum"):
                found.append(f"{where} calls minimize_on_semialgebraic")
            if isinstance(n, ast.FunctionDef) and n.name == "exact_minimum":
                found.append(f"{where} defines exact_minimum")
            if "exact_minimum" in (getattr(n, "id", None),
                                   getattr(n, "attr", None)):
                found.append(f"{where} names exact_minimum")
    return found


def test_scan_flags_the_lower_level_outside_its_home(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "indexset.py").write_text(
        "from .certify import nnls\nfrom . import certify\n\n"
        "def minimize_on_semialgebraic(h):\n    return h\n\n"
        "def hierarchy_minimum(h):\n    return minimize_on_semialgebraic(h)\n\n"
        "class Box:\n    def exact_minimum(self, h):\n        return None\n\n"
        "    def point(self):\n        return minimize_on_semialgebraic(0)\n",
        encoding="utf-8")
    (pkg / "certify.py").write_text(
        "from . import indexset\n\n"
        "def lower(h, y):\n    if y.exact_minimum(h) is None:\n"
        "        return indexset.minimize_on_semialgebraic(h)\n"
        "    return indexset.hierarchy_minimum(h)\n", encoding="utf-8")
    assert lower_level_outside_indexset(pkg) == [
        "certify.py:lower names exact_minimum",
        "certify.py:lower calls minimize_on_semialgebraic",
        "indexset.py:<module> imports certify",
        "indexset.py:<module> imports certify",
        "indexset.py:Box.exact_minimum defines exact_minimum",
        "indexset.py:Box.point calls minimize_on_semialgebraic"]


def test_only_indexset_decides_the_lower_level():
    assert lower_level_outside_indexset(SRC) == []


# A verdict is decided by the result it judges, in its ``verdict``
# property: the hierarchy run's trace, the stop test's report and the
# walk's report.  ``cli.py`` only renders them; it names the literals again
# only to map each verdict to its exit status.
VERDICTS = {"CERTIFIED", "INCONCLUSIVE", "INFEASIBLE"}
VERDICT_HOMES = ["certify.py:KktReport.verdict", "cli.py:EXIT_BY_VERDICT",
                 "multiobj.py:EfficiencyReport.verdict",
                 "relax.py:HierarchyTrace.verdict"]


def verdict_literals(src: Path) -> list[str]:
    """``module:scope`` for each place that writes a verdict literal,
    sorted, scope as in :func:`_scoped` or, outside every function, the
    name a top-level assignment binds (``<module>`` for other code)."""
    found = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owner = {id(n): stmt.targets[0].id for stmt in tree.body
                 if isinstance(stmt, ast.Assign)
                 and isinstance(stmt.targets[0], ast.Name)
                 for n in ast.walk(stmt)}
        found |= {f"{path.relative_to(src).as_posix()}:"
                  f"{scope or owner.get(id(n), '<module>')}"
                  for scope, n in _scoped(tree)
                  if isinstance(n, ast.Constant) and n.value in VERDICTS}
    return sorted(found)


def test_scan_flags_verdict_literals_outside_their_homes(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        'EXITS = {"CERTIFIED": 0, "INFEASIBLE": 1}\n'
        'NOTE = "INCONCLUSIVE"\n'
        'print("INFEASIBLE")\n\n'
        "class Trace:\n    @property\n    def verdict(self):\n"
        '        """CERTIFIED when ok, else INCONCLUSIVE."""\n'
        '        return "CERTIFIED" if self.ok else "INCONCLUSIVE"\n\n'
        'def render(t):\n    return "CERTIFIED" if t.ok else "ERROR"\n\n'
        'def note(t):\n    return f"CERTIFIED: {t}"\n', encoding="utf-8")
    assert verdict_literals(pkg) == ["a.py:<module>", "a.py:EXITS",
                                     "a.py:NOTE", "a.py:Trace.verdict",
                                     "a.py:render"]


def test_only_the_results_decide_their_verdicts():
    assert verdict_literals(SRC) == VERDICT_HOMES


# Only the seeded generators of ``instances.py`` draw random numbers: a
# solve, certify or walk loads no ``numpy.random`` (``test_cold_start.py``
# checks that in a fresh interpreter), so its results follow no random
# stream that numpy may change between versions.
def numpy_random_outside_instances(src: Path) -> list[str]:
    """``module:line`` for each import of ``numpy.random`` and each
    attribute ``np.random`` or ``numpy.random`` outside ``instances.py``."""
    found = set()
    for path in sorted(src.rglob("*.py")):
        module = path.relative_to(src).as_posix()
        if module == "instances.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            named = []
            if isinstance(n, ast.Attribute) and n.attr == "random":
                named = [getattr(n.value, "id", "") + ".random"]
            elif isinstance(n, ast.Import):
                named = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                named = [f"{n.module}.{a.name}" for a in n.names]
            if any(name.split(".")[:2] in (["np", "random"],
                                           ["numpy", "random"])
                   for name in named):
                found.add((module, n.lineno))
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_scan_flags_numpy_random_outside_instances(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "instances.py").write_text(
        "import numpy as np\n\n"
        "def planted(seed):\n    return np.random.default_rng(seed)\n",
        encoding="utf-8")
    (pkg / "extract.py").write_text(
        '"""Weights once drawn by np.random, now fixed."""\n'
        "import numpy as np\nimport numpy.random\n"
        "from numpy import random, linalg\n"
        "from numpy.random import default_rng\n\n"
        "def weights(m, rng=None):\n    rng = rng or random\n"
        "    return np.random.default_rng(0).random(m)\n\n"
        "def solve(a):\n    return linalg.solve(a, numpy.random.rand(2))\n",
        encoding="utf-8")
    assert numpy_random_outside_instances(pkg) == [
        "extract.py:3", "extract.py:4", "extract.py:5", "extract.py:9",
        "extract.py:12"]


def test_only_the_instances_load_numpy_random():
    assert numpy_random_outside_instances(SRC) == []
