"""Every module of the package uses each name it imports, and every
top-level function or class of the package is named outside the tests.

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
