"""Every module of the package uses each name it imports.

The package ``__init__.py`` files import names only to re-export them, so
they are left out.  Names are found with ``ast``: a name counts as used
when it appears anywhere in the module as an identifier, including inside
a quoted annotation.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "fsipp"


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
