"""Source gate: certifications are raises, there is no floating point, and
every import is used.

`assert` statements vanish under ``python -O``, so a certification written
as one silently stops certifying; a float literal is an inexact number in
an exact library.  Both must stay at zero in ``src/symred``.  An unused
import is code left behind by a deletion; ``__init__.py`` is exempt because
its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "symred").glob("*.py"))


def offences(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            found.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
    return found


def unused_imports(tree: ast.AST) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: unused import {name}" for name, line in imported.items() if name not in used]


def test_sources_found():
    assert len(SRC) >= 10


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_or_float_literal(path):
    assert offences(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_gate_catches_both():
    tree = ast.parse("assert x\ny = 0.5\nz = 2j\nw = 3\n")
    assert offences(tree) == ["line 1: assert statement", "line 2: float literal 0.5", "line 3: float literal 2j"]


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "__init__.py"], ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_import_gate_catches_unused():
    tree = ast.parse(
        "from __future__ import annotations\nimport os\nimport os.path\nimport sys as system\n"
        "from a import b, c as d\nfrom .e import f\nprint(d, os.sep)\nf()\n"
    )
    assert unused_imports(tree) == ["line 4: unused import system", "line 5: unused import b"]
