"""Source gate: certifications are raises, and there is no floating point.

`assert` statements vanish under ``python -O``, so a certification written
as one silently stops certifying; a float literal is an inexact number in
an exact library.  Both must stay at zero in ``src/symred``.
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


def test_sources_found():
    assert len(SRC) >= 10


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_or_float_literal(path):
    assert offences(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_gate_catches_both():
    tree = ast.parse("assert x\ny = 0.5\nz = 2j\nw = 3\n")
    assert offences(tree) == ["line 1: assert statement", "line 2: float literal 0.5", "line 3: float literal 2j"]
