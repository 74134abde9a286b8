"""Source gate: certifications are raises, there is no floating point, and
every import and every top-level name is used.

`assert` statements vanish under ``python -O``, so a certification written
as one silently stops certifying; a float literal is an inexact number in
an exact library.  Both must stay at zero in ``src/symred``.  An unused
import is code left behind by a deletion; ``__init__.py`` is exempt because
its imports are the package's re-exports.  A top-level function or class
that nothing in ``src/`` or ``tests/`` names outside its own body is left
behind too; a re-export in ``__init__.py`` is not a use.  So is a field or
public method of a top-level class that nothing in ``src/`` or ``tests/``
reads as an attribute: a keyword argument at construction writes a field
and does not read it.  Every exception
class in ``errors.py`` is raised somewhere in ``src/``: a class that only a
test's ``pytest.raises`` names guards nothing.  ``scenarios.py`` has no
``&=``: a pointwise verdict folded into a flag loses the point where it
failed, so every verdict goes through ``ScenarioReport.add``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "symred").glob("*.py"))
TESTS = sorted((ROOT / "tests").rglob("*.py"))


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


def referenced(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def dead_names(modules: dict[str, ast.Module], others: list[ast.AST]) -> list[str]:
    """Top-level functions and classes of `modules` named nowhere but in their own body."""
    defined = []
    used = set()
    for module, tree in modules.items():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((module, node.lineno, own))
            used |= referenced(node) - {own}
    for tree in others:
        used |= referenced(tree)
    return [f"{module} line {line}: {name} is never used" for module, line, name in defined if name not in used]


def dead_members(modules: dict[str, ast.Module], others: list[ast.AST]) -> list[str]:
    """Fields and public methods of top-level classes in `modules` that no attribute load reads."""
    members = []
    for module, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names = [item.target.id]
                elif isinstance(item, ast.Assign):
                    names = [t.id for t in item.targets if isinstance(t, ast.Name)]
                elif isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                else:
                    continue
                members += [(module, item.lineno, cls.name, name) for name in names if not name.startswith("_")]
    read = {
        node.attr
        for tree in [*modules.values(), *others]
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [f"{module} line {line}: {cls}.{name} is never read" for module, line, cls, name in members if name not in read]


def and_assignments(tree: ast.AST) -> list[str]:
    return [
        f"line {node.lineno}: &= accumulation"
        for node in ast.walk(tree)
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitAnd)
    ]


def unraised(errors: ast.Module, sources: list[ast.AST]) -> list[str]:
    """Classes defined in `errors` that no `raise` statement in `sources` names."""
    raised = set()
    for tree in sources:
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
    return [
        f"line {node.lineno}: {node.name} is never raised"
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name not in raised
    ]


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


def test_no_dead_top_level_name():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC if p.name != "__init__.py"}
    others = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in TESTS]
    assert dead_names(modules, others) == []


def test_dead_name_gate_catches_unused():
    module = ast.parse(
        "def used():\n    return helper()\n\ndef helper():\n    return 1\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\nclass Orphan:\n    pass\n\n"
        "class Tested:\n    pass\n\nTABLE = {'u': used}\n"
    )
    test = ast.parse("import m\nm.Tested()\n")
    assert dead_names({"m.py": module}, [test]) == [
        "m.py line 7: recursive is never used",
        "m.py line 10: Orphan is never used",
    ]


def test_no_dead_class_member():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC if p.name != "__init__.py"}
    others = [ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in TESTS]
    assert dead_members(modules, others) == []


def test_dead_member_gate_catches_unused():
    module = ast.parse(
        "from dataclasses import dataclass\n\n@dataclass\nclass Point:\n    x: int\n    label: str\n"
        "    kind = 'p'\n    _cache = None\n\n    def norm(self):\n        return self.x\n\n"
        "    def unused(self):\n        return 0\n\n    def _private(self):\n        return 1\n\n"
        "def make():\n    return Point(x=1, label='a')\n"
    )
    test = ast.parse("import m\nassert m.make().norm() == 1\nassert m.Point.kind\nm.Point.unused = None\n")
    assert dead_members({"m.py": module}, [test]) == [
        "m.py line 6: Point.label is never read",
        "m.py line 13: Point.unused is never read",
    ]


def test_every_error_is_raised():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC}
    assert unraised(trees["errors.py"], list(trees.values())) == []


def test_raise_gate_catches_unraised():
    errors = ast.parse(
        "class Base(Exception):\n    pass\n\nclass Raised(Base):\n    pass\n\n"
        "class Bare(Base):\n    pass\n\nclass Dotted(Base):\n    pass\n\nclass Caught(Base):\n    pass\n"
    )
    source = ast.parse(
        "from .errors import Caught, Raised\nfrom . import errors\n\ndef f(x):\n"
        "    try:\n        g()\n    except Caught:\n        raise\n"
        "    if x:\n        raise Raised('x')\n    raise errors.Dotted() from None\n"
    )
    assert unraised(errors, [errors, source]) == [
        "line 1: Base is never raised",
        "line 7: Bare is never raised",
        "line 13: Caught is never raised",
    ]


def test_scenarios_record_every_verdict():
    path = ROOT / "src" / "symred" / "scenarios.py"
    assert and_assignments(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_and_assignment_gate_catches_accumulation():
    tree = ast.parse("ok = True\nfor x in xs:\n    ok &= x > 0\nmask |= 1\nok = ok and y\n")
    assert and_assignments(tree) == ["line 3: &= accumulation"]
