"""Source gate: certifications are raises, there is no floating point, and
every import and every top-level name is used.

`assert` statements vanish under ``python -O``, so a certification written
as one silently stops certifying; a float literal is an inexact number in
an exact library.  Both must stay at zero in ``src/symred``.  An unused
import is code left behind by a deletion; ``__init__.py`` is exempt because
its imports are the package's re-exports.  A top-level function or class
that nothing in ``src/`` or ``tests/`` names outside its own body is left
behind too; a re-export in ``__init__.py`` is not a use.  So is a
top-level function or class in ``tests/`` other than a ``test_*`` function
that nothing in ``tests/`` names, a fixture counting as named where a test
or fixture takes it as a parameter.  So is a field or
public method of a top-level class that nothing in ``src/`` or ``tests/``
reads as an attribute: a keyword argument at construction writes a field
and does not read it.  A public top-level function or class of ``src/`` is
named by another ``src/`` body or imported by ``__init__.py``: a route
that only tests call belongs in the test oracle.  Every exception
class in ``errors.py`` is raised somewhere in ``src/``: a class that only a
test's ``pytest.raises`` names guards nothing.  ``scenarios.py`` has no
``&=``: a pointwise verdict folded into a flag loses the point where it
failed, so every verdict goes through ``ScenarioReport.add``.  A
``SubmanifoldModel`` subclass in ``poisson.py`` whose ``_tangent`` never
reads its point has the same tangent space everywhere, so it is an affine
model, and ``AffineSubspace`` is the only one.  The two routes of a
two-route check stay independent: the pairwise route of Omega
(``omega_eval``, ``LieAlgebra.bracket_pairing``,
``reduced_form_well_defined``) names none of the Gram route's
``coadjoint_matrix``, ``_coadjoint`` or ``omega_gram``, and the orbit route
of the kernel (``orbit_tangent_in_universal``) names no ``omega_gram``.
Only ``poisson.py`` compares a ``kind`` attribute: elsewhere a model's kind
is decided by its class, and ``kind`` is a label for messages.
Every annotation is a string (``from __future__ import annotations``), so
``import symred`` loads no ``typing``, whose import is a cost that every
run pays.

The reach gate runs what the reports run and fails on any ``def`` in
``src/`` whose code never ran.  A fresh interpreter, so that no
``lru_cache`` or memo dict filled by an earlier test can hide code, runs
the three golden-report configs, ``build_chevalley`` and ``verify_jacobi``
on every supported type, ``verify_killing_invariance`` on G2, and
``cli.main`` on ``list-scenarios``, a missing config, a refused parameter
and a run at ``sample_count`` 4, under ``sys.settrace`` with a tracer that
records each entered code object and traces no lines.  A function that no
report runs is either a library API that an open ROADMAP item will report,
named in ``REACH_ALLOWLIST`` with its reason, or it leaves ``src/``: to
``tests/reference_kernels.py`` as a test oracle, or altogether.  An
allowlist entry that now runs, or names no ``def``, fails the gate too.
"""

import ast
import json
import subprocess
import sys
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


def dead_names(modules: dict[str, ast.Module], others: list[ast.AST], uses=referenced) -> list[str]:
    """Top-level functions and classes of `modules` named nowhere but in their own body.

    `uses` gives the names a tree uses.
    """
    defined = []
    used = set()
    for module, tree in modules.items():
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defined.append((module, node.lineno, own))
            used |= uses(node) - {own}
    for tree in others:
        used |= uses(tree)
    return [f"{module} line {line}: {name} is never used" for module, line, name in defined if name not in used]


def referenced_or_imported(tree: ast.AST) -> set[str]:
    """The names `tree` references, and the names it imports: ``__init__.py`` uses a name by re-exporting it."""
    names = referenced(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names |= {alias.name for alias in node.names}
    return names


def unreached_public_names(modules: dict[str, ast.Module], init: ast.Module) -> list[str]:
    """Public top-level names of the `modules` that no other body names and `init` does not import."""
    return [found for found in dead_names(modules, [init], referenced_or_imported) if ": _" not in found]


def referenced_or_requested(tree: ast.AST) -> set[str]:
    """The names `tree` references, and its parameter names: pytest passes a fixture by parameter name."""
    names = referenced(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            names |= {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    return names


def orphaned_test_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """Top-level functions and classes of the test `modules` that nothing names; pytest collects ``test_*`` itself."""
    return [found for found in dead_names(modules, [], referenced_or_requested) if ": test_" not in found]


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


def second_affine_models(tree: ast.Module) -> list[str]:
    """``SubmanifoldModel`` subclasses but ``AffineSubspace`` whose ``_tangent`` never reads its point."""
    models = {"SubmanifoldModel"}
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef) or not any(getattr(b, "id", None) in models for b in cls.bases):
            continue
        models.add(cls.name)
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "_tangent" and cls.name != "AffineSubspace":
                point = item.args.args[1].arg if len(item.args.args) > 1 else "its point"
                loads = {n.id for n in ast.walk(item) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                if point not in loads:
                    found.append(f"line {item.lineno}: {cls.name}._tangent never reads {point}")
    return found


def kind_comparisons(modules: dict[str, ast.Module]) -> list[str]:
    """Comparisons outside ``poisson.py`` with a ``.kind`` attribute among their operands."""
    return [
        f"{module} line {node.lineno}: compares .kind"
        for module, tree in modules.items()
        if module != "poisson.py"
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and any(isinstance(op, ast.Attribute) and op.attr == "kind" for op in [node.left, *node.comparators])
    ]


def definition(tree: ast.Module, qualname: str) -> ast.AST | None:
    """The top-level function ``f`` or method ``Class.f`` of `tree`, or None."""
    body = tree.body
    *owner, name = qualname.split(".")
    for part in owner:
        body = next((node.body for node in body if isinstance(node, ast.ClassDef) and node.name == part), [])
    return next((node for node in body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name), None)


def crossings(modules: dict[str, ast.Module], route: dict[str, tuple[str, ...]], forbidden: set[str]) -> list[str]:
    """The `forbidden` names each function of `route` (module -> qualified names) uses, and the route's missing functions."""
    found = []
    for module, qualnames in route.items():
        for qualname in qualnames:
            node = definition(modules[module], qualname)
            if node is None:
                found.append(f"{module}: {qualname} is not defined")
            else:
                found += [f"{module}: {qualname} names {name}" for name in sorted(referenced(node) & forbidden)]
    return found


# The two routes of each two-route check read disjoint data: the pairwise
# route and the orbit route never read the Gram route's coadjoint matrix C.
GRAM_ROUTE = {"coadjoint_matrix", "_coadjoint", "omega_gram"}
PAIRWISE_ROUTE = {
    "groupoid.py": ("omega_eval",),
    "lie.py": ("LieAlgebra.bracket_pairing",),
    "reduction.py": ("reduced_form_well_defined",),
}
ORBIT_ROUTE = {"reduction.py": ("orbit_tangent_in_universal",)}

MODULES = ["__init__", "cli", "errors", "groupoid", "lie", "linalg", "poisson", "reduction", "scenarios"]

# Run in a fresh interpreter with src/ and tests/ as its two arguments; prints
# the exit codes of the cli.main calls and the module:qualname of every src/
# code object entered.  Returning None from the tracer traces no lines.
REACH_SCRIPT = """
import contextlib, io, json, os, sys, tempfile
from pathlib import Path
src, tests = sys.argv[1:3]
sys.path[:0] = [src, tests]
package = Path(src, "symred").resolve()
entered = set()
sys.settrace(lambda frame, event, arg: entered.add(frame.f_code))
from symred import cli, lie
from test_golden_report import CONFIGS, render_all
render_all()
for cartan_type, rank in sorted(lie.SUPPORTED):
    lie.build_chevalley(cartan_type, rank).verify_jacobi()
lie.build_chevalley("G2", 2).verify_killing_invariance()
with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    configs = {"refused": {"scenarios": [{"name": "casimir_sphere", "params": {"algebra": "A9"}}]},
               "suite": CONFIGS["readme_suite"]}
    for name, document in configs.items():
        Path(tmp, name).write_text(json.dumps(document))
    codes = [cli.main(["list-scenarios"]), cli.main(["run", os.path.join(tmp, "missing")]),
             cli.main(["run", os.path.join(tmp, "refused")]),
             cli.main(["run", os.path.join(tmp, "suite"), "--sample-count", "4", "--report", os.path.join(tmp, "out")])]
sys.settrace(None)
names = sorted({f"{Path(c.co_filename).stem}:{c.co_qualname}" for c in entered if Path(c.co_filename).resolve().parent == package})
print(json.dumps({"codes": codes, "entered": names}))
"""

# The defs no report runs, each with the reason it stays in src/.
REACH_ALLOWLIST = {
    "groupoid:source_target_differentials": "ROADMAP item 7: the universal property's source and target maps",
    "lie:LieAlgebra.ad_star": "ROADMAP item 7: the moment map's infinitesimal equivariance",
    "groupoid:mw_fiber": "ROADMAP item 23: the Marsden-Weinstein fiber of the orbit route",
    "groupoid:GroupoidTangentFiber.rank": "ROADMAP item 23: the rank of mw_fiber's fiber",
    "groupoid:coadjoint_orbit_fiber": "ROADMAP item 25: the groupoid fiber at the orbit points",
    "groupoid:normality_infinitesimal_check": "ROADMAP item 25: normality at translated decomposition points",
    "poisson:CoadjointOrbit.__init__": "ROADMAP item 25: the coadjoint-orbit model",
    "poisson:CoadjointOrbit.with_witness": "ROADMAP item 25: the coadjoint-orbit model",
    "poisson:CoadjointOrbit._contains": "ROADMAP item 25: the coadjoint-orbit model",
    "poisson:CoadjointOrbit._tangent": "ROADMAP item 25: the coadjoint-orbit model",
    "poisson:SubmanifoldModel.contains": "ROADMAP item 25: membership of a translated orbit point",
    "lie:LieAlgebra.identity_element": "ROADMAP item 25: the orbit seed's witness",
    "lie:LieAlgebra.adjoint_group_action": "ROADMAP item 25: Ad_g in the normality check",
    "lie:GroupElement.__mul__": "ROADMAP item 25: composing orbit witnesses",
    "lie:GroupElement.inv": "ROADMAP item 25: the inverse witness of the orbit fiber",
    "poisson:coisotropic_check": "ROADMAP item 8: coisotropic reduction in the gluing law",
    "lie:RootSystem.pairing": "library API on root tuples, in the README; the builder reads the index form",
    "lie:RootSystem.norm2": "library API on root tuples, in the README; the builder reads the index form",
    "lie:RootSystem.p_string": "library API on root tuples, in the README; the builder reads the index form",
    "lie:RootSystem.extraspecial": "library API on root tuples, in the README; the builder reads the index form",
    "poisson:SubmanifoldModel._contains": "abstract: every model overrides it",
    "poisson:SubmanifoldModel._tangent": "abstract: every model overrides it",
}


def defined_functions(modules: dict[str, ast.Module]) -> list[str]:
    """``module:qualname`` of every def in `modules`, qualified as the code object's ``co_qualname`` is."""
    found = []

    def walk(module, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(f"{module}:{prefix}{child.name}")
                walk(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(module, child, f"{prefix}{child.name}.")
            else:
                walk(module, child, prefix)

    for module, tree in modules.items():
        walk(module, tree, "")
    return found


def unreached_functions(defined: list[str], entered: set[str], allowlist: dict[str, str]) -> list[str]:
    """The `defined` functions never `entered` and not in `allowlist`, and its stale entries."""
    found = [f"{name} never ran" for name in defined if name not in entered and name not in allowlist]
    found += [f"{name} is allowlisted but ran" for name in allowlist if name in entered]
    found += [f"{name} is allowlisted but not defined" for name in allowlist if name not in defined]
    return found


def test_sources_found():
    assert [p.stem for p in SRC] == MODULES


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


def test_every_public_name_is_reached_from_src():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC if p.name != "__init__.py"}
    init = ROOT / "src" / "symred" / "__init__.py"
    assert unreached_public_names(modules, ast.parse(init.read_text(encoding="utf-8"), filename=str(init))) == []


def test_unreached_name_gate_catches_a_test_only_route():
    module = ast.parse(
        "def used():\n    return exported()\n\ndef exported():\n    return 1\n\n"
        "def _private():\n    return 2\n\ndef only_tests_call():\n    return 3\n\n"
        "class Exported:\n    pass\n\nclass Planted:\n    pass\n"
    )
    other = ast.parse("from .m import used\n\ndef run():\n    return used()\n")
    init = ast.parse("from .m import Exported, used\n")
    assert unreached_public_names({"m.py": module, "n.py": other}, init) == [
        "m.py line 10: only_tests_call is never used",
        "m.py line 16: Planted is never used",
        "n.py line 3: run is never used",
    ]


def test_no_orphaned_test_helper():
    modules = {str(p.relative_to(ROOT / "tests")): ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in TESTS}
    assert orphaned_test_helpers(modules) == []


def test_orphaned_helper_gate_catches_unused():
    conftest = ast.parse(
        "import pytest\n\n@pytest.fixture\ndef alg():\n    return 1\n\n"
        "@pytest.fixture\ndef spare():\n    return 2\n\ndef helper():\n    return 3\n"
    )
    module = ast.parse(
        "from conftest import helper\n\ndef square(n):\n    return n * n\n\n"
        "def cube(n):\n    return n * square(n)\n\nclass Unused:\n    pass\n\n"
        "def test_alg(alg):\n    assert square(alg) == 1 and helper()\n"
    )
    assert orphaned_test_helpers({"conftest.py": conftest, "test_m.py": module}) == [
        "conftest.py line 8: spare is never used",
        "test_m.py line 6: cube is never used",
        "test_m.py line 9: Unused is never used",
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


def test_one_affine_model():
    path = ROOT / "src" / "symred" / "poisson.py"
    assert second_affine_models(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_affine_model_gate_catches_a_second_one():
    tree = ast.parse(
        "class SubmanifoldModel:\n    def _tangent(self, xi):\n        raise NotImplementedError\n\n"
        "class AffineSubspace(SubmanifoldModel):\n    def _tangent(self, xi):\n        return self.directions\n\n"
        "class Orbit(SubmanifoldModel):\n    def _tangent(self, xi):\n        return span(xi)\n\n"
        "class Slice(SubmanifoldModel):\n    def _tangent(self, xi):\n        return self.gf\n\n"
        "class Face(AffineSubspace):\n    def _tangent(self, p):\n        xi = 0\n        return [xi]\n\n"
        "class Point(Orbit):\n    def _tangent(self):\n        return []\n\n"
        "class Unrelated:\n    def _tangent(self, xi):\n        return []\n"
    )
    assert second_affine_models(tree) == [
        "line 14: Slice._tangent never reads xi",
        "line 18: Face._tangent never reads p",
        "line 23: Point._tangent never reads its point",
    ]


def test_only_poisson_compares_a_kind():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC}
    assert kind_comparisons(modules) == []


def test_kind_gate_catches_a_comparison():
    module = ast.parse(
        "def f(m):\n    if m.kind == 'x':\n        return 1\n    if 'y' != m.kind:\n        return 2\n"
        "    if m.kind in KINDS:\n        return 3\n    raise ValueError(f'kind {m.kind} is not invariant')\n"
    )
    poisson = ast.parse("def g(p):\n    return p.kind == 'kks'\n")
    assert kind_comparisons({"m.py": module, "poisson.py": poisson}) == [
        "m.py line 2: compares .kind",
        "m.py line 4: compares .kind",
        "m.py line 6: compares .kind",
    ]


def test_two_route_checks_stay_independent():
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC}
    assert crossings(modules, PAIRWISE_ROUTE, GRAM_ROUTE) == []
    assert crossings(modules, ORBIT_ROUTE, {"omega_gram"}) == []


def test_independence_gate_catches_a_crossing():
    module = ast.parse(
        "def omega_eval(alg, xi, v1, v2):\n    return alg.coadjoint_matrix(xi)[0][0]\n\n"
        "def clean(alg, xi):\n    return alg.bracket_pairing(xi, xi, xi)\n\n"
        "class Algebra:\n    def pairing(self, xi):\n        return self._coadjoint.get(xi) or omega_gram(self, xi, [])\n"
    )
    route = {"m.py": ("omega_eval", "clean", "Algebra.pairing", "Algebra.renamed", "gone")}
    assert crossings({"m.py": module}, route, GRAM_ROUTE) == [
        "m.py: omega_eval names coadjoint_matrix",
        "m.py: Algebra.pairing names _coadjoint",
        "m.py: Algebra.pairing names omega_gram",
        "m.py: Algebra.renamed is not defined",
        "m.py: gone is not defined",
    ]


def test_import_loads_no_typing():
    """Checked in a fresh interpreter started with -S, as ``site`` may import ``typing`` itself."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import symred, symred.cli; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    modules = out.stdout.split()
    assert "symred.cli" in modules and "typing" not in modules


def test_every_function_runs_in_a_report():
    """The reach gate; see the module docstring."""
    out = subprocess.run(
        [sys.executable, "-c", REACH_SCRIPT, str(ROOT / "src"), str(ROOT / "tests")], capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout)
    assert result["codes"] == [0, 2, 2, 0]
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in SRC}
    assert unreached_functions(defined_functions(modules), set(result["entered"]), REACH_ALLOWLIST) == []


def test_reach_gate_catches_an_unreached_function_and_a_stale_entry():
    module = ast.parse(
        "def ran():\n    def inner():\n        return 1\n    return inner()\n\n"
        "def planted():\n    return 2\n\nclass Model:\n    def method(self):\n        return 3\n\n"
        "    def stub(self):\n        raise NotImplementedError\n\n"
        "if True:\n    def guarded():\n        return 4\n"
    )
    defined = defined_functions({"m": module})
    assert defined == ["m:ran", "m:ran.<locals>.inner", "m:planted", "m:Model.method", "m:Model.stub", "m:guarded"]
    entered = {"m:ran", "m:ran.<locals>.inner", "m:Model.method", "m:guarded", "other:run"}
    allowlist = {"m:Model.stub": "abstract", "m:Model.method": "now runs", "m:gone": "deleted"}
    assert unreached_functions(defined, entered, allowlist) == [
        "m:planted never ran",
        "m:Model.method is allowlisted but ran",
        "m:gone is allowlisted but not defined",
    ]
