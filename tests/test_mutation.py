"""Every reported check of five scenarios is shown to fail.

A certificate is worth reporting only if some wrong input makes it reject.
Each entry of ``MUTATIONS`` names one mutation for one (scenario, check):
a monkeypatch of one library function, or one wrong scenario parameter.
Under it the check reports ``fail``, the report still renders, and
``cli.run`` exits 1.  ``sample_points`` records state the sampled inputs
and pass by construction, so they have no entry.  A scenario listed here
gains a check only together with its entry (``test_every_check_has_a_mutation``).
"""

import dataclasses

import pytest

from symred import cli, groupoid, lie, poisson, reduction, scenarios
from symred import linalg as la
from test_golden_report import CONFIGS

README = {entry["name"]: entry["params"] for entry in CONFIGS["readme_suite"]["scenarios"]}


def patched(target, name, value):
    """The mutation that replaces `target.name` by `value`."""
    def mutate(monkeypatch):
        monkeypatch.setattr(target, name, value)
        return {}
    return mutate


def wrong_input(**params):
    """The mutation that overrides scenario parameters."""
    return lambda monkeypatch: params


def principal_with(member, value):
    """``principal_sl2`` with one member of the triple replaced by another member, or by zero if None."""
    def triple(alg):
        parts = vars(lie.principal_sl2(alg)).copy()
        parts[member] = la.zeros(alg.dim) if value is None else parts[value]
        return lie.Sl2Triple(**parts)
    return triple


_annihilator = la.annihilator
_centralizer = lie.LieAlgebra.centralizer
_explicit_tangent = poisson.Explicit._tangent
_casimir_tangent = poisson.CasimirLevelSet._tangent
_class_tangent = poisson.DecompositionClass._tangent
_eval_reduced = reduction.ReducedSpaceModel.eval_reduced
_root_subsystem_algebra = poisson.WeylChamberFace.root_subsystem_algebra
_omega_gram = reduction.omega_gram


def altered_fibers(change):
    """The mutation that passes every fiber of positive rank from ``algebroid_fiber`` through `change`."""
    def mutate(monkeypatch):
        original = poisson.algebroid_fiber

        def fiber(p, s, xi):
            f = original(p, s, xi)
            return change(f) if f.rank else f

        monkeypatch.setattr(poisson, "algebroid_fiber", fiber)
        return {}
    return mutate


# every fiber of positive rank reported as not inside ker sigma, its basis kept
unstable_fibers = altered_fibers(lambda f: dataclasses.replace(f, contained_in_centralizer=False))


MUTATIONS = {
    # a triple with e = 0: the slice g_f passes through x = 0, where [g, x] = 0
    ("slodowy_moore_tachikawa", "slice_transversality"): patched(scenarios, "principal_sl2", principal_with("e", None)),
    # every centralizer tuple embedded in the first factor: the oracle collapses to 0
    ("slodowy_moore_tachikawa", "diagonal_fiber_two_route"):
        patched(scenarios, "embed_factor", lambda product_dim, factor_dim, k, x: lie.embed_factor(product_dim, factor_dim, 0, x)),
    # the slice along g_e instead of g_f
    ("slodowy_moore_tachikawa", "fiber_rank"): patched(scenarios, "principal_sl2", principal_with("f", "e")),
    # the line e + Q h, whose fiber rank jumps at e
    ("slodowy_moore_tachikawa", "pre_poisson_sampled"): patched(scenarios, "principal_sl2", principal_with("f", "h")),
    # a kernel test that accepts no vector
    ("slodowy_moore_tachikawa", "stable"): patched(la, "is_zero", lambda u: False),
    # pointwise Omega that disagrees with its Gram matrix
    ("slodowy_moore_tachikawa", "kernel_two_route"): patched(reduction, "omega_eval", lambda alg, xi, u, v: la.ONE),
    ("slodowy_moore_tachikawa", "reduced_dim"): wrong_input(expected_reduced_dim=9),
    # a tangent one vector short: codimension 4
    ("decomposition_class_sl3", "tangent_space"):
        patched(poisson.DecompositionClass, "_tangent", lambda self, xi: _class_tangent(self, xi)[:-1]),
    # a centralizer one vector short: its derived algebra misses part of the fiber
    ("decomposition_class_sl3", "annihilator_two_route"):
        patched(lie.LieAlgebra, "centralizer", lambda self, x: _centralizer(self, x)[:-1]),
    # an sl2 certificate that accepts no triple
    ("decomposition_class_sl3", "h_is_sl2"): patched(lie.Sl2Triple, "verify", lambda self, algebra: False),
    # span{e_(0,1), e_(1,0)}, basis vectors 2 and 3, whose bracket is a multiple of e_(1,1)
    ("decomposition_class_sl3", "h_bracket_closed"):
        patched(poisson, "stabilizer_subalgebra", lambda pm, s, xi: [la.unit(len(xi), 2), la.unit(len(xi), 3)]),
    # pointwise Omega that disagrees with its Gram matrix
    ("decomposition_class_sl3", "kernel_two_route"): patched(reduction, "omega_eval", lambda alg, xi, u, v: la.ONE),
    # the reduced form with its sign flipped
    ("decomposition_class_sl3", "reduced_form_formula"):
        patched(reduction.ReducedSpaceModel, "eval_reduced", lambda self, v, w: -_eval_reduced(self, v, w)),
    # a tangent one vector short at the first point only
    ("decomposition_class_sl3", "pre_poisson_sampled"): patched(poisson.DecompositionClass, "_tangent", lambda self, xi: (
        _class_tangent(self, xi)[: -1 if xi == self.sample_points[0] else None])),
    # every fiber reported unstable
    ("decomposition_class_sl3", "stable"): unstable_fibers,
    ("decomposition_class_sl3", "reduced_dim"): wrong_input(expected_reduced_dim=9),
    # an annihilator one vector short
    ("c4_prepoisson_remark", "annihilator_span"): patched(la, "annihilator", lambda gens, dim: _annihilator(gens, dim)[:-1]),
    # the tangent of x^2 = -u, not of the quadric
    ("c4_prepoisson_remark", "omega_orthogonal_span"):
        patched(poisson.Explicit, "_tangent", lambda self, xi: [la.vec([1, 0, -2 * xi[0], 0]), la.vec([0, 0, 0, 1])]),
    # the zero bivector in place of omega's inverse
    ("c4_prepoisson_remark", "trivial_stabilizer"): patched(poisson, "symplectic_model", lambda omega: poisson.trivial_model(4)),
    # a tangent that loses d/dv at t = 1 only
    ("c4_prepoisson_remark", "pre_poisson_sampled"):
        patched(poisson.Explicit, "_tangent", lambda self, xi: _explicit_tangent(self, xi)[: 1 if xi[0] == 1 else 2]),
    # a pairing that is identically zero
    ("c4_prepoisson_remark", "reduced_dim"): patched(la, "dot", lambda u, v: la.ZERO),
    # a kernel test that accepts no vector
    ("casimir_sphere", "stable"): patched(la, "is_zero", lambda u: False),
    # the tangent (e_0)^perp at every point, which is T_xi S at the base point h^flat only
    ("casimir_sphere", "fiber_is_dual_ray"):
        patched(poisson.CasimirLevelSet, "_tangent", lambda self, xi: la.nullspace([la.unit(self.ambient_dim, 0)])),
    # a tangent one vector short at the first point only
    ("casimir_sphere", "pre_poisson_sampled"): patched(poisson.CasimirLevelSet, "_tangent", lambda self, xi: (
        _casimir_tangent(self, xi)[: -1 if xi == self.sample_points[0] else None])),
    # every fiber reported unstable; its stable record reads the same verdict and fails too
    ("casimir_sphere", "reduced_dim"): unstable_fibers,
    # g_Psi = g on every face: only the closed face a1_a2 has the fiber g
    **{("implosion_faces_A2", f"face_{face}_fiber"):
       patched(poisson.WeylChamberFace, "root_subsystem_algebra", lambda self, xi: la.identity(self.algebra.dim))
       for face in ("interior", "a1", "a2")},
    # g_Psi one vector short: g on the closed face loses a vector
    ("implosion_faces_A2", "face_a1_a2_fiber"):
        patched(poisson.WeylChamberFace, "root_subsystem_algebra", lambda self, xi: _root_subsystem_algebra(self, xi)[:-1]),
    # an isotropy certificate that accepts no fiber
    **{("implosion_faces_A2", f"face_{face}_groupoid"): patched(groupoid, "_isotropic", lambda alg, xi, vectors: False)
       for face in ("interior", "a1", "a2", "a1_a2")},
    # the Gram route of the kernel at xi = 0, where Omega pairs u with zeta only: its kernel is (T_xi S)° x 0,
    # not h_xi = 0 on the interior, which unstable_fibers leaves alone as its fiber is 0
    ("implosion_faces_A2", "face_interior_dimension"):
        patched(reduction, "omega_gram", lambda alg, xi, vectors: _omega_gram(alg, la.zeros(len(xi)), vectors)),
    # every fiber of positive rank reported unstable: the reduction step fails the face
    **{("implosion_faces_A2", f"face_{face}_dimension"): unstable_fibers for face in ("a1", "a2", "a1_a2")},
    # every fiber of positive rank one basis vector short: dims 0, 2, 2, 7
    ("implosion_faces_A2", "face_dims"): altered_fibers(lambda f: dataclasses.replace(f, basis=f.basis[:-1])),
}


def run(scenario, params):
    config = {"scenarios": [{"name": scenario, "params": params}], "seed": 42, "sample_count": 3}
    return cli.run(cli.parse_config(config))


@pytest.mark.parametrize("scenario,check", MUTATIONS, ids=lambda v: v)
def test_mutation_fails_its_check(monkeypatch, scenario, check):
    params = {**README[scenario], **MUTATIONS[scenario, check](monkeypatch)}
    document, code = run(scenario, params)
    statuses = {c["name"]: c["status"] for c in document["scenarios"][0]["checks"]}
    assert statuses[check] == "fail"
    assert f'"name": "{check}"' in cli.render_json(document)
    assert code == 1


@pytest.mark.parametrize("scenario", sorted({scenario for scenario, _ in MUTATIONS}))
def test_every_check_has_a_mutation(scenario):
    document, code = run(scenario, README[scenario])
    names = {c["name"] for c in document["scenarios"][0]["checks"]}
    assert code == 0
    assert names - {"sample_points"} == {check for s, check in MUTATIONS if s == scenario}
