from collections import Counter
from fractions import Fraction as Q

import pytest

import reference_kernels as ref
from symred import groupoid as gpd
from symred import cli, lie, poisson, reduction, scenarios
from symred import linalg as la
from symred.errors import DimensionMismatch, LiftNotValid, NotStable
from conftest import subregular_point


def test_orbit_tangent_cases(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[0]])
    assert reduction.orbit_tangent_in_universal(sl2, sl, sl.sample_points[0]) == []
    orb = poisson.CoadjointOrbit(sl2, hb)
    got = reduction.orbit_tangent_in_universal(sl2, orb, hb)
    assert la.span_equal(got, [tuple(la.neg(h)) + la.zeros(3)])
    single = poisson.AffineSubspace(hb, [])
    got = reduction.orbit_tangent_in_universal(sl2, single, hb)
    assert la.span_equal(got, [tuple(la.neg(h)) + la.zeros(3)])


def test_orbit_tangent_is_compared_without_elimination(sl3, eliminations):
    """The orbit side is (x, 0) over the canonical basis of h_xi: the span of {(-x, 0)}, already canonical."""
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)])
    xi = dec.sample_points[0]
    h = poisson.stabilizer_subalgebra(poisson.kks_model(sl3), dec, xi)
    orbit = reduction.orbit_tangent_in_universal(sl3, dec, xi)
    assert orbit == [tuple(x) + la.zeros(8) for x in h] and len(h) == 3
    assert la.span_equal(orbit, [tuple(la.neg(x)) + la.zeros(8) for x in h])
    assert eliminations(lambda: la.span_basis(orbit)) == (0, orbit)


def test_orbit_tangent_requires_stable(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    line = poisson.AffineSubspace(hb, [sl2.flat(sl2.root_vector((1,)))])
    fiber = poisson.algebroid_fiber(poisson.kks_model(sl2), line, hb)
    assert fiber.rank == 2 and not fiber.contained_in_centralizer
    with pytest.raises(NotStable):
        reduction.orbit_tangent_in_universal(sl2, line, hb)


def kernel_oracle(alg, s_model, xi):
    """Independent route: radical of Omega on T N via the full ambient form.

    Computes T_pN ∩ (T_pN)^Omega with the orthogonal taken in the ambient
    g x g* and intersected back, rather than via the restricted Gram.
    """
    n = alg.dim
    tangent = s_model.tangent_basis(xi)
    n_basis = [tuple(la.unit(n, i)) + la.zeros(n) for i in range(n)]
    n_basis += [la.zeros(n) + tuple(t) for t in tangent]
    full = [la.unit(2 * n, i) for i in range(2 * n)]
    rows = []
    for b in n_basis:
        rows.append(tuple(gpd.omega_eval(alg, xi, b, v) for v in full))
    # v in (T_pN)^Omega iff it annihilates every row as a functional
    orth = la.nullspace(rows, len(rows[0]))
    return ref.intersect_spans(n_basis, orth)


def test_kernel_identity_slice_orbit_singleton(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    cases = [
        (poisson.slodowy_slice(sl2, tri, parameters=[[0], [1], [-2]]), 4, 0),
        (poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1), sl2.unipotent(f, Q(1, 3))]), 4, 1),
        (poisson.AffineSubspace(hb, []), 2, 1),
    ]
    for model_s, expect_dim, expect_kernel in cases:
        for pt in model_s.sample_points:
            agree, model = reduction.kernel_identity_check(sl2, model_s, pt)
            assert agree
            assert len(model.kernel) == expect_kernel
            assert model.quotient_dim == expect_dim
            assert la.rank(model.reduced_form) == model.quotient_dim
            assert reduction.reduced_form_well_defined(sl2, model)
            assert la.span_equal(list(model.kernel), kernel_oracle(sl2, model_s, pt))
            assert reduction.dimension_formula_check(sl2, model_s, pt, model)


def test_kernel_identity_at_nonidentity_base(sl2, sl2_efh):
    # In left-trivialised coordinates Omega at (g, xi) depends on xi alone,
    # so the check at a non-identity base is the check at its xi, the one
    # value a groupoid fiber at (g, xi) keeps.
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(sl2, hb)
    gt = ref.matrix_group_element(sl2, [[3, 0], [0, Q(1, 3)]])
    agree, model = reduction.kernel_identity_check(sl2, orb, gpd.coadjoint_orbit_fiber(sl2, hb, gt).xi)
    assert agree and model.quotient_dim == 4
    assert model == reduction.kernel_identity_check(sl2, orb, hb)[1]


def test_explicit_dependent_tangent_counts_once(sl2, kks2):
    """A tangent vector given twice at h^flat once gave quotient_dim 5 against the orbit's 4, with agree still True."""
    hb = sl2.flat(sl2.basis_vec(0))
    orbit = poisson.CoadjointOrbit(sl2, hb)
    tangent = orbit.tangent_basis(hb)
    repeated = poisson.Explicit(3, lambda xi: tangent + [tangent[0]], [hb])
    assert repeated.tangent_basis(hb) == tangent
    fiber = poisson.algebroid_fiber(kks2, repeated, hb)
    assert fiber.rank == poisson.algebroid_fiber(kks2, orbit, hb).rank == 1 and fiber.contained_in_centralizer
    agree, model = reduction.kernel_identity_check(sl2, repeated, hb)
    assert agree and model.quotient_dim == reduction.kernel_identity_check(sl2, orbit, hb)[1].quotient_dim == 4
    assert reduction.dimension_formula_check(sl2, repeated, hb, model)


def test_kernel_routes_are_independent(monkeypatch):
    """Omega's Gram matrix taken at xi = 0 breaks the Gram route only: the orbit route reads no Gram matrix,
    so the routes disagree, and the report fails kernel_two_route and reduced_dim."""
    original = reduction.omega_gram
    monkeypatch.setattr(reduction, "omega_gram", lambda alg, xi, vectors: original(alg, la.zeros(len(xi)), vectors))
    config = {"scenarios": [{"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 1, "n": 3}}],
              "seed": 42, "sample_count": 3}
    document, code = cli.run(cli.parse_config(config))
    statuses = {c["name"]: c["status"] for c in document["scenarios"][0]["checks"]}
    assert statuses["kernel_two_route"] == statuses["reduced_dim"] == "fail"
    assert code == 1


def test_dimension_formula_diagonal(sl2):
    tri = lie.principal_sl2(sl2)
    dia = poisson.diagonal(poisson.slodowy_slice(sl2, tri, [[0], [1], [-2]]), 2)
    product = lie.direct_power(sl2, 2)
    for pt in dia.sample_points:
        agree, model = reduction.kernel_identity_check(product, dia, pt)
        assert agree and model.quotient_dim == 6  # = dim of the cotangent space of the group
        assert reduction.dimension_formula_check(product, dia, pt, model)


def test_decomposition_form(sl3, rng):
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3), subregular_point(sl3, 2)])
    pm = poisson.kks_model(sl3)
    for xi in dec.sample_points:
        x = sl3.sharp(xi)
        fiber = poisson.algebroid_fiber(pm, dec, xi)
        kernel = reduction.kernel_identity_check(sl3, dec, xi)
        mperp = la.nullspace([sl3.flat(mb) for mb in fiber.basis], 8)

        def rand_perp():
            z = la.zeros(8)
            for b in mperp:
                z = la.add(z, la.scale(la.random_fraction(rng), b))
            return z

        # same vector in the quotient factor, zero in the perp factor
        u = la.random_vector(rng, 8)
        assert reduction.decomposition_form_check(sl3, kernel, [(((u), la.zeros(8)), ((u), la.zeros(8)))])
        # mixed pair evaluates to -kappa(u, z) through both routes
        z = rand_perp()
        assert reduction.decomposition_form_check(sl3, kernel, [((u, la.zeros(8)), (la.zeros(8), z))])
        pairs = [((la.random_vector(rng, 8), rand_perp()), (la.random_vector(rng, 8), rand_perp())) for _ in range(25)]
        assert reduction.decomposition_form_check(sl3, kernel, pairs)
        # a point where the two kernel routes disagreed fails before any pair is evaluated
        assert not reduction.decomposition_form_check(sl3, (False, kernel[1]), pairs)
        # z in m = the fiber is not Killing-orthogonal to m, so (u, z^flat) is not tangent to N
        with pytest.raises(LiftNotValid):
            reduction.decomposition_form_check(sl3, kernel, [((u, fiber.basis[0]), (u, la.zeros(8)))])


def test_sharp_pairs_as_xi_at_the_decomposition_points(sl3, rng):
    """<xi^sharp, y> = xi(y), as K is symmetric, at the four points of decomposition_class_sl3.

    So ``decomposition_form_check`` reads <x, [u1, u2]> as xi([u1, u2]).
    """
    for xi in (subregular_point(sl3), subregular_point(sl3, 2), subregular_point(sl3, -3), subregular_point(sl3, 1, (0, 2, 1))):
        x = sl3.sharp(xi)
        for y in list(la.identity(8)) + [la.random_vector(rng, 8)]:
            assert sl3.killing_form(x, y) == la.dot(xi, y)
        u1, u2 = la.random_vector(rng, 8), la.random_vector(rng, 8)
        assert sl3.killing_form(x, sl3.bracket(u1, u2)) == sl3.bracket_pairing(xi, u1, u2)


def test_push_rejects_wrong_length(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    _, model = reduction.kernel_identity_check(sl2, poisson.AffineSubspace(hb, []), hb)
    assert model.push(la.unit(6, 1)) == (Q(1), Q(0))
    for v in (la.vec([1, 0]), la.unit(7, 0)):
        with pytest.raises(DimensionMismatch):
            model.push(v)


def test_push_factors_each_model_once(eliminations, monkeypatch):
    """decomposition_class_sl3 at sample_count 8 pushes 88 vectors through 4 models:
    at most one elimination per model, and none per pushed vector."""
    push = reduction.ReducedSpaceModel.push
    made_by = Counter()  # model id -> eliminations its pushes ran
    pushed = []  # the model of every push, kept alive so that no id is reused

    def counted(self, v):
        made, coords = eliminations(lambda: push(self, v))
        pushed.append(self)
        made_by[id(self)] += made
        return coords

    monkeypatch.setattr(reduction.ReducedSpaceModel, "push", counted)
    report = scenarios.run_scenario("decomposition_class_sl3", {}, seed=1, sample_count=8)
    assert report.all_passed
    assert len(pushed) == 88 and len(made_by) == 4
    assert max(made_by.values()) <= 1
