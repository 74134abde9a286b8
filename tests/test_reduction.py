from fractions import Fraction as Q

import pytest

from symred import groupoid as gpd
from symred import lie, poisson, reduction
from symred import linalg as la
from symred.errors import DimensionMismatch, LiftNotValid, NotStable
from symred.groupoid import CotangentPoint
from conftest import subregular_point


def test_orbit_tangent_cases(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    sl = poisson.SlodowySlice(sl2, tri, parameters=[[0]])
    assert reduction.orbit_tangent_in_universal(sl2, sl, sl.sample_points[0]) == []
    orb = poisson.CoadjointOrbit(sl2, hb)
    got = reduction.orbit_tangent_in_universal(sl2, orb, hb)
    assert la.span_equal(got, [tuple(la.neg(h)) + la.zeros(3)])
    single = poisson.Singleton(hb)
    got = reduction.orbit_tangent_in_universal(sl2, single, hb)
    assert la.span_equal(got, [tuple(la.neg(h)) + la.zeros(3)])


def test_orbit_tangent_requires_stable(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    line = poisson.AffineSubspace(hb, [sl2.flat(sl2.root_vector((1,)))])
    pm = poisson.kks_model(sl2)
    if not poisson.algebroid_fiber(pm, line, hb).contained_in_centralizer:
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
    orth = la.nullspace(rows)
    return la.intersect_spans(n_basis, orth)


def test_kernel_identity_slice_orbit_singleton(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    cases = [
        (poisson.SlodowySlice(sl2, tri, parameters=[[0], [1], [-2]]), 4, 0),
        (poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1), sl2.unipotent(f, Q(1, 3))]), 4, 1),
        (poisson.Singleton(hb), 2, 1),
    ]
    for model_s, expect_dim, expect_kernel in cases:
        for pt in model_s.sample_points:
            agree, model = reduction.kernel_identity_check(sl2, model_s, pt)
            assert agree
            assert len(model.kernel) == expect_kernel
            assert model.quotient_dim == expect_dim
            assert model.nondegenerate()
            assert reduction.reduced_form_well_defined(sl2, model)
            assert la.span_equal(list(model.kernel), kernel_oracle(sl2, model_s, pt))
            assert reduction.dimension_formula_check(sl2, model_s, pt, model)


def test_kernel_identity_at_nonidentity_base(sl2, sl2_efh):
    # In left-trivialised coordinates Omega at (g, xi) depends on xi alone,
    # so the check at a non-identity base is the check at its xi.
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(sl2, hb)
    gt = sl2.group_element([[3, 0], [0, Q(1, 3)]])
    p = CotangentPoint(hb, gt)
    agree, model = reduction.kernel_identity_check(sl2, orb, p.xi)
    assert agree and model.quotient_dim == 4
    assert model == reduction.kernel_identity_check(sl2, orb, CotangentPoint(hb).xi)[1]


def test_dimension_formula_diagonal(sl2):
    tri = lie.principal_sl2(sl2)
    dia = poisson.DiagonalSlodowy(sl2, tri, 2, parameters=[[0], [1], [-2]])
    for pt in dia.sample_points:
        agree, model = reduction.kernel_identity_check(dia.product, dia, pt)
        assert agree and model.quotient_dim == 6  # = dim of the cotangent space of the group
        assert reduction.dimension_formula_check(dia.product, dia, pt, model)


def test_decomposition_form(sl3, rng):
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3), subregular_point(sl3, 2)])
    pm = poisson.kks_model(sl3)
    for xi in dec.sample_points:
        x = sl3.sharp(xi)
        fiber = poisson.algebroid_fiber(pm, dec, xi)
        kernel = reduction.kernel_identity_check(sl3, dec, xi)
        mperp = la.nullspace([sl3.flat(mb) for mb in fiber.basis])

        def rand_perp():
            z = la.zeros(8)
            for b in mperp:
                z = la.add(z, la.scale(la.random_fraction(rng), b))
            return z

        # same vector in the quotient factor, zero in the perp factor
        u = la.random_vector(rng, 8)
        assert reduction.decomposition_form_check(sl3, dec, kernel, [(((u), la.zeros(8)), ((u), la.zeros(8)))])
        # mixed pair evaluates to -kappa(u, z) through both routes
        z = rand_perp()
        assert reduction.decomposition_form_check(sl3, dec, kernel, [((u, la.zeros(8)), (la.zeros(8), z))])
        pairs = [((la.random_vector(rng, 8), rand_perp()), (la.random_vector(rng, 8), rand_perp())) for _ in range(25)]
        assert reduction.decomposition_form_check(sl3, dec, kernel, pairs)
        # a point where the two kernel routes disagreed fails before any pair is evaluated
        assert not reduction.decomposition_form_check(sl3, dec, (False, kernel[1]), pairs)
        with pytest.raises(LiftNotValid):
            reduction.decomposition_form_check(sl3, dec, kernel, [((u, fiber.basis[0]), (u, la.zeros(8)))])


def test_orbit_product_symplecto(sl2, sl2_efh, rng):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    pairs = []
    for _ in range(25):
        pairs.append(
            (
                (la.random_vector(rng, 3), la.random_vector(rng, 3)),
                (la.random_vector(rng, 3), la.random_vector(rng, 3)),
            )
        )
    gid = sl2.identity_element()
    gu = sl2.group_element([[1, 1], [0, 1]])
    assert reduction.orbit_product_symplecto_check(sl2, gid, hb, pairs)
    assert reduction.orbit_product_symplecto_check(sl2, gu, hb, pairs)
    # pairs with y in g_xi kill the bracket term on both routes
    special = [((la.random_vector(rng, 3), h), (la.random_vector(rng, 3), h)) for _ in range(5)]
    assert reduction.orbit_product_symplecto_check(sl2, gu, hb, special)


def test_push_rejects_wrong_length(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    _, model = reduction.kernel_identity_check(sl2, poisson.Singleton(hb), hb)
    assert model.push(la.unit(6, 1)) == (Q(1), Q(0))
    for v in (la.vec([1, 0]), la.unit(7, 0)):
        with pytest.raises(DimensionMismatch):
            model.push(v)
