from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from symred import cli, lie, poisson
from symred import linalg as la
from symred.errors import CertificateFailed, DimensionMismatch, NotOnModel, NotStable
from conftest import subregular_point
from test_golden_report import CONFIGS

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
vec3 = st.tuples(fractions, fractions, fractions)


@given(vec3, vec3, vec3)
@settings(max_examples=40, deadline=None)
def test_kks_bivector_antisymmetry(xi, x, y):
    sl2 = lie.build_chevalley("A", 1)
    p = poisson.kks_model(sl2)
    sigma = p.bivector_at(xi)
    # sigma(x)(y) = xi([x, y]) = -sigma(y)(x)
    assert la.dot(la.mat_vec(sigma, x), y) == la.dot(xi, sl2.bracket(x, y))
    assert la.dot(la.mat_vec(sigma, x), y) == -la.dot(la.mat_vec(sigma, y), x)


def test_kks_linear_in_xi_and_zero_at_zero(sl2, rng):
    p = poisson.kks_model(sl2)
    assert all(la.is_zero(row) for row in p.bivector_at(la.zeros(3)))
    xi, eta = la.random_vector(rng, 3), la.random_vector(rng, 3)
    b1, b2 = p.bivector_at(xi), p.bivector_at(eta)
    b12 = p.bivector_at(la.add(xi, eta))
    assert b12 == tuple(la.add(r1, r2) for r1, r2 in zip(b1, b2))


def test_tangent_basis_cases(sl2, sl2_efh, kks2):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    assert poisson.AffineSubspace(hb, []).tangent_basis(hb) == []
    orb = poisson.CoadjointOrbit(sl2, hb)
    # oracle: rank of {ad*_e h^b, ad*_h h^b, ad*_f h^b}
    gens = [sl2.ad_star(v, hb) for v in (e, h, f)]
    assert len(orb.tangent_basis(hb)) == la.rank(gens) == 2
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[0]])
    eb = sl2.flat(e)
    assert sl.contains(eb)
    assert len(sl.tangent_basis(eb)) == 1
    assert la.span_equal(sl.tangent_basis(eb), [sl2.flat(f)])


def test_not_on_model(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    single = poisson.AffineSubspace(hb, [])
    for _ in range(2):  # an off-model point is refused every time, never kept
        with pytest.raises(NotOnModel):
            single.tangent_basis(la.zeros(3))


WRONG_LENGTH_MODELS = {
    poisson.AffineSubspace: lambda sl2, sl3: poisson.AffineSubspace(la.zeros(3), [la.unit(3, 0)]),
    poisson.CoadjointOrbit: lambda sl2, sl3: poisson.CoadjointOrbit(sl2, sl2.flat(sl2.basis_vec(0))),
    poisson.DecompositionClass: lambda sl2, sl3: poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)]),
    poisson.CasimirLevelSet: lambda sl2, sl3: poisson.CasimirLevelSet(sl2, 8, [sl2.flat(sl2.basis_vec(0))]),
    poisson.WeylChamberFace: lambda sl2, sl3: poisson.WeylChamberFace(sl3, (0,), [tuple([Q(0), Q(1)] + [Q(0)] * 6)]),
    poisson.Explicit: lambda sl2, sl3: poisson.Explicit(3, lambda xi: [la.unit(3, 0)], [la.zeros(3)]),
}


def test_wrong_length_cases_cover_every_model():
    models = {c for c in vars(poisson).values() if isinstance(c, type) and issubclass(c, poisson.SubmanifoldModel)}
    assert models - {poisson.SubmanifoldModel} == set(WRONG_LENGTH_MODELS)


@pytest.mark.parametrize("cls", WRONG_LENGTH_MODELS, ids=lambda cls: cls.__name__)
def test_wrong_length_point_raises_dimension_mismatch(sl2, sl3, cls):
    model = WRONG_LENGTH_MODELS[cls](sl2, sl3)
    assert type(model) is cls
    point = model.sample_points[0]
    for bad in (point[:1], point + (Q(0),), ()):
        with pytest.raises(DimensionMismatch):
            model.contains(bad)
        with pytest.raises(DimensionMismatch):
            model.tangent_basis(bad)
    assert model.contains(point)


@pytest.mark.parametrize("build", [
    lambda sl2, sl3: poisson.AffineSubspace(la.zeros(3), [la.unit(3, 0)], sample_points=[la.unit(3, 1)]),
    lambda sl2, sl3: poisson.DecompositionClass(sl3, 4, [la.zeros(8)]),
    lambda sl2, sl3: poisson.CasimirLevelSet(sl2, 4, [sl2.flat(sl2.basis_vec(0))]),
    lambda sl2, sl3: poisson.WeylChamberFace(sl3, (0,), [tuple([Q(1), Q(1)] + [Q(0)] * 6)]),
], ids=["affine", "decomposition-class", "casimir", "chamber-face"])
def test_off_model_declared_point_refused_at_construction(sl2, sl3, build):
    with pytest.raises(NotOnModel):
        build(sl2, sl3)


@pytest.mark.parametrize("build,named", [
    (lambda sl2, sl3: poisson.AffineSubspace((0, 0), [(1, 0, 0)]), "length 3"),
    (lambda sl2, sl3: poisson.AffineSubspace((0, 0, 0), [(0, 1, 0), (1, 0)]), "direction 1 has length 2"),
    (lambda sl2, sl3: poisson.WeylChamberFace(sl3, (5,), []), r"\[5\]"),
    (lambda sl2, sl3: poisson.WeylChamberFace(sl3, (0, -1), []), r"\[-1, 0\]"),
    (lambda sl2, sl3: poisson.slodowy_slice(sl2, lie.principal_sl2(sl2), [[0], [1, 2]]), "row 1 has length 2"),
    (lambda sl2, sl3: poisson.slodowy_slice(sl3, lie.principal_sl2(sl3), [[1]]), "row 0 has length 1"),
], ids=["direction-longer", "direction-shorter", "face-index-past-rank", "face-index-negative",
        "slice-row-longer", "slice-row-shorter"])
def test_affine_model_refuses_input_of_wrong_length(sl2, sl3, build, named):
    with pytest.raises(DimensionMismatch, match=named):
        build(sl2, sl3)


def test_tangent_basis_returns_a_fresh_list(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    line = poisson.AffineSubspace(hb, [hb])
    first = line.tangent_basis(hb)
    kept = list(first)
    first.append(la.unit(3, 1))
    first[0] = la.zeros(3)
    assert line.tangent_basis(hb) == kept == la.span_basis([hb])


def independence_cases(sl2, sl3):
    """Models of each ``SubmanifoldModel`` subclass, by class, at representative points."""
    e, h = sl2.root_vector((1,)), sl2.basis_vec(0)
    hb = sl2.flat(h)
    reg = sl3.flat(sl3.from_matrix(la.mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]])))
    moves = [sl3.unipotent(sl3.root_vector((1, 0)), 1), sl3.unipotent(sl3.root_vector((0, -1)), Q(1, 2))]
    moved = [reg] + [sl3.coadjoint_group_action(g, reg) for g in moves]
    sl = poisson.slodowy_slice(sl3, lie.principal_sl2(sl3), [[0, 0], [1, 0], [-2, Q(1, 3)]])
    faces = []
    for subset in ((), (0,), (1,), (0, 1)):
        point = [Q(0)] * 8
        for i in {0, 1} - set(subset):
            point[i] = Q(2 + i)
        faces.append(poisson.WeylChamberFace(sl3, subset, [tuple(point)]))
    return {
        poisson.AffineSubspace: [sl, poisson.diagonal(sl, 2), poisson.AffineSubspace(hb, [hb, la.scale(2, hb), la.unit(3, 1)])],
        poisson.CoadjointOrbit: [poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1)]), poisson.CoadjointOrbit(sl2, sl2.flat(e)),
                                 poisson.CoadjointOrbit(sl3, reg, moves)],
        poisson.DecompositionClass: [poisson.DecompositionClass(sl3, 4, [subregular_point(sl3), subregular_point(sl3, 2)]),
                                     poisson.DecompositionClass(sl3, 2, [sl3.sharp(reg)])],
        poisson.CasimirLevelSet: [poisson.CasimirLevelSet(sl2, 8, [hb]), poisson.CasimirLevelSet(sl3, la.dot(reg, sl3.sharp(reg)), moved)],
        poisson.WeylChamberFace: faces,
        poisson.Explicit: [poisson.Explicit(3, lambda xi: [xi, la.scale(2, xi), la.unit(3, 1), la.add(xi, la.unit(3, 1))], [hb])],
    }


def test_every_model_returns_independent_tangent_vectors(sl2, sl3):
    """``algebroid_fiber`` reads multipliers off T_xi S as coordinates, so every subclass's
    ``_tangent`` returns independent vectors; a subclass with no case here fails the test."""
    cases = independence_cases(sl2, sl3)
    models = {c for c in vars(poisson).values() if isinstance(c, type) and issubclass(c, poisson.SubmanifoldModel)}
    assert models - {poisson.SubmanifoldModel} == set(cases)
    for cls, built in cases.items():
        for model in built:
            assert type(model) is cls and model.sample_points
            for pt in model.sample_points:
                tangent = model.tangent_basis(pt)
                assert la.rank(tangent) == len(tangent), (cls.__name__, pt)


def test_fiber_kept_per_poisson_model(sl2):
    hb = sl2.flat(sl2.basis_vec(0))
    line = poisson.AffineSubspace(hb, [hb])
    kks, zero = poisson.kks_model(sl2), poisson.trivial_model(3)
    by_kks = poisson.algebroid_fiber(kks, line, hb)
    by_zero = poisson.algebroid_fiber(zero, line, hb)
    # sigma = 0 keeps all of (T S)°; the KKS bivector at h^b keeps none of it
    assert by_kks.rank == 0 and by_zero.rank == 2
    assert la.span_equal(list(by_zero.basis), la.annihilator([hb], 3))
    for pm, got in ((kks, by_kks), (zero, by_zero)):
        assert got == poisson.algebroid_fiber(pm, poisson.AffineSubspace(hb, [hb]), hb)
    # a second kks_model of the same algebra is the same key
    assert poisson.algebroid_fiber(poisson.kks_model(sl2), line, hb) is by_kks


def test_algebroid_fiber_memberships(sl2, sl3, kks2, kks3, sl2_efh):
    """Fiber vectors satisfy both defining conditions at every sample."""
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    models = [
        (kks2, poisson.AffineSubspace(hb, [])),
        (kks2, poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1)])),
        (kks2, poisson.slodowy_slice(sl2, tri, parameters=[[0], [1]])),
        (kks2, poisson.CasimirLevelSet(sl2, 8, [hb])),
        (kks3, poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)])),
    ]
    for p, model in models:
        for pt in model.sample_points:
            fiber = poisson.algebroid_fiber(p, model, pt)
            tangent = model.tangent_basis(pt)
            sigma = p.bivector_at(pt)
            for x in fiber.basis:
                assert all(la.dot(x, t) == 0 for t in tangent)
                assert la.span_contains(tangent, [la.mat_vec(sigma, x)])


def test_singleton_fiber_is_centralizer(sl2, kks2):
    hb = sl2.flat(sl2.basis_vec(0))
    fib = poisson.algebroid_fiber(kks2, poisson.AffineSubspace(hb, []), hb)
    assert la.span_equal(list(fib.basis), la.nullspace(la.transpose(sl2.coadjoint_matrix(hb))))


def test_slice_fiber_zero(sl2, kks2):
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[0], [1], [-2]])
    for pt in sl.sample_points:
        assert poisson.algebroid_fiber(kks2, sl, pt).rank == 0
        assert poisson.poisson_transversal_check(kks2, sl, pt)


def test_c4_quadric_fiber_trivial():
    omega = la.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    p = poisson.symplectic_model(omega)

    def tangent(pt):
        x = pt[0]
        return [la.vec([1, 0, 2 * x, 0]), la.vec([0, 0, 0, 1])]

    model = poisson.Explicit(4, tangent, [la.vec([1, 0, 1, 0])])
    fib = poisson.algebroid_fiber(p, model, la.vec([1, 0, 1, 0]))
    assert fib.rank == 0


def test_pre_poisson_sample_check(sl2, kks2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(
        sl2, hb, [sl2.unipotent(e, 1), sl2.unipotent(f, Q(1, 2)), sl2.unipotent(e, 2)]
    )
    out = poisson.pre_poisson_sample_check(kks2, orb)
    assert out["constant_rank"] and out["ranks"] == [1, 1, 1, 1]
    tri = lie.principal_sl2(sl2)
    dia = poisson.diagonal(poisson.slodowy_slice(sl2, tri, [[0], [1], [-2]]), 3)
    out = poisson.pre_poisson_sample_check(poisson.kks_model(lie.direct_power(sl2, 3)), dia)
    assert out["constant_rank"] and set(out["ranks"]) == {2}
    single = poisson.AffineSubspace(hb, [])
    out = poisson.pre_poisson_sample_check(kks2, single)
    assert out["constant_rank"] and out["ranks"] == [1]


def test_stable_checks(sl2, kks2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1)])
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[0], [1]])  # vacuous: fiber is zero
    cas = poisson.CasimirLevelSet(sl2, 8, [hb, sl2.flat(la.add(e, f))])
    for model in (orb, sl, cas):
        assert all(poisson.algebroid_fiber(kks2, model, pt).contained_in_centralizer for pt in model.sample_points)
    for pt in cas.sample_points:
        fib = poisson.algebroid_fiber(kks2, cas, pt)
        assert la.span_equal(list(fib.basis), [sl2.sharp(pt)])


def test_poisson_submanifolds_are_stable(sl3, kks3):
    """sigma((T S)°) = 0 at every sample of orbit and class models."""
    x = subregular_point(sl3)
    dec = poisson.DecompositionClass(sl3, 4, [x, subregular_point(sl3, 2)])
    for pt in dec.sample_points:
        ann = la.annihilator(dec.tangent_basis(pt), sl3.dim)
        sigma = kks3.bivector_at(pt)
        assert all(la.is_zero(la.mat_vec(sigma, w)) for w in ann)


def test_transversal_implies_zero_fiber(sl2, kks2, rng):
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[Q(3, 2)], [-1]])
    for pt in sl.sample_points:
        if poisson.poisson_transversal_check(kks2, sl, pt):
            assert poisson.algebroid_fiber(kks2, sl, pt).rank == 0


def test_stabilizer_subalgebra(sl2, sl3, kks2, kks3, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(sl2, hb)
    h_sub = poisson.stabilizer_subalgebra(kks2, orb, hb)
    assert lie.is_subalgebra(sl2, h_sub) and la.span_equal(h_sub, la.nullspace(la.transpose(sl2.coadjoint_matrix(hb))))
    # chamber face {alpha_1 vanishing}: a 3-dimensional subalgebra
    pt = tuple([Q(0), Q(1)] + [Q(0)] * 6)
    face = poisson.WeylChamberFace(sl3, (0,), [pt])
    h_face = poisson.stabilizer_subalgebra(kks3, face, pt)
    assert lie.is_subalgebra(sl3, h_face) and len(h_face) == 3
    # oracle: intersect the tangent annihilator with the centralizer
    ann = la.annihilator(face.tangent_basis(pt), sl3.dim)
    cent = la.nullspace(la.transpose(sl3.coadjoint_matrix(pt)))
    assert la.span_equal(h_face, ref.intersect_spans(ann, cent))
    # matches the rank-one subsystem algebra span{h_1, e_{a1}, f_{a1}}
    assert la.span_equal(
        h_face,
        [sl3.basis_vec(0), sl3.root_vector((1, 0)), sl3.root_vector((-1, 0))],
    )
    # subregular class point: h = brackets of the centralizer, dim 3
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)])
    pt = dec.sample_points[0]
    h_dec = poisson.stabilizer_subalgebra(kks3, dec, pt)
    gx = sl3.centralizer(sl3.sharp(pt))
    derived = la.span_basis([sl3.bracket(a, b) for a in gx for b in gx])
    assert lie.is_subalgebra(sl3, h_dec) and len(h_dec) == 3 and la.span_equal(h_dec, derived)


def stabilizer_cases():
    """(algebra, stable model) pairs of every kind the scenarios reduce along."""
    sl2, sl3 = lie.build_chevalley("A", 1), lie.build_chevalley("A", 2)
    cases = []
    for alg, params in ((sl2, [[0], [1], [Q(-3, 2)]]), (sl3, [[0, 0], [1, 0], [-2, 1]])):
        tri = lie.principal_sl2(alg)
        sl = poisson.slodowy_slice(alg, tri, params)
        cases.append(pytest.param(alg, sl, id=f"{alg.name}-slodowy-slice"))
        for n in (2, 3):
            product = lie.direct_power(alg, n)
            cases.append(pytest.param(product, poisson.diagonal(sl, n), id=f"{product.name}-diagonal-slodowy"))
    cases.append((sl3, poisson.DecompositionClass(sl3, 4, [subregular_point(sl3), subregular_point(sl3, -3, (0, 2, 1))])))
    hb = sl2.flat(sl2.basis_vec(0))
    translates = [sl2.unipotent(sl2.root_vector((1,)), 1), sl2.unipotent(sl2.root_vector((-1,)), Q(1, 2))]
    cases.append((sl2, poisson.CasimirLevelSet(sl2, 8, [hb] + [sl2.coadjoint_group_action(g, hb) for g in translates])))
    cases.append((sl2, poisson.CoadjointOrbit(sl2, hb, translates)))
    x = sl3.from_matrix(la.mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]]))
    cases.append((sl3, poisson.CoadjointOrbit(sl3, sl3.flat(x), [sl3.unipotent(sl3.root_vector((1, 1)), 2)])))
    pts = [tuple([Q(0), Q(1)] + [Q(0)] * 6), tuple([Q(2), Q(0)] + [Q(0)] * 6), tuple([Q(0)] * 8)]
    for subset, pt in zip(((0,), (1,), (0, 1)), pts):
        cases.append((sl3, poisson.WeylChamberFace(sl3, subset, [pt])))
    return cases


@pytest.mark.parametrize("alg,model", stabilizer_cases(), ids=lambda v: getattr(v, "kind", getattr(v, "name", "")))
def test_stabilizer_subalgebra_matches_intersection_route(alg, model):
    """h_xi read from the stable fiber against (T S)° ∩ g_xi by two nullspaces and intersect_spans; equal bases."""
    pm = poisson.kks_model(alg)
    for pt in model.sample_points:
        h = poisson.stabilizer_subalgebra(pm, model, pt)
        old = ref.intersect_spans(la.annihilator(model.tangent_basis(pt), alg.dim), la.nullspace(la.transpose(alg.coadjoint_matrix(pt))))
        assert h == old and lie.is_subalgebra(alg, h)
        assert h == la.span_basis(poisson.algebroid_fiber(pm, model, pt).basis)


def test_decomposition_class_forms_ad_once_per_point(sl3, monkeypatch):
    """_contains and _tangent share one ad_x and its nullspace g_x."""
    formed = Counter()
    original = lie.LieAlgebra.ad_matrix

    def counted(self, x):
        formed[tuple(x)] += 1
        return original(self, x)

    monkeypatch.setattr(lie.LieAlgebra, "ad_matrix", counted)
    samples = [subregular_point(sl3), subregular_point(sl3, -3, (0, 2, 1))]
    dec = poisson.DecompositionClass(sl3, 4, samples)
    assert formed == Counter(samples)
    # g_x from the kept nullspace: T_x D = z(g_x) + [g, x] has dimension 5
    assert all(len(dec.tangent_basis(pt)) == 5 for pt in dec.sample_points)
    assert formed == Counter(samples)


def test_stabilizer_subalgebra_not_closed(sl3, kks3):
    # at xi = 0 every annihilator is stable, and (T S)° = span{e_a1, e_a2}
    # is not a subalgebra: [e_a1, e_a2] is a multiple of e_{a1+a2}
    simple = [sl3.root_vector((1, 0)), sl3.root_vector((0, 1))]
    model = poisson.Explicit(sl3.dim, lambda xi: la.annihilator(simple, sl3.dim), [la.zeros(8)])
    h = poisson.stabilizer_subalgebra(kks3, model, la.zeros(8))
    assert la.span_equal(h, simple) and not lie.is_subalgebra(sl3, h)


def test_stabilizer_subalgebra_requires_stable(sl2, kks2):
    # a generic affine line through h^flat is not stable at its base point
    hb = sl2.flat(sl2.basis_vec(0))
    line = poisson.AffineSubspace(hb, [sl2.flat(sl2.root_vector((1,)))])
    fib = poisson.algebroid_fiber(kks2, line, hb)
    if not fib.contained_in_centralizer:
        with pytest.raises(NotStable):
            poisson.stabilizer_subalgebra(kks2, line, hb)


def direct_sum_verdicts(alg, sl):
    """At each slice point x^flat: rank(g_f + [g, x]) = dim g = dim g_f + rank [g, x], by ranks in g."""
    gf = [alg.sharp(d) for d in sl.directions]
    verdicts = []
    for pt in sl.sample_points:
        x = alg.sharp(pt)
        image = [alg.bracket(alg.basis_vec(i), x) for i in range(alg.dim)]
        verdicts.append(la.rank(gf + image) == alg.dim == len(gf) + la.rank(image))
    return verdicts


@pytest.mark.parametrize("cartan_type,rank", sorted(lie.SUPPORTED))
def test_poisson_transversal_check_is_the_direct_sum(cartan_type, rank):
    """On the principal slice, and on the slice of a triple with e = 0, the check on g* gives
    the verdict of g = g_f ⊕ [g, x]: true at every principal point, false at every point with e = 0."""
    alg = lie.build_chevalley(cartan_type, rank)
    kks = poisson.kks_model(alg)
    tri = lie.principal_sl2(alg)
    params = [[0] * rank, [1] + [0] * (rank - 1), [-2] + [1] * (rank - 1)]
    sl = poisson.slodowy_slice(alg, tri, params)
    assert [poisson.poisson_transversal_check(kks, sl, pt) for pt in sl.sample_points] == [True] * 3
    assert direct_sum_verdicts(alg, sl) == [True] * 3
    sl = poisson.slodowy_slice(alg, lie.Sl2Triple(la.zeros(alg.dim), tri.h, tri.f), params)
    verdicts = [poisson.poisson_transversal_check(kks, sl, pt) for pt in sl.sample_points]
    assert verdicts == direct_sum_verdicts(alg, sl) == [False] * 3


def test_poisson_transversal_cases(sl2, kks2):
    hb = sl2.flat(sl2.basis_vec(0))
    orb = poisson.CoadjointOrbit(sl2, hb)
    assert not poisson.poisson_transversal_check(kks2, orb, hb)
    whole = poisson.AffineSubspace(la.zeros(2), list(la.identity(2)))
    symp = poisson.symplectic_model([[0, 1], [-1, 0]])
    assert poisson.poisson_transversal_check(symp, whole, la.zeros(2))


def test_poisson_transversality_is_moment_transversality_of_the_annihilator_image(sl2, kks2, monkeypatch):
    """One rank decides it: ``moment_transversality_check`` with the image sigma((T S)°)."""
    original, calls = poisson.moment_transversality_check, []
    monkeypatch.setattr(poisson, "moment_transversality_check", lambda *args: calls.append(args) or original(*args))
    hb = sl2.flat(sl2.basis_vec(0))
    orb = poisson.CoadjointOrbit(sl2, hb)
    assert not poisson.poisson_transversal_check(kks2, orb, hb)
    # T S is the orbit's tangent (ad*_g xi), so (T S)° is g_xi, which sigma_xi sends to 0
    (image, model, point), = calls
    assert model is orb and point == hb and image == [la.zeros(3)]


NOT_A_FORM = {
    "omega-1x2": (lambda: poisson.symplectic_model([[0, 1]]), DimensionMismatch, "omega must be square"),
    "omega-ragged": (lambda: poisson.symplectic_model([[0, 1], [-1]]), DimensionMismatch, "omega must be square"),
    "omega-degenerate": (
        lambda: poisson.symplectic_model([[0, 1, 0], [-1, 0, 0], [0, 0, 0]]), DimensionMismatch, "nondegenerate"),
    "omega-identity": (lambda: poisson.symplectic_model(la.identity(2)), CertificateFailed, "omega is not skew"),
    "sigma-symmetric": (lambda: poisson.constant_model([[0, 1], [1, 0]]), CertificateFailed, "sigma is not skew"),
    "sigma-diagonal": (lambda: poisson.constant_model([[1, 0], [0, -1]]), CertificateFailed, "row 0 is not minus column 0"),
    "sigma-2x3": (lambda: poisson.constant_model([[0, 1, 0], [-1, 0, 0]]), DimensionMismatch, "sigma must be square"),
}


@pytest.mark.parametrize("case", NOT_A_FORM)
def test_constant_models_refuse_a_form_that_is_not_a_bivector(case):
    """A non-square omega raised a bare IndexError, a degenerate one ZeroDivisionError, and the
    identity came back as sigma = I; constant_model took any sigma."""
    build, error, message = NOT_A_FORM[case]
    with pytest.raises(error, match=message):
        build()


def test_coisotropic_check():
    omega = la.mat([[0, 1], [-1, 0]])
    # a line in a 2-dim symplectic plane is Lagrangian hence coisotropic
    assert poisson.coisotropic_check(omega, [la.vec([1, 0])])
    omega4 = la.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    assert poisson.coisotropic_check(omega4, [la.vec([1, 0, 0, 0]), la.vec([0, 0, 1, 0])])
    assert not poisson.coisotropic_check(omega4, [la.vec([1, 0, 0, 0])])
    # rank 2 in dimension 4: degenerate
    degenerate = la.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(DimensionMismatch):
        poisson.coisotropic_check(degenerate, [la.vec([1, 0, 0, 0])])


def test_fibred_product_coisotropic_in_slice_square(sl2):
    # tangent model of N x_c N inside N^2 at a diagonal slice point
    from symred import groupoid as gpd

    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[1]])
    pt = sl.sample_points[0]
    base = [tuple(la.unit(3, i)) + la.zeros(3) for i in range(3)]
    base += [la.zeros(3) + tuple(t) for t in sl.tangent_basis(pt)]
    gram = gpd.omega_gram(sl2, pt, base)
    big = [[Q(0)] * 8 for _ in range(8)]
    for k in range(2):
        for i in range(4):
            for j in range(4):
                big[4 * k + i][4 * k + j] = gram[i][j]
    w = [la.unit(8, i) for i in (0, 1, 2, 4, 5, 6)]
    w.append(la.add(la.unit(8, 3), la.unit(8, 7)))
    assert poisson.coisotropic_check(tuple(tuple(r) for r in big), w)


def test_moment_transversality(sl2, kks2):
    hb = sl2.flat(sl2.basis_vec(0))
    single = poisson.AffineSubspace(hb, [])
    assert poisson.moment_transversality_check(list(la.identity(3)), single, hb)
    assert not poisson.moment_transversality_check([], single, hb)
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[0], [2]])
    for pt in sl.sample_points:
        sigma = kks2.bivector_at(pt)
        image = [la.mat_vec(sigma, sl2.basis_vec(i)) for i in range(3)]
        assert poisson.moment_transversality_check(image, sl, pt)


def test_weyl_chamber_face_membership(sl3):
    face = poisson.WeylChamberFace(sl3, (0,), [tuple([Q(0), Q(2)] + [Q(0)] * 6)])
    assert not face.contains(tuple([Q(1), Q(2)] + [Q(0)] * 6))
    assert not face.contains(tuple([Q(0), Q(0)] + [Q(0)] * 6))
    assert not face.contains(tuple([Q(0), Q(2), Q(1)] + [Q(0)] * 5))  # off t*: a root coordinate
    with pytest.raises(NotOnModel):
        poisson.WeylChamberFace(sl3, (0,), [tuple([Q(1), Q(1)] + [Q(0)] * 6)])


def test_casimir_membership(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    cas = poisson.CasimirLevelSet(sl2, 8, [hb])
    assert not cas.contains(la.scale(2, hb))
    with pytest.raises(NotOnModel):
        poisson.CasimirLevelSet(sl2, 4, [hb])


def test_diagonal_slodowy_membership(sl2):
    tri = lie.principal_sl2(sl2)
    dia = poisson.diagonal(poisson.slodowy_slice(sl2, tri, [[0]]), 2)
    pt = dia.sample_points[0]
    assert dia.contains(pt)
    off = list(pt)
    off[0] += 1
    assert not dia.contains(tuple(off))


def test_empty_sample_points_mean_none(sl2, sl3):
    hb, eb = sl2.flat(sl2.basis_vec(0)), sl2.flat(sl2.root_vector((1,)))
    assert poisson.AffineSubspace(hb, [eb], []).sample_points == ()
    assert poisson.WeylChamberFace(sl3, (0,), []).sample_points == ()
    assert poisson.slodowy_slice(sl2, lie.principal_sl2(sl2), []).sample_points == ()
    assert poisson.AffineSubspace(hb, [eb]).sample_points == (hb,)


def test_affine_membership_matches_span_contains(sl2, sl3, rng):
    hb, eb = sl2.flat(sl2.basis_vec(0)), sl2.flat(sl2.root_vector((1,)))
    face_pt = tuple([Q(0), Q(2)] + [Q(0)] * 6)
    models = [
        poisson.AffineSubspace(hb, [eb]),
        poisson.AffineSubspace(la.zeros(3), [hb, eb]),  # zero base
        poisson.AffineSubspace(hb, []),  # empty directions
        poisson.WeylChamberFace(sl3, (0,), [face_pt]),
    ]
    for model in models:
        base, dim = model.base, model.ambient_dim
        points = [base]
        for _ in range(3):
            on = base
            for d in model.directions:
                on = la.add(on, la.scale(la.random_fraction(rng), d))
            points += [on, la.add(on, la.random_vector(rng, dim))]
        points += [la.add(base, la.unit(dim, j)) for j in range(dim)]
        verdicts = set()
        for xi in points:
            # the face's linear part is the inherited test
            got = poisson.AffineSubspace._contains(model, xi)
            assert got is la.span_contains(model.directions, [la.sub(xi, base)])
            verdicts.add(got)
        assert verdicts == {True, False}


def test_structure_constants_dense_matches_bracket(sl2):
    for i in range(3):
        for j in range(3):
            br = sl2.bracket(sl2.basis_vec(i), sl2.basis_vec(j))
            assert tuple(ref.structure_constant(sl2, i, j, k) for k in range(3)) == br


def test_pre_poisson_detects_rank_jump(sl2, kks2):
    # a line through the origin in the direction of h^flat has fiber rank 2
    # away from zero... and rank 3 at the origin: not constant
    hb = sl2.flat(sl2.basis_vec(0))
    line = poisson.AffineSubspace(la.zeros(3), [hb], sample_points=[la.zeros(3), hb, la.scale(2, hb)])
    out = poisson.pre_poisson_sample_check(kks2, line)
    assert not out["constant_rank"]
    assert len(set(out["ranks"])) > 1


def test_casimir_level_four(sl2, sl2_efh, kks2):
    e, h, f = sl2_efh
    # kappa(e + f/2, e + f/2) = 4
    x = la.add(e, la.scale(Q(1, 2), f))
    assert sl2.killing_form(x, x) == 4
    cas = poisson.CasimirLevelSet(sl2, 4, [sl2.flat(x)])
    fib = poisson.algebroid_fiber(kks2, cas, sl2.flat(x))
    assert fib.rank == 1 and la.span_equal(list(fib.basis), [x])
    assert fib.contained_in_centralizer


def test_orbit_is_poisson_submanifold(sl2, kks2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1), sl2.unipotent(f, Q(1, 3))])
    for pt in orb.sample_points:
        ann = la.annihilator(orb.tangent_basis(pt), 3)
        sigma = kks2.bivector_at(pt)
        assert all(la.is_zero(la.mat_vec(sigma, w)) for w in ann)


def test_each_point_derived_once_on_readme_suite(monkeypatch):
    """Traffic on the README suite: T_xi S and membership are each derived at
    most once per (model, point).  `_contains` is the membership computation;
    public `contains` answers certified points from the model's store.  An
    override that calls its base class's method makes one derivation, so
    only the outermost call is counted."""
    calls = Counter()
    alive = []  # keep every model alive so that no id is reused
    running = set()

    def counted(name, fn):
        def wrapper(self, xi):
            key = (name, id(self), tuple(xi))
            if key in running:
                return fn(self, xi)
            alive.append(self)
            calls[key] += 1
            running.add(key)
            try:
                return fn(self, xi)
            finally:
                running.remove(key)
        return wrapper

    classes = [c for c in vars(poisson).values()
               if isinstance(c, type) and issubclass(c, poisson.SubmanifoldModel)]
    for cls in classes:
        for name in ("_tangent", "_contains"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counted(name, vars(cls)[name]))
    _, code = cli.run(cli.parse_config(CONFIGS["readme_suite"]))
    assert code == 0
    assert sum(1 for name, _, _ in calls if name == "_tangent") > 0
    assert {key: n for key, n in calls.items() if n > 1} == {}
