from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
from symred import groupoid as gpd
from symred import lie, poisson
from symred import linalg as la
from symred.errors import (
    BaseNotInSubgroupoid,
    EtaNotInAnnihilator,
    KindNotInvariant,
    NotASubalgebra,
)
from symred.groupoid import CotangentPoint
from conftest import subregular_point

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
vec3 = st.tuples(fractions, fractions, fractions)


# -- dual numbers: first-order differentiation oracle -------------------------


class Dual:
    """a + b*eps with eps^2 = 0; exact first-order arithmetic."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=Q(0)):
        self.a, self.b = Q(a), Q(b)

    def __add__(self, o):
        return Dual(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return Dual(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return Dual(self.a * o.a, self.a * o.b + self.b * o.a)


def dual_mat_mul(x, y):
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(n)), Dual(0)) for j in range(n)]
        for i in range(n)
    ]


def dual_inverse(m):
    """(A + eps B)^{-1} = A^{-1} - eps A^{-1} B A^{-1}."""
    a = la.mat([[entry.a for entry in row] for row in m])
    b = la.mat([[entry.b for entry in row] for row in m])
    ainv = la.inverse(a)
    corr = la.mat_mul(la.mat_mul(ainv, b), ainv)
    n = len(m)
    return [[Dual(ainv[i][j], -corr[i][j]) for j in range(n)] for i in range(n)]


def source_differential_oracle(alg, m, xi, u, zeta):
    """eps-part of Ad*_{m(I + eps U)} (xi + eps zeta) for a type-A matrix m, component by component."""
    size, reps = len(m), ref.sl_realization(alg)
    u_rep = ref.realize(reps, u)
    g_dual = [
        [
            Dual(m[i][j], sum(m[i][k] * u_rep[k][j] for k in range(size)))
            for j in range(size)
        ]
        for i in range(size)
    ]
    g_inv = dual_inverse(g_dual)
    out = []
    for j in range(alg.dim):
        rep_j = [[Dual(v) for v in row] for row in reps[j]]
        back = dual_mat_mul(dual_mat_mul(g_inv, rep_j), g_dual)  # Ad_{g(t)^{-1}} e_j
        a_part = alg.from_matrix(la.mat([[e.a for e in row] for row in back]))
        b_part = alg.from_matrix(la.mat([[e.b for e in row] for row in back]))
        # (xi + eps zeta)(A + eps B) -> eps coefficient
        out.append(la.dot(zeta, a_part) + la.dot(xi, b_part))
    return tuple(out)


# -- omega -------------------------------------------------------------------


def test_omega_eval_frozen_value(sl2, sl2_efh):
    e, h, f = sl2_efh
    fb = sl2.flat(f)
    t1 = tuple(e) + la.zeros(3)
    t2 = tuple(h) + la.zeros(3)
    # -f^flat([e, h]) = 2 f^flat(e) = 2 kappa(f, e) = 8
    assert gpd.omega_eval(sl2, fb, t1, t2) == 8


@given(vec3, vec3, vec3, vec3, vec3)
@settings(max_examples=30, deadline=None)
def test_omega_antisymmetric_bilinear(xi, u1, z1, u2, z2):
    sl2 = lie.build_chevalley("A", 1)
    t1, t2 = tuple(u1) + tuple(z1), tuple(u2) + tuple(z2)
    assert gpd.omega_eval(sl2, xi, t1, t2) == -gpd.omega_eval(sl2, xi, t2, t1)
    assert gpd.omega_eval(sl2, xi, t1, t1) == 0
    double = la.scale(2, u1) + la.scale(2, z1)
    assert gpd.omega_eval(sl2, xi, double, t2) == 2 * gpd.omega_eval(sl2, xi, t1, t2)


def test_omega_zero_cases(sl2, rng):
    u1, u2 = la.random_vector(rng, 3), la.random_vector(rng, 3)
    t1 = tuple(u1) + la.zeros(3)
    t2 = tuple(u2) + la.zeros(3)
    assert gpd.omega_eval(sl2, la.zeros(3), t1, t2) == 0


def test_omega_rank(sl2, sl3, rng):
    for alg, xi in ((sl2, la.zeros(3)), (sl2, sl2.flat(sl2.basis_vec(0))), (sl3, la.random_vector(rng, 8))):
        assert la.rank(gpd.omega_gram(alg, xi, la.identity(2 * alg.dim))) == 2 * alg.dim


# -- source and target differentials ------------------------------------------


def test_source_target_wrong_length_tangent(sl2):
    from symred.errors import DimensionMismatch

    for v in (la.zeros(7), la.zeros(5), la.zeros(3)):
        with pytest.raises(DimensionMismatch):
            gpd.source_target_differentials(sl2, CotangentPoint(la.zeros(3)), v)


def test_source_target_trivial_cases(sl2, rng):
    xi = la.random_vector(rng, 3)
    zeta = la.random_vector(rng, 3)
    p = CotangentPoint(xi)
    ds, dt = gpd.source_target_differentials(sl2, p, la.zeros(3) + tuple(zeta))
    assert ds == zeta and dt == zeta
    u = la.random_vector(rng, 3)
    ds, dt = gpd.source_target_differentials(sl2, CotangentPoint(la.zeros(3)), tuple(u) + la.zeros(3))
    assert la.is_zero(ds) and la.is_zero(dt)


def test_source_differential_against_dual_number_oracle(sl2, sl2_efh, rng):
    e, h, f = sl2_efh
    fb = sl2.flat(f)
    m = la.mat([[1, 1], [0, 1]])
    g = sl2.unipotent(e)  # exp(e) = m
    cases = [(h, la.zeros(3)), (e, fb), (la.random_vector(rng, 3), la.random_vector(rng, 3))]
    for u, zeta in cases:
        p = CotangentPoint(fb, g)
        ds, dt = gpd.source_target_differentials(sl2, p, tuple(u) + tuple(zeta))
        assert dt == tuple(zeta)
        assert ds == source_differential_oracle(sl2, m, fb, u, zeta)


def derivative_at_zero(ts, values):
    """p'(0) for the vector polynomial p of degree < len(ts) with p(ts[i]) = values[i]."""
    out = la.zeros(len(values[0]))
    for i, ti in enumerate(ts):
        others = [tj for j, tj in enumerate(ts) if j != i]
        denom = 1
        for tj in others:
            denom *= ti - tj
        # d/dt of prod_j (t - t_j) at 0 is sum_k prod_{j != k} (-t_j)
        num = 0
        for k in range(len(others)):
            term = 1
            for j, tj in enumerate(others):
                if j != k:
                    term *= -tj
            num += term
        out = la.add(out, la.scale(Q(num, denom), values[i]))
    return out


def test_source_differential_on_g2(rng):
    """ds at (g, xi) along (u, zeta) is d/dt at 0 of Ad*_{g exp(tu)} (xi + t zeta).

    For ad-nilpotent u that is a polynomial in t of degree at most dim g, so
    interpolation at dim g + 1 points gives its derivative exactly, from
    group elements alone.
    """
    g2 = lie.build_chevalley("G2", 2)
    es, _, fs = g2.simple_vectors()
    g = g2.unipotent(es[0], 1) * g2.unipotent(fs[1], Q(1, 2))
    xi, zeta = la.random_vector(rng, g2.dim), la.random_vector(rng, g2.dim)
    ts = list(range(g2.dim + 1))
    for u in (es[1], fs[0], la.add(es[0], es[1])):
        values = [g2.coadjoint_group_action(g * g2.unipotent(u, t), la.add(xi, la.scale(t, zeta))) for t in ts]
        ds, dt = gpd.source_target_differentials(g2, CotangentPoint(xi, g), tuple(u) + tuple(zeta))
        assert dt == zeta
        assert ds == derivative_at_zero(ts, values)


@pytest.mark.parametrize("typ", ["B", "G2"])
def test_groupoid_checks_beyond_type_a(typ):
    alg = lie.build_chevalley(typ, 2)
    es, hs, fs = alg.simple_vectors()
    # a regular semisimple point and a translate of it
    xi = alg.flat(la.add(hs[0], la.scale(5, hs[1])))
    g = alg.unipotent(es[0], 1) * alg.unipotent(fs[1], Q(1, 2))
    orbit = poisson.CoadjointOrbit(alg, xi, [g])
    xi2 = alg.coadjoint_group_action(g, xi)
    assert orbit.sample_points == (xi, xi2) and xi2 != xi
    assert len(orbit.tangent_basis(xi2)) == alg.dim - alg.rank
    assert gpd.normality_infinitesimal_check(alg, orbit, g, xi)
    assert gpd.normality_infinitesimal_check(alg, orbit, g.inv(), xi2)
    # exp(ad e_a) fixes e_a, and Ad*_g flat(x) = flat(Ad_g x) by the invariant Killing form
    stab = alg.unipotent(es[0], -2)
    eta = alg.flat(es[0])
    for p in (CotangentPoint(xi2), CotangentPoint(eta, stab)):
        fib = gpd.coadjoint_orbit_fiber(alg, p)
        assert fib.rank == alg.dim and fib.isotropic
    with pytest.raises(BaseNotInSubgroupoid):
        gpd.coadjoint_orbit_fiber(alg, CotangentPoint(xi, g))


# -- stabilizer fibers ---------------------------------------------------------


def test_mw_fiber_cases(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb, eb = sl2.flat(h), sl2.flat(e)
    fib = gpd.mw_fiber(sl2, list(la.identity(3)), hb, la.zeros(3))
    assert fib.rank == 1 and fib.isotropic
    fib0 = gpd.mw_fiber(sl2, [], hb, la.zeros(3))
    assert fib0.rank == 3 and fib0.isotropic
    borel = gpd.mw_fiber(sl2, [h, e], eb, la.zeros(3))
    assert borel.isotropic
    # pairwise omega values vanish literally
    for i, t1 in enumerate(borel.basis):
        for t2 in borel.basis[i + 1 :]:
            assert gpd.omega_eval(sl2, borel.base.xi, t1, t2) == 0


def test_mw_fiber_with_offset(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    h_sub = [h]
    ann = la.annihilator(h_sub, 3)
    eta = ann[0]
    fib = gpd.mw_fiber(sl2, h_sub, hb, eta)
    assert fib.isotropic
    assert fib.base.xi == la.add(hb, eta)


def test_mw_fiber_errors(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    with pytest.raises(NotASubalgebra):
        gpd.mw_fiber(sl2, [e, f], hb, la.zeros(3))
    with pytest.raises(EtaNotInAnnihilator):
        gpd.mw_fiber(sl2, [h], hb, sl2.flat(h))


def test_chamber_face_fiber_not_isotropic(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)

    class StubFace:
        def root_subsystem_algebra(self, xi):
            return [e, f]

        def tangent_basis(self, xi):
            return []

    # Omega((e, 0), (f, 0)) = -h^flat([e, f]) = -kappa(h, h) != 0
    fib = gpd.chamber_face_fiber(sl2, StubFace(), hb)
    assert fib.rank == 2 and not fib.isotropic


def test_coadjoint_orbit_fiber(sl2, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    fib = gpd.coadjoint_orbit_fiber(sl2, CotangentPoint(hb))
    # dim g_xi + dim orbit = 1 + 2
    assert fib.rank == 3 and fib.isotropic
    gt = ref.matrix_group_element(sl2, [[2, 0], [0, Q(1, 2)]])
    fib2 = gpd.coadjoint_orbit_fiber(sl2, CotangentPoint(hb, gt))
    assert fib2.rank == 3 and fib2.isotropic
    # every basis vector satisfies the defining condition
    ginv = gt.inv()
    for t in fib2.basis:
        u, zeta = t[:3], t[3:]
        lhs = sl2.ad_star(u, hb)
        # zeta = ad*_v xi for a solution v; check lhs = Ad*_{g^-1} zeta - zeta
        rhs = la.sub(sl2.coadjoint_group_action(ginv, zeta), zeta)
        assert lhs == rhs
    with pytest.raises(BaseNotInSubgroupoid):
        gpd.coadjoint_orbit_fiber(sl2, CotangentPoint(hb, sl2.unipotent(e, 1)))


def test_two_route_fiber_agreement(sl2, sl3, sl2_efh, kks2):
    """Closed-form fibers equal ds^{-1}(TS) ∩ dt^{-1}(TS) ∩ (TS)^Omega."""
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    single = poisson.AffineSubspace(hb, [])
    mw = gpd.mw_fiber(sl2, list(la.identity(3)), hb, la.zeros(3))
    assert la.span_equal(ref.fiber_by_intersection(sl2, single, hb), mw.basis)
    orb = poisson.CoadjointOrbit(sl2, hb)
    of = gpd.coadjoint_orbit_fiber(sl2, CotangentPoint(hb))
    assert la.span_equal(ref.fiber_by_intersection(sl2, orb, hb), of.basis)
    pt = tuple([Q(0), Q(3)] + [Q(0)] * 6)
    face = poisson.WeylChamberFace(sl3, (0,), [pt])
    ff = gpd.chamber_face_fiber(sl3, face, pt)
    assert la.span_equal(ref.fiber_by_intersection(sl3, face, pt), ff.basis)


def test_lie_functor(sl2, sl3, kks2, kks3, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    single = poisson.AffineSubspace(hb, [])
    mw = gpd.mw_fiber(sl2, list(la.identity(3)), hb, la.zeros(3))
    assert gpd.lie_functor_check(mw, poisson.algebroid_fiber(kks2, single, hb))
    orb = poisson.CoadjointOrbit(sl2, hb)
    of = gpd.coadjoint_orbit_fiber(sl2, CotangentPoint(hb))
    assert gpd.lie_functor_check(of, poisson.algebroid_fiber(kks2, orb, hb))
    pt = tuple([Q(0), Q(1)] + [Q(0)] * 6)
    face = poisson.WeylChamberFace(sl3, (0,), [pt])
    ff = gpd.chamber_face_fiber(sl3, face, pt)
    assert gpd.lie_functor_check(ff, poisson.algebroid_fiber(kks3, face, pt))
    # a wrong expectation is rejected
    wrong = poisson.algebroid_fiber(kks2, poisson.AffineSubspace(la.zeros(3), []), la.zeros(3))
    assert not gpd.lie_functor_check(mw, wrong)


def lie_functor_by_intersection(fiber, expected):
    """The route lie_functor_check replaced: ker dt as span(fiber) ∩ span(e_0 .. e_{n-1}) inside Q^2n."""
    if not fiber.basis:
        return expected.rank == 0
    n = len(fiber.basis[0]) // 2
    ker_dt = ref.intersect_spans(fiber.basis, [la.unit(2 * n, i) for i in range(n)])
    return la.span_equal([tuple(-v[i] for i in range(n)) for v in ker_dt], list(expected.basis))


@pytest.mark.parametrize("typ", ["A", "B", "G2"])
def test_lie_functor_check_matches_the_intersection_route_on_every_chamber_face(typ):
    alg = lie.build_chevalley(typ, 2)
    pm = poisson.kks_model(alg)
    tampered = 0
    for subset in ((), (0,), (1,), (0, 1)):
        # two points of the face, coordinates 1, 2 and 3, 2 off the subset
        pts = [tuple(Q(c[i]) if i < 2 and i not in subset else la.ZERO for i in range(alg.dim)) for c in ((1, 2), (3, 2))]
        face = poisson.WeylChamberFace(alg, subset, pts)
        for pt in face.sample_points:
            fiber = poisson.algebroid_fiber(pm, face, pt)
            gfib = gpd.chamber_face_fiber(alg, face, pt)
            assert gpd.lie_functor_check(gfib, fiber) is lie_functor_by_intersection(gfib, fiber) is True
            if fiber.rank:
                # one basis vector of the expected fiber dropped
                short = poisson.AlgebroidFiber(fiber.basis[1:], fiber.contained_in_centralizer)
                assert gpd.lie_functor_check(gfib, short) is lie_functor_by_intersection(gfib, short) is False
                tampered += 1
    assert tampered == 6  # the interior face has fiber 0


def test_normality(sl2, sl3, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    orb = poisson.CoadjointOrbit(sl2, hb)
    gid = sl2.identity_element()
    assert gpd.normality_infinitesimal_check(sl2, orb, gid, hb)
    gu = sl2.unipotent(e)
    assert gpd.normality_infinitesimal_check(sl2, orb, gu, hb)
    # oracle: conjugate the centralizer basis and compare with the
    # centralizer at the translated point
    conj = [sl2.adjoint_group_action(gu, x) for x in la.nullspace(la.transpose(sl2.coadjoint_matrix(hb)))]
    xi2 = sl2.coadjoint_group_action(gu, hb)
    assert la.span_equal(conj, la.nullspace(la.transpose(sl2.coadjoint_matrix(xi2))))
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)])
    gt = ref.matrix_group_element(sl3, [[2, 0, 0], [0, 3, 0], [0, 0, Q(1, 6)]])
    assert gpd.normality_infinitesimal_check(sl3, dec, gt, dec.sample_points[0])
    tri = lie.principal_sl2(sl2)
    sl = poisson.slodowy_slice(sl2, tri, parameters=[[0]])
    with pytest.raises(KindNotInvariant):
        gpd.normality_infinitesimal_check(sl2, sl, gid, sl.sample_points[0])


def test_fiber_bases_linearly_independent(sl2, sl3, sl2_efh):
    e, h, f = sl2_efh
    hb = sl2.flat(h)
    fibers = [
        gpd.mw_fiber(sl2, [h, e], sl2.flat(e), la.zeros(3)),
        gpd.coadjoint_orbit_fiber(sl2, CotangentPoint(hb)),
        gpd.chamber_face_fiber(
            sl3,
            poisson.WeylChamberFace(sl3, (0,), [tuple([Q(0), Q(1)] + [Q(0)] * 6)]),
            tuple([Q(0), Q(1)] + [Q(0)] * 6),
        ),
    ]
    for fib in fibers:
        assert la.rank(fib.basis) == fib.rank


def test_omega_eval_dimension_mismatch(sl2):
    from symred.errors import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        gpd.omega_eval(
            sl2, la.zeros(3), la.zeros(4) + la.zeros(3), la.zeros(3) + la.zeros(3)
        )
    with pytest.raises(DimensionMismatch):
        gpd.omega_eval(sl2, la.zeros(4), la.zeros(6), la.zeros(6))


def test_omega_rank_other_types(rng):
    b2 = lie.build_chevalley("B", 2)
    xi = la.random_vector(rng, b2.dim)
    assert la.rank(gpd.omega_gram(b2, xi, la.identity(2 * b2.dim))) == 2 * b2.dim


@pytest.mark.parametrize("typ,rank", [("A", 2), ("G2", 2)])
def test_omega_gram_builds_two_fractions_per_nonzero_entry(typ, rank, rng, fractions_built):
    """At most one per nonzero upper-triangle entry and one for its mirror, with C memoised."""
    alg = lie.build_chevalley(typ, rank)
    xi = la.random_vector(rng, alg.dim)
    vectors = [la.random_vector(rng, 2 * alg.dim) for _ in range(6)]
    alg.coadjoint_matrix(xi)
    built, gram = fractions_built(lambda: gpd.omega_gram(alg, xi, vectors))
    nonzero = sum(1 for a in range(6) for b in range(a + 1, 6) if gram[a][b])
    assert 0 < built <= 2 * nonzero
