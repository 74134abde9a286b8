import functools
import inspect
import os
import re
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_kernels as ref
import symred
from conftest import perturbed
from symred import lie, poisson
from symred import linalg as la
from symred.errors import (
    CertificateFailed,
    DimensionMismatch,
    NoMatrixRep,
    SolveFailure,
    UnsupportedType,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)
vec3 = st.tuples(fractions, fractions, fractions)


# -- independent oracle: close the simple roots under reflections ------------


def reflection_closure_size(cartan):
    """Count the roots generated from the simple ones by s_j(b) = b - <b, a_j^v> a_j."""
    rank = len(cartan)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        new = []
        for b in frontier:
            for j in range(rank):
                c = sum(b[i] * cartan[i][j] for i in range(rank))
                r = tuple(b[k] - (c if k == j else 0) for k in range(rank))
                if r not in seen:
                    seen.add(r)
                    new.append(r)
        frontier = new
    return len(seen)


def test_dimensions_against_reflection_oracle():
    # dim = #roots + rank, with roots enumerated by an oracle separate
    # from the library's RootSystem class
    a2_cartan = [[2, -1], [-1, 2]]
    g2_cartan = [[2, -1], [-3, 2]]
    assert reflection_closure_size(a2_cartan) == 6
    assert reflection_closure_size(g2_cartan) == 12
    assert lie.build_chevalley("A", 2).dim == 6 + 2
    assert lie.build_chevalley("G2", 2).dim == 12 + 2


def test_d4_cartan_matrix():
    # Bourbaki numbering: alpha_2 is the branch node, joined to alpha_1, alpha_3 and alpha_4
    assert lie.RootSystem("D", 4).cartan == (
        (2, -1, 0, 0),
        (-1, 2, -1, -1),
        (0, -1, 2, 0),
        (0, -1, 0, 2),
    )
    assert reflection_closure_size(lie.RootSystem("D", 4).cartan) == 24


def test_sl2_shape():
    sl2 = lie.build_chevalley("A", 1)
    assert sl2.dim == 3 and sl2.rank == 1
    e, h, f = sl2.root_vector((1,)), sl2.basis_vec(0), sl2.root_vector((-1,))
    assert sl2.bracket(e, f) == h
    assert sl2.bracket(h, e) == la.scale(2, e)
    assert sl2.bracket(h, f) == la.scale(-2, f)


def test_unsupported_type():
    with pytest.raises(UnsupportedType):
        lie.build_chevalley("E", 8)
    with pytest.raises(UnsupportedType):
        lie.build_chevalley("A", 9)


@given(vec3)
@settings(max_examples=40, deadline=None)
def test_bracket_alternating(x):
    sl2 = lie.build_chevalley("A", 1)
    assert la.is_zero(sl2.bracket(x, x))


@given(vec3, vec3, fractions)
@settings(max_examples=40, deadline=None)
def test_bracket_bilinear(x, y, c):
    sl2 = lie.build_chevalley("A", 1)
    lhs = sl2.bracket(la.scale(c, x), y)
    assert lhs == la.scale(c, sl2.bracket(x, y))
    assert sl2.bracket(la.add(x, y), y) == la.add(sl2.bracket(x, y), sl2.bracket(y, y))


def test_bracket_dimension_mismatch(sl2):
    with pytest.raises(DimensionMismatch):
        sl2.bracket(la.zeros(4), la.zeros(3))
    for args in ((4, 3, 3), (3, 4, 3), (3, 3, 2)):
        with pytest.raises(DimensionMismatch):
            sl2.bracket_pairing(*map(la.zeros, args))


def test_sl3_simple_bracket_matches_matrix_commutator(sl3):
    # oracle: commutator of the defining matrices
    reps = ref.sl_realization(sl3)
    e1 = sl3.root_vector((1, 0))
    e2 = sl3.root_vector((0, 1))
    got = sl3.bracket(e1, e2)
    assert ref.realize(reps, got) == ref.commutator(ref.realize(reps, e1), ref.realize(reps, e2))
    e12 = sl3.root_vector((1, 1))
    assert got in (e12, la.neg(e12))


def test_ad_star_definition(sl2, rng):
    hb = sl2.flat(sl2.basis_vec(0))
    assert la.is_zero(sl2.ad_star(la.random_vector(rng, 3), la.zeros(3)))
    # oracle: evaluate -h^flat([e, .]) on the basis directly
    e = sl2.root_vector((1,))
    expected = tuple(-la.dot(hb, sl2.bracket(e, sl2.basis_vec(j))) for j in range(3))
    assert sl2.ad_star(e, hb) == expected
    # under the Killing identification this is the multiple -2 e^flat
    assert expected == la.scale(-2, sl2.flat(e))


@given(vec3, vec3, vec3)
@settings(max_examples=40, deadline=None)
def test_ad_star_pairing_identity(x, xi, y):
    sl2 = lie.build_chevalley("A", 1)
    assert la.dot(sl2.ad_star(x, xi), y) + la.dot(xi, sl2.bracket(x, y)) == 0


def test_centralizer_dual_cases(sl2, sl3):
    assert len(la.nullspace(la.transpose(sl2.coadjoint_matrix(la.zeros(3))), 3)) == 3
    hb = sl2.flat(sl2.basis_vec(0))
    cent = la.nullspace(la.transpose(sl2.coadjoint_matrix(hb)), 3)
    # oracle: nullspace of the 3x3 matrix of x -> -h^flat([x, .])
    rows = []
    for j in range(3):
        rows.append(tuple(-la.dot(hb, sl2.bracket(sl2.basis_vec(i), sl2.basis_vec(j))) for i in range(3)))
    oracle = la.nullspace(la.transpose(rows), 3)
    assert la.span_equal(cent, oracle)
    assert la.span_equal(cent, [sl2.basis_vec(0)])
    # subregular semisimple point of sl3: dim rank+2
    x = sl3.from_matrix(la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
    assert len(la.nullspace(la.transpose(sl3.coadjoint_matrix(sl3.flat(x))), 8)) == sl3.rank + 2 == 4


def test_principal_sl2(sl2, sl3):
    t2 = lie.principal_sl2(sl2)
    assert t2.verify(sl2)
    t3 = lie.principal_sl2(sl3)
    assert t3.verify(sl3)
    # exact solve of the A2 Cartan system alpha_i(h) = 2 gives (2, 2)
    assert t3.h[:2] == (Q(2), Q(2))
    for v in (t3.e, t3.h, t3.f):
        assert len(sl3.centralizer(v)) == sl3.rank
    for v in (t2.e, t2.h, t2.f):
        assert len(sl2.centralizer(v)) == sl2.rank


@pytest.mark.parametrize("cartan_type,rank", sorted(lie.SUPPORTED))
def test_principal_h_is_the_cartan_solution(cartan_type, rank):
    """h = 2 rho^vee, summed over the positive coroots, is the solution of alpha_i(h) = 2."""
    alg = lie.build_chevalley(cartan_type, rank)
    cartan = alg.root_data.cartan
    coeffs = ref.solve([tuple(Q(cartan[i][j]) for j in range(rank)) for i in range(rank)], (Q(2),) * rank)
    tri = lie.principal_sl2(alg)
    assert tri.h == coeffs + la.zeros(alg.dim - rank)
    _, _, fs = alg.simple_vectors()
    f = la.zeros(alg.dim)
    for c, fi in zip(coeffs, fs):
        f = la.add(f, la.scale(c, fi))
    assert tri.f == f


def test_principal_sl2_needs_roots(sl2):
    prod = lie.direct_power(sl2, 2)
    with pytest.raises(UnsupportedType):
        lie.principal_sl2(prod)


def test_adjoint_group_action(sl2, rng):
    e, h, f = sl2.root_vector((1,)), sl2.basis_vec(0), sl2.root_vector((-1,))
    gid = sl2.identity_element()
    x = la.random_vector(rng, 3)
    assert sl2.adjoint_group_action(gid, x) == x
    g = sl2.unipotent(e)
    # oracle: conjugation by g = [[1, 1], [0, 1]] computed by hand: g f g^{-1} = f + h - e
    assert sl2.adjoint_group_action(g, f) == la.add(f, la.sub(h, e))
    for _ in range(5):
        a, b = la.random_vector(rng, 3), la.random_vector(rng, 3)
        assert sl2.killing_form(
            sl2.adjoint_group_action(g, a), sl2.adjoint_group_action(g, b)
        ) == sl2.killing_form(a, b)


def test_coadjoint_group_action(sl2, rng):
    g = sl2.unipotent(sl2.root_vector((1,)))
    ginv = g.inv()
    xi = la.random_vector(rng, 3)
    y = la.random_vector(rng, 3)
    # Ad*_g xi = xi ∘ Ad_{g^{-1}}
    assert la.dot(sl2.coadjoint_group_action(g, xi), y) == la.dot(
        xi, sl2.adjoint_group_action(ginv, y)
    )


def test_no_matrix_rep(sl2, rng):
    """Only type A reads matrices: G2 and sl2 x sl2, which has no root data, refuse them; the group works without."""
    g2 = lie.build_chevalley("G2", 2)
    x = la.random_vector(rng, g2.dim)
    for alg, size in ((g2, 7), (g2, 3), (lie.direct_power(sl2, 2), 4), (lie.direct_power(sl2, 2), 2)):
        with pytest.raises(NoMatrixRep):
            alg.from_matrix(la.mat([[0] * size] * size))
    g = g2.identity_element() * g2.unipotent(g2.root_vector((1, 1)), 2).inv()
    assert g2.adjoint_group_action(g2.identity_element(), x) == x
    assert g2.coadjoint_group_action(g * g.inv(), x) == x
    assert g2.adjoint_group_action(g, g2.root_vector((1, 1))) == g2.root_vector((1, 1))
    # h is not ad-nilpotent, so its exponential is no finite sum
    with pytest.raises(SolveFailure):
        g2.unipotent(g2.basis_vec(0))


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_adjoint_group_on_every_type(typ, rank, rng):
    alg = lie.build_chevalley(typ, rank)
    es, _, fs = alg.simple_vectors()
    g = alg.unipotent(es[0], Q(1, 2)) * alg.unipotent(fs[-1], -3)
    e = alg.identity_element()
    assert g * g.inv() == e == g.inv() * g
    assert all(type(v) is Q for m in (g.ad, g.ad_inv) for row in m for v in row)
    # Ad_g is a bracket automorphism: [Ad_g e_i, Ad_g e_j] = Ad_g [e_i, e_j]
    cols = la.transpose(g.ad)
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            image = alg.adjoint_group_action(g, alg.bracket(alg.basis_vec(i), alg.basis_vec(j)))
            assert alg.bracket(cols[i], cols[j]) == image
    # Ad*_g is its dual: (Ad*_g xi)(Ad_g x) = xi(x)
    for _ in range(3):
        x, xi = la.random_vector(rng, alg.dim), la.random_vector(rng, alg.dim)
        assert la.dot(alg.coadjoint_group_action(g, xi), alg.adjoint_group_action(g, x)) == la.dot(xi, x)


def test_group_actions_convert_nothing(sl3, rng, monkeypatch):
    """Ad_g, Ad*_g, inv and * read the stored matrices: no elimination and no
    inverse, on an element that came from a matrix."""
    g = ref.matrix_group_element(sl3, [[2, 1, 0], [0, 1, 0], [1, 0, Q(1, 2)]])
    u = sl3.unipotent(sl3.root_vector((1, 1)), 3)
    eliminations, inverses = calls_to(monkeypatch, la, "_echelon"), calls_to(monkeypatch, la, "inverse")
    solves = calls_to(monkeypatch, ref, "solve")
    x, xi = la.random_vector(rng, 8), la.random_vector(rng, 8)
    sl3.adjoint_group_action(g, x)
    sl3.coadjoint_group_action(g * u.inv(), xi)
    assert eliminations == inverses == solves == []
    # the counters are live: the matrix oracle inverts g, itself one elimination, and solves for
    # each conjugated basis matrix
    ref.matrix_group_element(sl3, [[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    assert len(inverses) == len(eliminations) == 1 and len(solves) == 2 * sl3.dim


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_from_matrix_inverts_to_matrix(rank, rng, monkeypatch):
    """from_matrix reads back every coordinate vector from the oracle's matrix, with no
    elimination; the identity, whose trace is not 0, lies outside sl(rank+1)."""
    alg = lie.build_chevalley("A", rank)
    reps = ref.sl_realization(alg)
    xs = [la.random_vector(rng, alg.dim) for _ in range(3)] + [alg.basis_vec(i) for i in range(alg.dim)]
    mats = [ref.realize(reps, x) for x in xs]
    calls = [calls_to(monkeypatch, la, name) for name in ("_echelon", "inverse")]
    got = [alg.from_matrix(m) for m in mats]
    assert calls == [[], []]
    assert got == xs
    assert all(type(c) is Q and (c or c is la.ZERO) for x in got for c in x)
    with pytest.raises(SolveFailure, match="does not lie in the represented algebra"):
        alg.from_matrix(la.identity(rank + 1))


WRONG_SIZE = {
    # a 4x4 matrix whose top-left 3x3 block is h_1
    "from_matrix-4x4": lambda alg: alg.from_matrix(la.mat([[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])),
    "from_matrix-2x2": lambda alg: alg.from_matrix(la.mat([[1, 0], [0, -1]])),
    "from_matrix-ragged": lambda alg: alg.from_matrix(la.mat([[1, 0, 0], [0, -1], [0, 0, 0]])),
    # entries that la.mat cannot read: the shape is refused before any of them is read
    "from_matrix-unread-2x2": lambda alg: alg.from_matrix([[object()] * 2] * 2),
}


@pytest.mark.parametrize("i", [3, 5, -1])
def test_basis_vec_refuses_an_index_out_of_range(sl2, i):
    """basis_vec(5) on sl2 was the zero vector."""
    with pytest.raises(DimensionMismatch, match=f"basis index {i} outside 0..2"):
        sl2.basis_vec(i)


@pytest.mark.parametrize("k,length", [(5, 3), (2, 3), (-1, 3), (0, 4)])
def test_embed_factor_refuses_a_factor_out_of_range(k, length):
    """Factor 5 of a product of two raised a bare IndexError; a vector of the wrong length spilled into the next factor."""
    with pytest.raises(DimensionMismatch, match=f"factor index {k} with length {length}: the product has 2 factors"):
        lie.embed_factor(6, 3, k, la.zeros(length))
    assert lie.embed_factor(6, 3, 1, la.unit(3, 0)) == la.unit(6, 3)


def test_root_lookups_name_a_tuple_that_is_not_a_root(sl2):
    """root_vector((2,)) on A1 raised a bare KeyError; every tuple lookup names the tuple instead."""
    rs = sl2.root_data
    lookups = [
        lambda: sl2.root_vector((2,)),
        lambda: rs.vector_index((2,)),
        lambda: rs.coroot_coeffs((2,)),
    ]
    for lookup in lookups:
        with pytest.raises(SolveFailure, match=r"\(2,\) is not a root of A1"):
            lookup()


@pytest.mark.parametrize("convert", WRONG_SIZE)
def test_wrong_size_matrix_is_refused_before_any_solve(convert, sl3, monkeypatch):
    """A matrix of the wrong size raises DimensionMismatch naming 3x3, before any solve or inverse."""
    calls = [calls_to(monkeypatch, la, name) for name in ("inverse", "_echelon")]
    with pytest.raises(DimensionMismatch, match="3x3"):
        WRONG_SIZE[convert](sl3)
    assert calls == [[], []]


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_jacobi_all_types(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    assert alg.verify_jacobi()
    assert la.rank(alg.killing) == alg.dim
    assert len(alg.root_data.roots) == alg.dim - alg.rank


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_killing_invariance(typ, rank):
    assert lie.build_chevalley(typ, rank).verify_killing_invariance()


# the j <= k loop over every pair made 1,680 calls on G2, and every i's candidate pairs 248 (B4: 1,212);
# a Cartan index is diagonal, so its identity is read off K with no call
@pytest.mark.parametrize("typ,rank,calls", [("G2", 2, 208), ("B", 4, 1052)])
def test_killing_invariance_evaluates_only_candidate_pairs(typ, rank, calls, monkeypatch):
    made = Counter()
    killing_form = lie.LieAlgebra.killing_form

    def counted(self, x, y):
        made["calls"] += 1
        return killing_form(self, x, y)

    monkeypatch.setattr(lie.LieAlgebra, "killing_form", counted)
    assert lie.build_chevalley(typ, rank).verify_killing_invariance()
    assert made["calls"] == calls


@pytest.mark.parametrize("typ,rank,d,root", [("B", 2, (1, 1), (1, 2)), ("G2", 2, (2, 3), (2, 1))])
def test_inexact_half_length_raises(typ, rank, d, root, monkeypatch):
    """Wrong half-lengths make a sign N and a coroot coefficient proper fractions: each raises."""
    cartan_and_lengths = lie._cartan_and_lengths
    monkeypatch.setattr(lie, "_cartan_and_lengths", lambda t, r: (cartan_and_lengths(t, r)[0], d))
    rs = lie.RootSystem(typ, rank)
    with pytest.raises(CertificateFailed, match=r"N\(.*not an integer"):
        lie._table_from_roots(rs)
    with pytest.raises(CertificateFailed, match=rf"coroot of {re.escape(str(root))} .*not an integer"):
        rs.coroot_coeffs(root)


def test_zero_root_norm_raises(monkeypatch):
    """G2 with equal half-lengths gives (1, 1) norm 0: every division by it raises ``CertificateFailed``."""
    cartan_and_lengths = lie._cartan_and_lengths
    monkeypatch.setattr(lie, "_cartan_and_lengths", lambda t, r: (cartan_and_lengths(t, r)[0], (1, 1)))
    rs = lie.RootSystem("G2", 2)
    assert rs._norms[rs.vector_index((1, 1))] == 0
    with pytest.raises(CertificateFailed, match=r"coroot of \(1, 1\) divides by 0"):
        rs.coroot_coeffs((1, 1))
    with pytest.raises(CertificateFailed, match=r"N\(.*divides by 0"):
        lie.build_chevalley.__wrapped__("G2", 2)  # past the cache, which may hold the real G2
    with pytest.raises(CertificateFailed, match="divides by -2"):
        lie._exact_quotient(4, -2, "a quotient")


@pytest.mark.parametrize("typ,rank", sorted(tr for tr in lie.SUPPORTED if tr[0] == "A"))
def test_matrix_rep_consistency(typ, rank):
    """The oracle's matrices are a representation: [rho(e_i), rho(e_j)] = rho([e_i, e_j]) on every basis pair."""
    alg = lie.build_chevalley(typ, rank)
    reps = ref.sl_realization(alg)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert ref.commutator(reps[i], reps[j]) == ref.realize(reps, alg.bracket(alg.basis_vec(i), alg.basis_vec(j)))


def test_structure_constants_are_chevalley(sl3):
    # |N_{a,b}| = p + 1 over every root pair, read through bracket rather than the table
    rs = sl3.root_data
    for a in rs.roots:
        for b in rs.roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in rs._index:
                coeff = sl3.bracket(sl3.root_vector(a), sl3.root_vector(b))[
                    sl3.root_vector_index(s)
                ]
                assert abs(coeff) == rs._p_string(rs.vector_index(a), rs.vector_index(b)) + 1


def ad_semisimple(alg, x):
    """Whether ad_x is semisimple, decided by ``DecompositionClass``'s membership test,
    dim g - dim g_x = rank(ad_x²), at x's own centralizer dimension."""
    return poisson.DecompositionClass(alg, len(alg.centralizer(x)), []).contains(alg.flat(x))


def test_ad_semisimplicity(sl2, sl3):
    e = sl2.root_vector((1,))
    h = sl2.basis_vec(0)
    assert not ad_semisimple(sl2, e)
    assert ad_semisimple(sl2, h)
    x = sl3.from_matrix(la.mat([[1, 0, 0], [0, 1, 0], [0, 0, -2]]))
    assert ad_semisimple(sl3, x)
    # ad_h on sl2 has eigenvalues 0, 2, -2: ad_h^3 = 4 ad_h
    ad = sl2.ad_matrix(h)
    assert la.mat_mul(ad, la.mat_mul(ad, ad)) == tuple(la.scale(4, row) for row in ad)


def _elementary(size, entries):
    """size x size matrix with the given {(r, s): value} entries, zeros elsewhere."""
    return la.mat([[entries.get((r, s), 0) for s in range(size)] for r in range(size)])


# (d, n) per sl_size: d diagonal, n a nonzero nilpotent commuting with d, so
# d + n has semisimple part d and nilpotent part n
JORDAN_CASES = {
    2: [({}, {(0, 1): 1})],
    3: [
        ({(0, 0): 1, (1, 1): 1, (2, 2): -2}, {(0, 1): 1}),
        ({}, {(0, 1): 1, (1, 2): 1}),
    ],
    4: [
        ({(0, 0): 1, (1, 1): 1, (2, 2): -1, (3, 3): -1}, {(0, 1): 1, (2, 3): 1}),
        ({(0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): -3}, {(0, 1): 1, (1, 2): 1}),
        ({(0, 0): 2, (1, 1): 2, (2, 2): -1, (3, 3): -3}, {(0, 1): Q(1, 2)}),
        ({(0, 0): Q(1, 3), (1, 1): Q(-1, 3)}, {(2, 3): 1}),
    ],
}


@pytest.mark.parametrize("size", sorted(JORDAN_CASES))
def test_ad_semisimplicity_of_known_jordan_types(size):
    alg = lie.build_chevalley("A", size - 1)
    es, _, fs = alg.simple_vectors()
    # a unipotent g that moves d off the diagonal
    g = alg.unipotent(functools.reduce(la.add, fs)) * alg.unipotent(functools.reduce(la.add, es), Q(1, 2))
    for d, n in JORDAN_CASES[size]:
        x_s = alg.from_matrix(_elementary(size, d))
        x = la.add(x_s, alg.from_matrix(_elementary(size, n)))
        assert alg.bracket(x_s, x) == la.zeros(alg.dim)
        assert ad_semisimple(alg, alg.adjoint_group_action(g, x_s))
        assert not ad_semisimple(alg, alg.adjoint_group_action(g, x))


@pytest.mark.parametrize("typ", ["B", "G2"])
def test_ad_semisimplicity_of_cartan_and_root_vectors(typ):
    alg = lie.build_chevalley(typ, 2)
    rs = alg.root_data
    h1, h2 = alg.basis_vec(0), alg.basis_vec(1)
    for h in (h1, h2, la.add(h1, h2), la.add(la.scale(3, h1), la.scale(Q(-2, 5), h2))):
        assert ad_semisimple(alg, h)
    for beta in rs.positive + [tuple(-b for b in beta) for beta in rs.positive]:
        e = alg.root_vector(beta)
        assert not ad_semisimple(alg, e)
        # beta(h) = 0: h + e_beta has semisimple part h and nilpotent part e_beta
        pairings = rs._pairings[rs.vector_index(beta)]
        h = la.sub(la.scale(pairings[1], h1), la.scale(pairings[0], h2))
        assert alg.bracket(h, e) == la.zeros(alg.dim) and not la.is_zero(h)
        assert not ad_semisimple(alg, la.add(h, e))
        # beta(h) != 0: h + e_beta is conjugate to h by exp(ad(t e_beta))
        h = h1 if pairings[0] else h2
        assert ad_semisimple(alg, la.add(h, e))


def solvable_xab() -> lie.LieAlgebra:
    """Basis {x, a, b}: [x, a] = a, [x, b] = a + b; its Killing form is degenerate."""
    table = [[[] for _ in range(3)] for _ in range(3)]
    table[0][1], table[1][0] = [(1, 1)], [(1, -1)]
    table[0][2], table[2][0] = [(1, 1), (2, 1)], [(1, -1), (2, -1)]
    return lie.LieAlgebra(["x", "a", "b"], table, 0)


def test_ad_semisimplicity_refuses_solvable_algebra():
    # ad_x has a Jordan block of size 2 at eigenvalue 1, which the rank
    # comparison does not see; the decomposition class reads x through sharp,
    # which refuses the degenerate Killing form
    alg = solvable_xab()
    assert alg.verify_jacobi() and la.rank(alg.killing) < alg.dim
    ad = alg.ad_matrix(alg.basis_vec(0))
    assert la.rank(ad) == la.rank(la.mat_mul(ad, ad)) == 2
    with pytest.raises(SolveFailure):
        ad_semisimple(alg, alg.basis_vec(0))


def test_sharp_refuses_degenerate_killing_form():
    alg = solvable_xab()
    with pytest.raises(SolveFailure):
        alg.sharp(alg.basis_vec(1))


def test_direct_power(sl2):
    prod = lie.direct_power(sl2, 2)
    assert prod.dim == 6 and prod.rank == 2
    assert prod.verify_jacobi()
    x = lie.embed_factor(6, 3, 0, sl2.basis_vec(0))
    y = lie.embed_factor(6, 3, 1, sl2.basis_vec(0))
    assert la.is_zero(prod.bracket(x, y))


def test_flat_sharp_roundtrip(sl3, rng):
    x = la.random_vector(rng, sl3.dim)
    assert sl3.sharp(sl3.flat(x)) == x
    assert la.dot(sl3.flat(x), x) == sl3.killing_form(x, x)


def counting_inverse(monkeypatch):
    """A list that ``la.inverse`` appends each matrix it inverts to, from now on."""
    seen, original = [], la.inverse

    def counted(a):
        seen.append(a)
        return original(a)

    monkeypatch.setattr(la, "inverse", counted)
    return seen


def test_construction_inverts_nothing(monkeypatch):
    seen = counting_inverse(monkeypatch)
    alg = lie.build_chevalley.__wrapped__("B", 3)
    lie.direct_power(alg, 2)
    lie.LieAlgebra(alg.basis_labels, alg.table, alg.rank)
    assert seen == []


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_sharp_inverts_flat_on_every_type(typ, rank, rng, monkeypatch):
    built = lie.build_chevalley(typ, rank)
    alg = lie.LieAlgebra(built.basis_labels, built.table, built.rank)
    seen = counting_inverse(monkeypatch)
    x, y = la.random_vector(rng, alg.dim), la.random_vector(rng, alg.dim)
    assert alg.sharp(alg.flat(x)) == x
    assert alg.sharp(alg.flat(y)) == y
    # the inverse is formed on the first call and reused after it
    assert seen == [alg.killing]


def test_embed_factor_shares_zero_cells(sl2):
    x = lie.embed_factor(9, 3, 1, sl2.basis_vec(0))
    assert x == la.vec([0, 0, 0, 1, 0, 0, 0, 0, 0])
    assert all(c is la.ZERO for i, c in enumerate(x) if i != 3)


def test_product_group_elements(sl2):
    prod = lie.direct_power(sl2, 2)
    e = sl2.root_vector((1,))
    x = lie.embed_factor(6, 3, 0, e)
    g = prod.unipotent(x, 1)
    xi = prod.flat(lie.embed_factor(6, 3, 1, sl2.basis_vec(0)))
    # acting in the first factor leaves a covector supported on the second alone
    assert prod.coadjoint_group_action(g, xi) == xi
    y = lie.embed_factor(6, 3, 1, sl2.root_vector((-1,)))
    assert prod.adjoint_group_action(g, y) == y


@given(st.tuples(*([st.fractions(min_value=-3, max_value=3, max_denominator=2)] * 3)),
       st.tuples(*([st.fractions(min_value=-3, max_value=3, max_denominator=2)] * 3)),
       st.tuples(*([st.fractions(min_value=-3, max_value=3, max_denominator=2)] * 3)))
@settings(max_examples=25, deadline=None)
def test_jacobi_on_random_vectors(x, y, z):
    sl2 = lie.build_chevalley("A", 1)
    s = la.add(
        la.add(
            sl2.bracket(sl2.bracket(x, y), z),
            sl2.bracket(sl2.bracket(y, z), x),
        ),
        sl2.bracket(sl2.bracket(z, x), y),
    )
    assert la.is_zero(s)


# -- int constants inside, Fraction at every boundary -------------------------


def _algebra(name):
    """A built type by its (type, rank), or sl2^3 for "A1^3"."""
    if name == "A1^3":
        return lie.direct_power(lie.build_chevalley("A", 1), 3)
    return lie.build_chevalley(*name)


@pytest.mark.parametrize("name", sorted(lie.SUPPORTED) + ["A1^3"], ids=str)
def test_table_constants_are_ints(name):
    alg = _algebra(name)
    assert all(type(c) is int for row in alg.table for entry in row for _, c in entry)


@pytest.mark.parametrize("name", [("A", 2), ("B", 2), ("G2", 2), "A1^3"], ids=str)
def test_public_boundaries_return_fractions(name, rng):
    alg = _algebra(name)
    x, y, xi = (la.random_vector(rng, alg.dim) for _ in range(3))
    basis = [alg.basis_vec(i) for i in range(alg.dim)]

    def exact(values):
        return all(type(v) is Q for v in values)

    assert all(exact(row) for row in alg.killing)
    assert exact(alg.bracket(x, y))
    assert all(exact(alg.bracket(a, b)) for a in basis for b in basis)
    assert all(exact(row) for row in alg.coadjoint_matrix(xi))
    assert exact(alg.ad_star(x, xi))
    assert exact([alg.killing_form(x, y), alg.killing_form(basis[0], basis[-1])])


@pytest.mark.parametrize("name", [("A", 2), ("G2", 2), "A1^3"], ids=str)
def test_coadjoint_matrix_is_memoised(name, rng):
    alg = _algebra(name)
    basis = [alg.basis_vec(i) for i in range(alg.dim)]
    for xi in (la.random_vector(rng, alg.dim), la.zeros(alg.dim), alg.flat(basis[0])):
        c = alg.coadjoint_matrix(xi)
        assert c == tuple(tuple(la.dot(xi, alg.bracket(a, b)) for b in basis) for a in basis)
        assert alg.coadjoint_matrix(xi) is c
        assert alg.coadjoint_matrix(list(xi)) is c
    with pytest.raises(DimensionMismatch):
        alg.coadjoint_matrix(la.zeros(alg.dim + 1))


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_integer_certificates_build_no_fraction(typ, rank, fractions_built):
    alg = lie.build_chevalley(typ, rank)
    # root data, the sign recursion and the construction certificate run on ints
    built, rs = fractions_built(lambda: lie.RootSystem(typ, rank))
    assert built == 0 and all(type(norm) is int for norm in rs._norms[rank:])
    built, table = fractions_built(lambda: lie._table_from_roots(rs))
    assert built == 0 and all(type(c) is int for row in table for entry in row for _, c in entry)
    assert fractions_built(lambda: lie._certify_chevalley(alg)) == (0, None)
    assert fractions_built(alg.verify_jacobi) == (0, True)
    assert fractions_built(alg._check_table) == (0, None)
    # one Fraction at most per Killing entry, and none for a zero entry
    built, killing = fractions_built(alg._compute_killing)
    assert built <= alg.dim * alg.dim and killing == alg.killing


# -- a cold build pays only for its certificate ---------------------------------


def calls_to(monkeypatch, owner, name):
    """A list that gets the arguments of each call to ``owner.name``, from now on."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cold_build_builds_no_killing_form_and_no_matrices(monkeypatch, fractions_built):
    """No Killing form and no Fraction: ``lie`` keeps no matrices of any type to build."""
    killing = calls_to(monkeypatch, lie.LieAlgebra, "_compute_killing")
    for typ, rank in sorted(lie.SUPPORTED):
        assert fractions_built(lambda: lie.build_chevalley.__wrapped__(typ, rank))[0] == 0, (typ, rank)
    assert killing == []
    assert not hasattr(lie.LieAlgebra, "matrix_rep") and "matrix_rep" not in inspect.signature(lie.LieAlgebra).parameters


KILLING_READS = {"sharp": lambda alg, x: alg.sharp(x), "killing_form": lambda alg, x: alg.killing_form(x, x)}


@pytest.mark.parametrize("read", KILLING_READS)
def test_killing_form_is_summed_once_on_first_read(read, monkeypatch, rng):
    killing = calls_to(monkeypatch, lie.LieAlgebra, "_compute_killing")
    alg = lie.build_chevalley.__wrapped__("B", 2)
    assert killing == []
    for _ in range(2):
        KILLING_READS[read](alg, la.random_vector(rng, alg.dim))
    assert killing == [(alg,)]
    assert alg.killing == lie.build_chevalley("B", 2).killing


def test_perturbed_a2_table_still_reads_matrices(sl3):
    """Coordinates come from the basis convention that the root data name, not from the table:
    a perturbed table that keeps A2's root data reads diag(1, 0, -1) as h_1 + h_2, as A2 does."""
    diagonal = la.mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]])
    h1_h2 = la.add(sl3.basis_vec(0), sl3.basis_vec(1))
    assert perturbed(sl3, 0, 3, 3, Q(1)).from_matrix(diagonal) == sl3.from_matrix(diagonal) == h1_h2


@pytest.mark.parametrize("name", [("A", 2), ("G2", 2), "A1^3"], ids=str)
def test_bracket_and_coadjoint_build_one_fraction_per_nonzero_entry(name, rng, fractions_built):
    built_alg = _algebra(name)
    # a fresh algebra on the same table, so no coadjoint matrix is memoised yet
    alg = lie.LieAlgebra(built_alg.basis_labels, built_alg.table, built_alg.rank)
    x, y, xi = (la.random_vector(rng, alg.dim) for _ in range(3))
    built, out = fractions_built(lambda: alg.bracket(x, y))
    assert 0 < built <= sum(1 for v in out if v)
    built, c = fractions_built(lambda: alg.coadjoint_matrix(xi))
    assert 0 < built <= sum(1 for row in c for v in row if v)
    assert fractions_built(lambda: alg.bracket(x, la.zeros(alg.dim))) == (0, la.zeros(alg.dim))


# [x, y] = 2y = [y, x]: symmetric where it must be antisymmetric
NOT_ANTISYMMETRIC = [[[], [(1, Q(2))]], [[(1, Q(2))], []]]


def test_non_antisymmetric_table_rejected():
    with pytest.raises(CertificateFailed):
        lie.LieAlgebra(["x", "y"], NOT_ANTISYMMETRIC, 0)


def test_table_listing_a_coordinate_twice_rejected():
    # [x, y] = y + y: bracket would sum to 2y while a first-match read gives 1
    with pytest.raises(CertificateFailed, match="lists a coordinate twice"):
        lie.LieAlgebra(["x", "y"], [[[], [(1, 1), (1, 1)]], [[(1, -1), (1, -1)], []]], 0)
    with pytest.raises(CertificateFailed, match="lists a coordinate twice"):
        lie.LieAlgebra(["x", "y"], [[[], [(1, 2)]], [[(1, -1), (1, -1)], []]], 0)


def rejected_under_optimize(build):
    """Whether `build`, source that raises ``CertificateFailed`` on a bad table, raises it under python -O."""
    script = textwrap.dedent(
        """
        import sys
        from fractions import Fraction
        from symred import lie
        from symred.errors import CertificateFailed
        from symred.lie import LieAlgebra

        try:
        {}
        except CertificateFailed:
            print("rejected", sys.flags.optimize)
        else:
            print("accepted", sys.flags.optimize)
        """
    ).format(textwrap.indent(textwrap.dedent(build), "    "))
    src = os.path.dirname(os.path.dirname(os.path.abspath(symred.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split() == ["rejected", "1"]


def test_certificates_survive_optimize():
    """Under python -O, where assert statements are stripped, the table is still rejected."""
    assert rejected_under_optimize(f"LieAlgebra(['x', 'y'], {NOT_ANTISYMMETRIC!r}, 0)")


# -- the construction-time certificate rejects tampered tables ------------------


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_certify_chevalley_accepts_built_tables(typ, rank):
    """An unperturbed copy passes, so each rejection below is the perturbation's doing."""
    alg = lie.build_chevalley(typ, rank)
    lie._certify_chevalley(perturbed(alg, 0, 0, 0, Q(0)))


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_certify_chevalley_rejects_cartan_action(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    e = alg.root_vector_index((1, 0))
    # [h_1, e_alpha1] picks up a stray h_2 component
    with pytest.raises(CertificateFailed, match=r"\[h_1, e\(1, 0\)\]"):
        lie._certify_chevalley(perturbed(alg, 0, e, 1, Q(1)))
    # <alpha_1, alpha_1^vee> = 2 becomes 3
    with pytest.raises(CertificateFailed, match=r"\[h_1, e\(1, 0\)\]"):
        lie._certify_chevalley(perturbed(alg, 0, e, e, Q(1)))
    # the Cartan subalgebra stops commuting: [h_1, h_2] = h_1
    with pytest.raises(CertificateFailed, match=r"\[h_1, h_j\] != 0"):
        lie._certify_chevalley(perturbed(alg, 0, 1, 0, Q(1)))


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_certify_chevalley_rejects_coroot(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    e, f = alg.root_vector_index((0, 1)), alg.root_vector_index((0, -1))
    with pytest.raises(CertificateFailed, match="is not the coroot"):
        lie._certify_chevalley(perturbed(alg, e, f, 0, Q(1, 2)))
    # a stray root-vector component is caught too
    with pytest.raises(CertificateFailed, match="is not the coroot"):
        lie._certify_chevalley(perturbed(alg, e, f, e, Q(1)))


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_certify_chevalley_rejects_wrong_constant(typ, rank):
    alg = lie.build_chevalley(typ, rank)
    a, b = alg.root_vector_index((1, 0)), alg.root_vector_index((0, 1))
    s = alg.root_vector_index((1, 1))
    n = ref.structure_constant(alg, a, b, s)
    assert abs(n) == alg.root_data._p_string(a, b) + 1
    # the pair is met in root order, so as (0, 1), (1, 0) first
    pair = r"\|N\(\(0, 1\), \(1, 0\)\)\|"
    with pytest.raises(CertificateFailed, match=rf"{pair} = 0, not p \+ 1 = {abs(n)}"):
        lie._certify_chevalley(perturbed(alg, a, b, s, -n))
    with pytest.raises(CertificateFailed, match=rf"{pair} = {2 * abs(n)}, not p \+ 1 = {abs(n)}"):
        lie._certify_chevalley(perturbed(alg, a, b, s, n))


# Each table keeps every coefficient the old certificate read, |N| = p+1 at
# e_{alpha+beta}, and breaks Jacobi, so only reading whole entries rejects it.
def test_certify_chevalley_rejects_a_stray_term_on_a_root_sum():
    """[e_a1, e_a2] = N e_theta + h_1."""
    alg = lie.build_chevalley("A", 2)
    broken = perturbed(alg, alg.root_vector_index((1, 0)), alg.root_vector_index((0, 1)), 0, Q(1))
    assert broken.verify_jacobi() is False
    with pytest.raises(CertificateFailed, match=r"\[e\(0, 1\), e\(1, 0\)\] = \{.*\} has terms off e\(1, 1\)"):
        lie._certify_chevalley(broken)


def test_certify_chevalley_rejects_a_bracket_off_the_roots():
    """[e_a1, e_theta] = e_a2, though a1 + theta = (2, 1) is neither a root nor 0."""
    alg = lie.build_chevalley("A", 2)
    a1, theta, a2 = (alg.root_vector_index(r) for r in ((1, 0), (1, 1), (0, 1)))
    broken = perturbed(alg, a1, theta, a2, Q(1))
    assert broken.verify_jacobi() is False
    with pytest.raises(CertificateFailed, match=r"\(2, 1\) is neither a root nor 0"):
        lie._certify_chevalley(broken)


def flipped_sign(alg):
    """alg's table with N_{alpha_1, alpha_2} negated on both entries of the pair."""
    a, b, s = (alg.root_vector_index(r) for r in ((1, 0), (0, 1), (1, 1)))
    return perturbed(alg, a, b, s, -2 * ref.structure_constant(alg, a, b, s))


def test_certify_chevalley_rejects_a_flipped_sign():
    """Every |N| is still p + 1 and the table is antisymmetric, but N_{-a,-b} = -N_{a,b} fails, and so does Jacobi."""
    broken = flipped_sign(lie.build_chevalley("A", 2))
    assert broken.verify_jacobi() is False
    with pytest.raises(CertificateFailed, match=r"N\(\(0, -1\), \(-1, 0\)\) = -?\d+, not -N\(\(0, 1\), \(1, 0\)\) = "):
        lie._certify_chevalley(broken)


def test_sign_certificate_rejects_under_optimize():
    """N_{alpha_1, alpha_2} negated on both entries of the pair is still rejected with asserts stripped."""
    assert rejected_under_optimize(
        """
        alg = lie.build_chevalley("A", 2)
        a, b, s = (alg.root_vector_index(r) for r in ((1, 0), (0, 1), (1, 1)))
        table = [[dict(entry) for entry in row] for row in alg.table]
        table[a][b][s] *= -1
        table[b][a][s] *= -1
        rows = [[sorted(entry.items()) for entry in row] for row in table]
        lie._certify_chevalley(LieAlgebra(alg.basis_labels, rows, alg.rank, alg.root_data))
        """
    )


# -- one certificate visit per unordered root pair -------------------------------


def one_sided(alg, i, j, k, delta):
    """alg's table with c_ij^k moved by delta and c_ji^k left as it is."""
    table = [[dict(entry) for entry in row] for row in alg.table]
    table[i][j][k] = table[i][j].get(k, 0) + delta
    return [[[(m, c) for m, c in sorted(entry.items()) if c] for entry in row] for row in table]


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_check_table_rejects_a_tampered_mirror_entry(typ, rank):
    """``_certify_chevalley`` reads [e_alpha, e_beta] at index b > a only; its mirror is antisymmetry's."""
    alg = lie.build_chevalley(typ, rank)
    a, b = sorted(alg.root_vector_index(r) for r in ((1, 0), (0, 1)))
    s, e, f = (alg.root_vector_index(r) for r in ((1, 1), (1, 0), (-1, 0)))
    mirrors = [
        (b, a, s, ref.structure_constant(alg, b, a, s)),  # |N| doubled on the mirror alone
        (b, a, 0, Q(1)),  # a stray h_1 on the mirror alone
        (f, e, 0, Q(1)),  # [e_-alpha, e_alpha] off minus the coroot of alpha
        (e, e, e, Q(1)),  # the diagonal: [e_alpha, e_alpha] = e_alpha
    ]
    for i, j, k, delta in mirrors:
        assert i >= j
        with pytest.raises(CertificateFailed, match="not antisymmetric"):
            lie.LieAlgebra(alg.basis_labels, one_sided(alg, i, j, k, delta), alg.rank, alg.root_data)


@pytest.mark.parametrize("typ,rank", [("A", 2), ("B", 2), ("G2", 2)])
def test_certify_chevalley_rejects_a_wrong_constant_on_every_root_pair(typ, rank):
    """|N| doubled on both entries of a pair, consistently, in either order of the pair."""
    alg = lie.build_chevalley(typ, rank)
    rs = alg.root_data
    pairs = [(x, y, tuple(map(sum, zip(x, y)))) for x in rs.roots for y in rs.roots]
    pairs = [(x, y, z) for x, y, z in pairs if z in rs._index]
    assert pairs
    for x, y, z in pairs:
        a, b, s = (alg.root_vector_index(r) for r in (x, y, z))
        n = ref.structure_constant(alg, a, b, s)
        with pytest.raises(CertificateFailed, match=rf"= {2 * abs(n)}, not p \+ 1 = {abs(n)}"):
            lie._certify_chevalley(perturbed(alg, a, b, s, n))


@pytest.mark.parametrize("typ,rank", sorted(lie.SUPPORTED))
def test_p_string_is_symmetric_on_root_sums(typ, rank):
    """p_{alpha,beta} = p_{beta,alpha} whenever alpha + beta is a root, so one visit per pair suffices."""
    rs = lie.RootSystem(typ, rank)
    pairs = [(a, b) for a, sums in enumerate(rs._sums) for b, s in sums.items() if s != lie.ZERO_SUM]
    assert bool(pairs) is (rank > 1)
    assert all(rs._p_string(a, b) == rs._p_string(b, a) for a, b in pairs)


def test_unordered_certificate_rejects_under_optimize():
    """A consistently doubled N_{alpha_2, alpha_1}, met once, is still rejected with asserts stripped."""
    assert rejected_under_optimize(
        """
        alg = lie.build_chevalley("A", 2)
        a, b, s = (alg.root_vector_index(r) for r in ((0, 1), (1, 0), (1, 1)))
        table = [[dict(entry) for entry in row] for row in alg.table]
        table[a][b][s] *= 2
        table[b][a][s] *= 2
        rows = [[sorted(entry.items()) for entry in row] for row in table]
        lie._certify_chevalley(LieAlgebra(alg.basis_labels, rows, alg.rank, alg.root_data))
        """
    )
