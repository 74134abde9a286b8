from dataclasses import replace
from fractions import Fraction as Q

import pytest

from symred import lie, poisson, shifted
from symred import linalg as la
from symred.errors import NotACandidate
from conftest import subregular_point


def test_build_complex_valid_candidates(sl2, kks2):
    zero = la.zeros(3)
    s0 = poisson.AffineSubspace(zero, [])
    fiber = poisson.algebroid_fiber(kks2, s0, zero)
    cmap = shifted.build_complex(kks2, s0, zero, list(fiber.basis))
    assert cmap.verify_commutation()
    cmap0 = shifted.build_complex(kks2, s0, zero, [])
    assert cmap0.verify_commutation()
    # at the origin sigma vanishes, so any subspace is a candidate
    e = sl2.root_vector((1,))
    cmap_e = shifted.build_complex(kks2, s0, zero, [e])
    assert cmap_e.verify_commutation()


def test_build_complex_rejects_non_candidates(sl2, kks2):
    hb = sl2.flat(sl2.basis_vec(0))
    s1 = poisson.AffineSubspace(hb, [])
    e = sl2.root_vector((1,))
    with pytest.raises(NotACandidate):
        shifted.build_complex(kks2, s1, hb, [e])  # sigma(e) leaves TS = 0
    orb = poisson.CoadjointOrbit(sl2, hb)
    with pytest.raises(NotACandidate):
        # e pairs nontrivially with the orbit tangent directions
        shifted.build_complex(kks2, orb, hb, [e])


def test_verdicts_at_origin(sl2, kks2):
    zero = la.zeros(3)
    s0 = poisson.AffineSubspace(zero, [])
    fiber = poisson.algebroid_fiber(kks2, s0, zero)
    v = shifted.criterion_for_candidate(kks2, s0, zero, list(fiber.basis))
    assert v.lagrangian and v.phi_iso and v.psi_iso and v.ker_phi_dim == 0
    v0 = shifted.criterion_for_candidate(kks2, s0, zero, [])
    assert not v0.lagrangian and v0.ker_phi_dim == 3
    e = sl2.root_vector((1,))
    v1 = shifted.criterion_for_candidate(kks2, s0, zero, [e])
    assert not v1.lagrangian and v1.ker_phi_dim == 2


def test_constant_symplectic_ambient():
    p = poisson.symplectic_model([[0, 1], [-1, 0]])
    amb = poisson.AffineSubspace(la.zeros(2), list(la.identity(2)))
    v = shifted.criterion_for_candidate(p, amb, la.zeros(2), [])
    assert v.lagrangian and v.ker_phi_dim == 0


def candidate_library(sl2, sl3, kks2, kks3):
    """(model, bivector model, point, fiber) across the scenario kinds."""
    e, h, f = sl2.root_vector((1,)), sl2.basis_vec(0), sl2.root_vector((-1,))
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    out = []
    for p, model in [
        (kks2, poisson.AffineSubspace(hb, [])),
        (kks2, poisson.slodowy_slice(sl2, tri, parameters=[[0], [1]])),
        (kks2, poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1)])),
        (kks2, poisson.CasimirLevelSet(sl2, 8, [hb])),
        (kks3, poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)])),
        (kks3, poisson.WeylChamberFace(sl3, (1,), [tuple([Q(1), Q(0)] + [Q(0)] * 6)])),
    ]:
        for pt in model.sample_points:
            out.append((p, model, pt, poisson.algebroid_fiber(p, model, pt)))
    return out


def test_criterion_equivalence_over_library(sl2, sl3, kks2, kks3):
    pairs = 0
    for p, model, pt, fiber in candidate_library(sl2, sl3, kks2, kks3):
        v = shifted.criterion_for_candidate(p, model, pt, list(fiber.basis))
        assert v.lagrangian and v.ker_phi_dim == 0
        pairs += 1
        if fiber.rank > 0:
            v_small = shifted.criterion_for_candidate(p, model, pt, list(fiber.basis)[:-1])
            assert not v_small.lagrangian
            assert v_small.ker_phi_dim == 1
            pairs += 1
    assert pairs >= 10


def test_enlarged_candidates_rejected(sl2, kks2):
    """A candidate violating the containments never reaches the verdict."""
    hb = sl2.flat(sl2.basis_vec(0))
    orb = poisson.CoadjointOrbit(sl2, hb)
    fiber = poisson.algebroid_fiber(kks2, orb, hb)
    enlargement = list(fiber.basis) + [sl2.root_vector((1,))]
    with pytest.raises(NotACandidate):
        shifted.build_complex(kks2, orb, hb, enlargement)


def test_dependent_candidate_basis_rejected(sl2, sl3, kks2, kks3):
    """A fiber basis with one vector repeated spans the fiber, but is not a basis of it."""
    cases = candidate_library(sl2, sl3, kks2, kks3)
    cases += [(p, s, pt, poisson.algebroid_fiber(p, s, pt)) for p, s, pt in symplectic_cases()]
    rejected = 0
    for p, model, pt, fiber in cases:
        if fiber.rank == 0:
            continue
        dependent = list(fiber.basis) + [fiber.basis[0]]
        with pytest.raises(NotACandidate, match="linearly independent"):
            shifted.build_complex(p, model, pt, dependent)
        with pytest.raises(NotACandidate, match="linearly independent"):
            shifted.criterion_for_candidate(p, model, pt, dependent)
        rejected += 1
    assert rejected == 8


def test_ker_phi_dimension_formula(sl2, sl3, kks2, kks3):
    for p, model, pt, fiber in candidate_library(sl2, sl3, kks2, kks3):
        for cut in range(fiber.rank + 1):
            v = shifted.criterion_for_candidate(p, model, pt, list(fiber.basis)[:cut])
            assert v.ker_phi_dim == fiber.rank - cut


# (phi_iso, psi_iso, ker_phi_dim) for the first `cut` fiber vectors, cut = 0 .. rank
LIBRARY_VERDICTS = [
    [(False, False, 1), (True, True, 0)],  # the point {h^b}
    [(True, True, 0)],  # Slodowy slice at e^b
    [(True, True, 0)],  # Slodowy slice at e^b + f^b
    [(False, False, 1), (True, True, 0)],  # orbit of h^b at h^b
    [(False, False, 1), (True, True, 0)],  # orbit of h^b at Ad*_g h^b
    [(False, False, 1), (True, True, 0)],  # Casimir level 8 at h^b
    [(False, False, 3), (False, False, 2), (False, False, 1), (True, True, 0)],  # subregular class
    [(False, False, 3), (False, False, 2), (False, False, 1), (True, True, 0)],  # chamber face a2
]


def symplectic_cases():
    """(model, S, point): the constant symplectic ambient, a line in the plane and a hyperplane in Q^4.

    On the line and the hyperplane σ(L) ≠ 0, so ε is not zero, and with L = 0 only ψ is an isomorphism.
    """
    plane = poisson.symplectic_model([[0, 1], [-1, 0]])
    q4 = poisson.symplectic_model([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    return [
        (plane, poisson.AffineSubspace(la.zeros(2), list(la.identity(2))), la.zeros(2)),
        (plane, poisson.AffineSubspace(la.zeros(2), [la.unit(2, 0)]), la.zeros(2)),
        (q4, poisson.AffineSubspace(la.zeros(4), [la.unit(4, i) for i in range(3)]), la.zeros(4)),
    ]


SYMPLECTIC_VERDICTS = [
    [(True, True, 0)],
    [(False, True, 1), (True, True, 0)],
    [(False, True, 1), (True, True, 0)],
]


def verdicts_by_cut(p, model, pt, fiber):
    out = []
    for cut in range(fiber.rank + 1):
        v = shifted.criterion_for_candidate(p, model, pt, list(fiber.basis)[:cut])
        out.append((v.phi_iso, v.psi_iso, v.ker_phi_dim))
    return out


def test_criterion_verdicts_pinned(sl2, sl3, kks2, kks3):
    got = [verdicts_by_cut(*case) for case in candidate_library(sl2, sl3, kks2, kks3)]
    assert got == LIBRARY_VERDICTS
    got = [verdicts_by_cut(p, s, pt, poisson.algebroid_fiber(p, s, pt)) for p, s, pt in symplectic_cases()]
    assert got == SYMPLECTIC_VERDICTS


@pytest.mark.parametrize("name", ["alpha", "beta", "gamma", "delta", "epsilon"])
def test_tampered_column_breaks_commutation(name):
    p, line, pt = symplectic_cases()[1]
    cmap = shifted.build_complex(p, line, pt, list(poisson.algebroid_fiber(p, line, pt).basis))
    assert cmap.verify_commutation() and any(la.dot(v, v) for v in cmap.epsilon)
    cols = list(getattr(cmap, name))
    cols[0] = tuple(x + 1 for x in cols[0])
    assert not replace(cmap, **{name: tuple(cols)}).verify_commutation()
