"""The symplectic groupoid T*G = G x g* in left trivialization.

Tangent vectors at (g, xi) are pairs (u, zeta) in g x g*, stored flat as
one 2n-tuple with u in the first n coordinates and zeta in the last n.  The
canonical symplectic form is

    Omega((u1, z1), (u2, z2)) = -z2(u1) + z1(u2) - xi([u1, u2]),

which depends on the base only through xi.  ``omega_eval`` sums one value
pairwise: the two pairings by ``la.dot`` and xi([u1, u2]) by
``LieAlgebra.bracket_pairing`` off the structure table, with no bracket
vector and no coadjoint matrix C.  ``omega_gram`` sums a whole Gram matrix
off C instead, so a check that compares the two routes compares two
independent sums.  Source and target are
s(g, xi) = Ad*_g xi and t(g, xi) = xi, with differentials
ds(u, zeta) = Ad*_g(ad*_u xi + zeta) and dt(u, zeta) = zeta.

Fibers of the stabilizer subgroupoids are computed from their defining
linear conditions and certified isotropic by a zero Gram matrix of Omega;
the tests cross-check them at the identity against the intersection
ds^{-1}(TS) ∩ dt^{-1}(TS) ∩ (TS)^Omega.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from . import poisson
from .errors import (
    BaseNotInSubgroupoid,
    DimensionMismatch,
    EtaNotInAnnihilator,
    KindNotInvariant,
    NotASubalgebra,
)
from .lie import GroupElement, LieAlgebra, is_subalgebra
from .linalg import Q, Vector


@dataclass(frozen=True)
class CotangentPoint:
    """(g, xi) with g omitted when only the xi-dependence matters."""

    xi: Vector
    g: GroupElement | None = None


@dataclass(frozen=True)
class GroupoidTangentFiber:
    base: CotangentPoint
    basis: tuple[Vector, ...]  # flat (u, zeta)
    isotropic: bool

    @property
    def rank(self) -> int:
        return len(self.basis)


def _check_flat(n: int, vectors: Sequence[Vector]) -> None:
    for v in vectors:
        if len(v) != 2 * n:
            raise DimensionMismatch(f"expected length {2 * n}, got {len(v)}")


def omega_eval(alg: LieAlgebra, xi: Vector, v1: Vector, v2: Vector) -> Fraction:
    """-z2(u1) + z1(u2) - xi([u1, u2]) on flat v1 = (u1, z1), v2 = (u2, z2).

    The pairings are two ``la.dot``s and ``bracket_pairing``, which sums
    xi([u1, u2]) off the table with no bracket vector.  It never reads C,
    so a pairwise check stays independent of ``omega_gram``.  A ZERO term
    costs no ``Fraction`` operation, and a zero value is ``ZERO``.
    """
    n = alg.dim
    if len(xi) != n:
        raise DimensionMismatch(f"expected length {n}, got {len(xi)}")
    _check_flat(n, (v1, v2))
    u1, z1, u2, z2 = v1[:n], v1[n:], v2[:n], v2[n:]
    value = la.dot(z1, u2)
    for term in (la.dot(z2, u1), alg.bracket_pairing(xi, u1, u2)):
        if term is not la.ZERO:
            value = -term if value is la.ZERO else (value - term) or la.ZERO
    return value


def omega_gram(alg: LieAlgebra, xi: Vector, vectors: Sequence[Vector]) -> list[Vector]:
    """Gram matrix of Omega on flat tangent vectors, summed on ints.

    C = xi([e_i, e_j]) and each v_a = (u_a, z_a) are scaled once to ints,
    so d_a d_C Omega(v_a, .) is the int row (d_C z_a - u_a^T C, -d_C u_a)
    and an entry is one int sum: one Fraction, one more for its mirror.
    The table is antisymmetric, so only the upper triangle is evaluated.
    """
    n = alg.dim
    _check_flat(n, vectors)
    flat, dc = la._integer([x for row in alg.coadjoint_matrix(xi) for x in row])
    c = [[] for _ in range(n)]
    for ij, y in flat:
        c[ij // n].append((ij % n, y))
    scaled = [la._integer(v) for v in vectors]
    rows = []
    for support, _ in scaled:
        row = [0] * (2 * n)
        for i, x in support:
            if i < n:
                row[n + i] = -dc * x
                for j, y in c[i]:
                    row[j] -= x * y
            else:
                row[i - n] += dc * x
        rows.append(row)
    m = len(vectors)
    gram = [[la.ZERO] * m for _ in range(m)]
    for a in range(m):
        row, da = rows[a], scaled[a][1] * dc
        for b in range(a + 1, m):
            acc = sum(row[j] * x for j, x in scaled[b][0])
            if acc:
                d = da * scaled[b][1]
                gram[a][b] = Q(acc, d)
                gram[b][a] = Q(-acc, d)
    return [tuple(row) for row in gram]


def _isotropic(alg: LieAlgebra, xi: Vector, vectors: Sequence[Vector]) -> bool:
    return all(la.is_zero(row) for row in omega_gram(alg, xi, vectors))


def _split_fiber(alg: LieAlgebra, xi: Vector, us: Sequence[Vector], zetas: Sequence[Vector]) -> GroupoidTangentFiber:
    """The fiber spanned by {(u, 0)} and {(0, zeta)} at the base xi, certified isotropic."""
    zero = la.zeros(alg.dim)
    basis = [tuple(u) + zero for u in us] + [zero + tuple(z) for z in zetas]
    return GroupoidTangentFiber(CotangentPoint(xi), tuple(basis), _isotropic(alg, xi, basis))


def source_target_differentials(alg: LieAlgebra, p: CotangentPoint, v: Vector):
    """(ds, dt) of the source Ad*_g xi and target xi at p along flat v = (u, zeta)."""
    n = alg.dim
    _check_flat(n, (v,))
    zeta = tuple(v[n:])
    ds = la.add(alg.ad_star(v[:n], p.xi), zeta)
    if p.g is not None:
        ds = alg.coadjoint_group_action(p.g, ds)
    return ds, zeta


def mw_fiber(alg: LieAlgebra, h_sub: Sequence[Vector], xi: Vector, eta: Vector) -> GroupoidTangentFiber:
    """Tangent fiber h_xi x h° of the Marsden-Weinstein data H_xi x (xi + h°)."""
    h_basis = la.span_basis(h_sub)
    if not is_subalgebra(alg, h_basis):
        raise NotASubalgebra("h is not closed under the bracket")
    if any(la.dot(eta, b) != 0 for b in h_basis):
        raise EtaNotInAnnihilator("eta must annihilate h")
    # h_xi = {x in h : xi([x, b]) = x^T C b = 0 for every b in h}
    c = alg.coadjoint_matrix(xi)
    c_h = [la.mat_vec(c, b) for b in h_basis]
    h_xi = la.kernel_within([tuple(la.dot(x, cb) for cb in c_h) for x in h_basis], h_basis)
    return _split_fiber(alg, tuple(la.add(xi, eta)), h_xi, la.annihilator(h_basis, alg.dim))


def coadjoint_orbit_fiber(alg: LieAlgebra, p: CotangentPoint) -> GroupoidTangentFiber:
    """Solutions of ad*_u xi = (Ad*_{g^{-1}} - 1) ad*_v xi, as pairs (u, ad*_v xi)."""
    xi = tuple(p.xi)
    g = p.g if p.g is not None else alg.identity_element()
    if alg.coadjoint_group_action(g, xi) != xi:
        raise BaseNotInSubgroupoid("base point must satisfy Ad*_g xi = xi")
    ginv = g.inv()
    n = alg.dim
    # ad*_{e_i} xi is minus row i of the coadjoint matrix
    cols_u = [la.neg(row) for row in alg.coadjoint_matrix(xi)]
    cols_v = [la.sub(alg.coadjoint_group_action(ginv, av), av) for av in cols_u]
    # condition: ad*_u xi - (Ad*_{g^-1} - 1) ad*_v xi = 0, unknowns (u, v)
    ad_xi = la.transpose(cols_u)  # ad_xi x = ad*_x xi
    back = la.transpose(cols_v)
    rows = [ad_xi[j] + la.neg(back[j]) for j in range(n)]
    sols = la.nullspace(rows)
    flats = [tuple(sol[:n]) + la.mat_vec(ad_xi, sol[n:]) for sol in sols]
    basis = la.span_basis(flats)
    iso = _isotropic(alg, xi, basis)
    return GroupoidTangentFiber(p, tuple(basis), iso)


def chamber_face_fiber(alg: LieAlgebra, face, xi: Vector) -> GroupoidTangentFiber:
    """Tangent fiber [k_S, k_S] x T_xi S of the implosion subgroupoid."""
    return _split_fiber(alg, tuple(xi), face.root_subsystem_algebra(xi), face.tangent_basis(xi))


def lie_functor_check(fiber: GroupoidTangentFiber, expected: poisson.AlgebroidFiber) -> bool:
    """ker-dt part of the fiber, negated, must span the algebroid fiber.

    ker dt is the kernel of (u, zeta) -> zeta inside span(fiber), read by
    ``kernel_within`` off the basis and its zeta-parts.
    """
    if not fiber.basis:
        return expected.rank == 0
    n = len(fiber.basis[0]) // 2
    ker_dt = la.kernel_within([v[n:] for v in fiber.basis], fiber.basis)
    us = [tuple(-v[i] for i in range(n)) for v in ker_dt]
    return la.span_equal(us, list(expected.basis))


def normality_infinitesimal_check(alg: LieAlgebra, s_model, g: GroupElement, xi: Vector) -> bool:
    """Ad_g(h_xi) = h_{Ad*_g xi} as subspaces, for invariant kinds."""
    if not isinstance(s_model, (poisson.CoadjointOrbit, poisson.DecompositionClass, poisson.CasimirLevelSet)):
        raise KindNotInvariant(f"kind {s_model.kind} is not invariant")
    p = poisson.kks_model(alg)
    h1 = poisson.stabilizer_subalgebra(p, s_model, xi)
    xi2 = alg.coadjoint_group_action(g, tuple(xi))
    model2 = s_model
    if isinstance(s_model, poisson.CoadjointOrbit) and not s_model.contains(xi2):
        model2 = s_model.with_witness(g * s_model.witness_of[tuple(xi)])
    h2 = poisson.stabilizer_subalgebra(p, model2, xi2)
    conj = [alg.adjoint_group_action(g, x) for x in h1]
    return la.span_equal(conj, h2)
