"""Linear models of reduced spaces.

The universal reduction of T*G along S sits over N = G x S; at a point
p = (g, xi) the kernel of the pulled-back symplectic form is computed two
ways and compared:

* as the radical of the Gram matrix of Omega on T_pN = g x T_xi S;
* as the tangent space {(-x, 0) : x in h_xi} of the stabilizer orbit.

The quotient T_pN / kernel carries the reduced form, checked nondegenerate
and against the dimension count dim g + dim S - rk L_S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg as la
from . import poisson
from .errors import DimensionMismatch, LiftNotValid, NotComposable, SplittingInvalid
from .groupoid import (
    CotangentPoint,
    normality_infinitesimal_check,
    omega_eval,
    omega_gram,
)
from .lie import GroupElement, LieAlgebra
from .linalg import Matrix, Vector


@dataclass(frozen=True)
class ReducedSpaceModel:
    base: CotangentPoint
    n_tangent: tuple[Vector, ...]
    kernel: tuple[Vector, ...]
    quotient_dim: int
    reduced_form: tuple[Vector, ...]
    complement: tuple[Vector, ...]  # lifts of the quotient basis

    def nondegenerate(self) -> bool:
        return la.rank(self.reduced_form) == self.quotient_dim

    def antisymmetric(self) -> bool:
        m = self.reduced_form
        return all(m[i][j] == -m[j][i] for i in range(len(m)) for j in range(len(m)))

    def push(self, v: Vector) -> Vector:
        """Coordinates of a tangent vector of N in the quotient basis."""
        if len(v) != len(self.n_tangent[0]):
            raise DimensionMismatch("vector has wrong dimension for T(G x S)")
        cols = list(self.kernel) + list(self.complement)
        sol = la.solve(la.transpose(cols), v)
        if sol is None:
            raise LiftNotValid("vector is not tangent to N")
        return tuple(sol[len(self.kernel):])

    def eval_reduced(self, v: Vector, w: Vector) -> Fraction:
        a, b = self.push(v), self.push(w)
        return la.dot(a, la.mat_vec(self.reduced_form, b))


def orbit_tangent_in_universal(alg: LieAlgebra, s_model, p: CotangentPoint) -> list[Vector]:
    """{(-x, 0) : x in h_xi}; the stabilizer acts by right translations."""
    h, _ = poisson.stabilizer_subalgebra(poisson.kks_model(alg), s_model, p.xi)
    return [tuple(la.neg(x)) + la.zeros(alg.dim) for x in h]


def kernel_identity_check(alg: LieAlgebra, s_model, p: CotangentPoint):
    """Two-route kernel computation; returns (agreement, ReducedSpaceModel)."""
    xi = tuple(p.xi)
    n = alg.dim
    tangent = s_model.tangent_basis(xi)
    n_basis = [tuple(la.unit(n, i)) + la.zeros(n) for i in range(n)]
    n_basis += [la.zeros(n) + tuple(t) for t in tangent]
    gram = omega_gram(alg, xi, n_basis)
    coeff_kernel = la.nullspace(gram)
    columns = la.transpose(n_basis)
    kernel = la.span_basis([la.mat_vec(columns, c) for c in coeff_kernel])
    orbit = orbit_tangent_in_universal(alg, s_model, p)
    agree = la.span_equal(kernel, orbit)
    # Completing the kernel by members of n_basis is completing its
    # coefficient vectors by unit vectors.  The pivot column of each added
    # unit vector is its index into n_basis and into the Gram matrix.
    units = la.identity(len(n_basis))
    picked = la.rref(la.extend_to_basis(coeff_kernel, units))[1]
    model = ReducedSpaceModel(
        base=p,
        n_tangent=tuple(n_basis),
        kernel=tuple(kernel),
        quotient_dim=len(n_basis) - len(kernel),
        reduced_form=tuple(tuple(gram[a][b] for b in picked) for a in picked),
        complement=tuple(n_basis[a] for a in picked),
    )
    return agree, model


def reduced_form_well_defined(alg: LieAlgebra, model: ReducedSpaceModel) -> bool:
    """Omega(k, n) = 0 for every kernel vector k and every n in T_pN."""
    xi = model.base.xi
    for k in model.kernel:
        for v in model.n_tangent:
            if omega_eval(alg, xi, k, v) != 0:
                return False
    return True


def dimension_formula_check(alg: LieAlgebra, s_model, p: CotangentPoint, model: ReducedSpaceModel) -> bool:
    """quotient_dim = dim g + dim S - rk L_S."""
    pm = poisson.kks_model(alg)
    fiber = poisson.algebroid_fiber(pm, s_model, p.xi)
    dim_s = len(s_model.tangent_basis(p.xi))
    return model.quotient_dim == alg.dim + dim_s - fiber.rank


def decomposition_form_check(alg: LieAlgebra, s_model, xi: Vector, pairs) -> bool:
    """Quotient form versus -<u1,z2> + <u2,z1> - <x,[u1,u2]> on lifted pairs.

    Each tangent is a pair (u, z) with u in g a lift of [u] and z in the
    Killing-perp of m = [g_x, g_x]; the lift into T(G x D) is (u, z^flat).
    """
    xi = tuple(xi)
    x = alg.sharp(xi)
    p = CotangentPoint(xi)
    agree, model = kernel_identity_check(alg, s_model, p)
    if not agree:
        return False
    pm = poisson.kks_model(alg)
    fiber = poisson.algebroid_fiber(pm, s_model, xi)
    m_basis = list(fiber.basis)  # = [g_x, g_x] for these classes
    for (u1, z1), (u2, z2) in pairs:
        for z in (z1, z2):
            if any(alg.killing_form(z, mb) != 0 for mb in m_basis):
                raise LiftNotValid("second component must be Killing-orthogonal to m")
        v1 = tuple(u1) + tuple(alg.flat(z1))
        v2 = tuple(u2) + tuple(alg.flat(z2))
        lhs = model.eval_reduced(v1, v2)
        rhs = (
            -alg.killing_form(u1, z2)
            + alg.killing_form(u2, z1)
            - alg.killing_form(x, alg.bracket(u1, u2))
        )
        if lhs != rhs:
            return False
    return True


def orbit_product_symplecto_check(alg: LieAlgebra, g: GroupElement, xi: Vector, pairs) -> bool:
    """psi*(beta, -beta) = i*Omega on tangent pairs ((x, ad*_y xi) style).

    Pairs are ((x, y), (u, v)) of Lie algebra elements; the pushforward is
    d psi(x, ad*_y xi) = (ad*_{Ad_g(x+y)} Ad*_g xi, ad*_y xi) and beta is
    the orbit form beta(ad*_a eta, ad*_b eta) = -eta([a, b]).
    """
    xi = tuple(xi)
    eta = alg.coadjoint_group_action(g, xi)
    for (x, y), (u, v) in pairs:
        w1 = alg.adjoint_group_action(g, la.add(x, y))
        w2 = alg.adjoint_group_action(g, la.add(u, v))
        lhs = -la.dot(eta, alg.bracket(w1, w2)) + la.dot(xi, alg.bracket(y, v))
        v1 = tuple(x) + alg.ad_star(y, xi)
        v2 = tuple(u) + alg.ad_star(v, xi)
        rhs = omega_eval(alg, xi, v1, v2)
        if lhs != rhs:
            return False
    return True


@dataclass(frozen=True)
class SplittingData:
    """Ambient symplectic form and a subspace E with ambient = E ⊕ E^omega."""

    omega: Matrix
    e_basis: tuple[Vector, ...]

    def __post_init__(self):
        q = self.omega
        dim = len(q)
        rows = [la.mat_vec(q, v) for v in self.e_basis]
        e_perp = la.annihilator(rows, dim)
        if la.intersect_spans(self.e_basis, e_perp):
            raise SplittingInvalid("E meets its omega-orthogonal")
        if la.rank(list(self.e_basis) + e_perp) != dim:
            raise SplittingInvalid("E + E^omega is not the whole space")
        object.__setattr__(self, "_e_perp", tuple(e_perp))

    def project_onto_e(self, v: Vector) -> Vector:
        if len(v) != len(self.omega):
            raise DimensionMismatch("vector has wrong dimension for the ambient space")
        cols = list(self.e_basis) + list(self._e_perp)
        sol = la.solve(la.transpose(cols), v)
        out = la.zeros(len(v))
        for c, b in zip(sol[: len(self.e_basis)], self.e_basis):
            out = la.add(out, la.scale(c, b))
        return out


def theta_bracket(split: SplittingData, df: Vector, dg: Vector) -> Fraction:
    """omega(theta(X_F), theta(X_G)) with X solved from omega(X, .) = dF."""
    q = split.omega
    qt_inv = la.inverse(la.transpose(q))
    xf = la.mat_vec(qt_inv, df)
    xg = la.mat_vec(qt_inv, dg)
    txf = split.project_onto_e(xf)
    txg = split.project_onto_e(xg)
    return la.dot(txf, la.mat_vec(q, txg))


def plain_bracket(omega: Matrix, df: Vector, dg: Vector) -> Fraction:
    qt_inv = la.inverse(la.transpose(omega))
    xf = la.mat_vec(qt_inv, df)
    xg = la.mat_vec(qt_inv, dg)
    return la.dot(xf, la.mat_vec(omega, xg))


def invariant_reduction_groupoid_check(alg: LieAlgebra, s_model, samples) -> bool:
    """Groupoid axioms for s[(g,xi)] = Ad*_g xi, t[(g,xi)] = xi.

    `samples` is a list of composable chains [(g1, xi1), ..., (gk, xik)]
    with xi_j = Ad*_{g_{j+1}} xi_{j+1}; verifies source/target behaviour of
    products, associativity on triples, the identity bisection law, and
    infinitesimal normality at every sample point.
    """

    def source(g, xi):
        return alg.coadjoint_group_action(g, xi)

    def compose(a, b):
        (g1, xi1), (g2, xi2) = a, b
        if tuple(xi1) != tuple(source(g2, xi2)):
            raise NotComposable("target of the first factor must equal source of the second")
        return (g1 * g2, xi2)

    for chain in samples:
        for g, xi in chain:
            if not s_model.contains(tuple(xi)):
                return False
        for a, b in zip(chain, chain[1:]):
            m = compose(a, b)
            if tuple(source(*m)) != tuple(source(*a)):
                return False
            if tuple(m[1]) != tuple(b[1]):
                return False
            # identity bisection: (1, xi) acts trivially on both sides
            ident = (alg.identity_element(), m[1])
            if compose(m, ident)[1] != m[1]:
                return False
        for a, b, c in zip(chain, chain[1:], chain[2:]):
            left = compose(compose(a, b), c)
            right = compose(a, compose(b, c))
            if left[1] != right[1] or left[0].matrix != right[0].matrix:
                return False
        for g, xi in chain:
            if not normality_infinitesimal_check(alg, s_model, g, tuple(xi)):
                return False
    return True
