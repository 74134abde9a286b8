"""Linear models of reduced spaces.

The universal reduction of T*G along S sits over N = G x S.  In the left
trivialization Omega at p = (g, xi) depends on xi alone, so every check
here takes xi.  At p the kernel of the pulled-back symplectic form is
computed two ways and compared:

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
from .errors import DimensionMismatch, LiftNotValid
from .groupoid import omega_eval, omega_gram
from .lie import GroupElement, LieAlgebra
from .linalg import Vector


@dataclass(frozen=True)
class ReducedSpaceModel:
    xi: Vector
    n_tangent: tuple[Vector, ...]
    kernel: tuple[Vector, ...]
    quotient_dim: int
    reduced_form: tuple[Vector, ...]
    complement: tuple[Vector, ...]  # lifts of the quotient basis

    def nondegenerate(self) -> bool:
        return la.rank(self.reduced_form) == self.quotient_dim

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


def orbit_tangent_in_universal(alg: LieAlgebra, s_model, xi: Vector) -> list[Vector]:
    """{(-x, 0) : x in h_xi}; the stabilizer acts by right translations."""
    h, _ = poisson.stabilizer_subalgebra(poisson.kks_model(alg), s_model, xi)
    return [tuple(la.neg(x)) + la.zeros(alg.dim) for x in h]


def kernel_identity_check(alg: LieAlgebra, s_model, xi: Vector):
    """Two-route kernel computation at (e, xi); returns (agreement, ReducedSpaceModel)."""
    xi = tuple(xi)
    n = alg.dim
    tangent = s_model.tangent_basis(xi)
    n_basis = [tuple(la.unit(n, i)) + la.zeros(n) for i in range(n)]
    n_basis += [la.zeros(n) + tuple(t) for t in tangent]
    gram = omega_gram(alg, xi, n_basis)
    coeff_kernel = la.nullspace(gram)
    columns = la.transpose(n_basis)
    kernel = la.span_basis([la.mat_vec(columns, c) for c in coeff_kernel])
    orbit = orbit_tangent_in_universal(alg, s_model, xi)
    agree = la.span_equal(kernel, orbit)
    # Completing the kernel by members of n_basis is completing its
    # coefficient vectors by unit vectors.  The pivot column of each added
    # unit vector is its index into n_basis and into the Gram matrix.
    units = la.identity(len(n_basis))
    picked = la.rref(la.extend_to_basis(coeff_kernel, units))[1]
    model = ReducedSpaceModel(
        xi=xi,
        n_tangent=tuple(n_basis),
        kernel=tuple(kernel),
        quotient_dim=len(n_basis) - len(kernel),
        reduced_form=tuple(tuple(gram[a][b] for b in picked) for a in picked),
        complement=tuple(n_basis[a] for a in picked),
    )
    return agree, model


def reduced_form_well_defined(alg: LieAlgebra, model: ReducedSpaceModel) -> bool:
    """Omega(k, n) = 0 for every kernel vector k and every n in T_pN."""
    xi = model.xi
    for k in model.kernel:
        for v in model.n_tangent:
            if omega_eval(alg, xi, k, v) != 0:
                return False
    return True


def dimension_formula_check(alg: LieAlgebra, s_model, xi: Vector, model: ReducedSpaceModel) -> bool:
    """quotient_dim = dim g + dim S - rk L_S."""
    pm = poisson.kks_model(alg)
    fiber = poisson.algebroid_fiber(pm, s_model, xi)
    dim_s = len(s_model.tangent_basis(xi))
    return model.quotient_dim == alg.dim + dim_s - fiber.rank


def decomposition_form_check(alg: LieAlgebra, s_model, kernel: tuple[bool, ReducedSpaceModel], pairs) -> bool:
    """Quotient form versus -<u1,z2> + <u2,z1> - <x,[u1,u2]> on lifted pairs.

    `kernel` is what ``kernel_identity_check`` returned at the point; the
    check fails when its two routes disagreed.  Each tangent is a pair
    (u, z) with u in g a lift of [u] and z in the Killing-perp of
    m = [g_x, g_x]; the lift into T(G x D) is (u, z^flat).
    """
    agree, model = kernel
    if not agree:
        return False
    xi = model.xi
    x = alg.sharp(xi)
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

    With d psi written in, both sides reduce to
    -xi([x, u]) - xi([x, v]) - xi([y, u]) for every input, as long as
    Ad_g preserves the bracket and (Ad*_g xi)(Ad_g a) = xi(a).  A pass
    therefore certifies exactly that: Ad_g is a Lie algebra automorphism
    and Ad*_g is its dual, on the given pairs.
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
