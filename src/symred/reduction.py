"""Linear models of reduced spaces.

The universal reduction of T*G along S sits over N = G x S.  In the left
trivialization Omega at p = (g, xi) depends on xi alone, so every check
here takes xi.  At p the kernel of the pulled-back symplectic form is
assembled two ways and compared:

* as the radical of the Gram matrix of Omega on T_pN = g x T_xi S;
* as the tangent space {(-x, 0) : x in h_xi} of the stabilizer orbit.

Both solve one system off one C: the Gram matrix [[-C, -T], [T^T, 0]], T
the tangent basis as columns, is ``algebroid_fiber``'s with the multiplier
columns negated.  The C-free check is ``reduced_form_well_defined``.

The quotient T_pN / kernel carries the reduced form, checked against the
dimension count dim g + dim S - rk L_S.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import linalg as la
from . import poisson
from .errors import DimensionMismatch, LiftNotValid
from .groupoid import omega_eval, omega_gram
from .lie import LieAlgebra
from .linalg import Vector


@dataclass(frozen=True)
class ReducedSpaceModel:
    xi: Vector
    n_tangent: tuple[Vector, ...]
    kernel: tuple[Vector, ...]
    quotient_dim: int
    reduced_form: tuple[Vector, ...]
    complement: tuple[Vector, ...]  # lifts of the quotient basis

    @cached_property
    def _chart(self) -> tuple[list[int], list[int], list[Vector]]:
        """(R, F, Mᵀ[F] over Eᵀ) off one rref [M | E] of the rows [b_j | e_j], b = kernel + complement, R its
        pivots: v = sum x_j b_j exactly when v[F] = Mᵀ[F] v[R] off R, and then x = Eᵀ v[R]."""
        basis = self.kernel + self.complement
        n = len(basis[0])
        m, pivots = la.rref([b + la.unit(len(basis), j) for j, b in enumerate(basis)])
        free = [c for c in range(n) if c not in pivots]
        t = la.transpose(m)
        return pivots, free, [t[c] for c in free] + list(t[n + len(self.kernel):])

    def push(self, v: Vector) -> Vector:
        """Coordinates of a tangent vector of N in the quotient basis.

        One ``mat_vec`` of the stacked chart on v[R] gives both Mᵀ[F] v[R],
        which must equal v[F] (else ``LiftNotValid``), and the coordinates
        Eᵀ v[R].
        """
        if len(v) != len(self.n_tangent[0]):
            raise DimensionMismatch("vector has wrong dimension for T(G x S)")
        pivots, free, stacked = self._chart
        image = la.mat_vec(stacked, tuple(v[p] for p in pivots))
        if image[: len(free)] != tuple(v[c] for c in free):
            raise LiftNotValid("vector is not tangent to N")
        return image[len(free):]

    def eval_reduced(self, v: Vector, w: Vector) -> Fraction:
        a, b = self.push(v), self.push(w)
        return la.dot(a, la.mat_vec(self.reduced_form, b))


def orbit_tangent_in_universal(alg: LieAlgebra, s_model, xi: Vector) -> list[Vector]:
    """Span of {(-x, 0) : x in h_xi}, as the stabilizer acts by right translations.

    Returned as {(x, 0)} over the canonical basis of h_xi: the same span,
    and already a canonical basis, so ``span_equal`` needs no elimination.
    """
    h = poisson.stabilizer_subalgebra(poisson.kks_model(alg), s_model, xi)
    return [tuple(x) + la.zeros(alg.dim) for x in h]


def kernel_identity_check(alg: LieAlgebra, s_model, xi: Vector):
    """Two-route kernel computation at (e, xi); returns (agreement, ReducedSpaceModel)."""
    xi = tuple(xi)
    n = alg.dim
    tangent = s_model.tangent_basis(xi)
    n_basis = [tuple(la.unit(n, i)) + la.zeros(n) for i in range(n)]
    n_basis += [la.zeros(n) + tuple(t) for t in tangent]
    gram = omega_gram(alg, xi, n_basis)
    coeff_kernel = la.nullspace(gram, len(n_basis))
    # n_basis opens with the unit vectors of g, so sum_a c_a n_a = (c[:n], sum_b c[n + b] t_b)
    columns = la.columns(tangent, n)
    kernel = la.span_basis([c[:n] + la.mat_vec(columns, c[n:]) for c in coeff_kernel])
    orbit = orbit_tangent_in_universal(alg, s_model, xi)
    agree = la.span_equal(kernel, orbit)
    # Completing the kernel by members of n_basis is completing its
    # coefficient vectors by unit vectors, returned in increasing order.  The
    # position of each one's 1 is its index into n_basis and the Gram matrix.
    picked = [u.index(1) for u in la.extend_to_basis(coeff_kernel, la.identity(len(n_basis)))]
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


def decomposition_form_check(alg: LieAlgebra, kernel: tuple[bool, ReducedSpaceModel], pairs) -> bool:
    """Quotient form versus -<u1,z2> + <u2,z1> - <x,[u1,u2]> on lifted pairs.

    `kernel` is what ``kernel_identity_check`` returned at the point; the
    check fails when its two routes disagreed.  Each tangent is a pair
    (u, z) with u in g a lift of [u] and z in the Killing-perp of
    m = [g_x, g_x]; the lift into T(G x D) is (u, z^flat).  m lies in
    (T_x D)°, so a z not orthogonal to m gives a z^flat off T_x D, and
    ``ReducedSpaceModel.push`` refuses that lift with ``LiftNotValid``.
    With x = xi^sharp and K symmetric, the formula is ``omega_eval`` on the
    two lifts.
    """
    agree, model = kernel
    if not agree:
        return False
    xi = model.xi
    for (u1, z1), (u2, z2) in pairs:
        lift1, lift2 = tuple(u1) + tuple(alg.flat(z1)), tuple(u2) + tuple(alg.flat(z2))
        if model.eval_reduced(lift1, lift2) != omega_eval(alg, xi, lift1, lift2):
            return False
    return True
