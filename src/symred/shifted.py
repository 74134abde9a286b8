"""Two-term-complex criterion for Lagrangian structures on [S/H] -> [X/G].

For a candidate subalgebroid fiber L at a point (L ⊆ TS° with σ(L) ⊆ TS),
the map of complexes

        L --α--> T*X|_S ⊕ TS --β--> TX|_S
        |            |γ                |δ
        0 ---->     T*S     --ε-->     L*

has α(l) = (l, σ_L l), β(η, v) = σ(η) − v, γ(η, v) = η|_TS, δ(u) = ⟨·, u⟩,
ε(θ) = −θ(σ_L ·); the signs are chosen so that both squares commute
exactly.  The zero 2-form is a Lagrangian structure iff the induced maps

    φ : σ^{-1}(TS)/L → Ann_{T*S}(σ(L)),   ψ : TX|_S/(TS + σ(T*X|_S)) → L*/σ_L*(T*S)

are isomorphisms, which happens exactly when L = σ^{-1}(TS) ∩ TS°; the
kernel of φ is (σ^{-1}(TS) ∩ TS°)/L.

Each map is held as the tuple of its columns, the images of the unit
vectors of its domain, in the coordinates given by the ambient basis, the
basis of L and the basis of TS.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from . import linalg as la
from . import poisson
from .errors import CertificateFailed, NotACandidate
from .linalg import Matrix, Vector


@dataclass(frozen=True)
class TwoTermComplexMap:
    ambient_dim: int
    l_basis: tuple[Vector, ...]
    tangent: tuple[Vector, ...]
    sigma: Matrix
    alpha: tuple[Vector, ...]  # k columns in Q^(n + s)
    beta: tuple[Vector, ...]  # n + s columns in Q^n
    gamma: tuple[Vector, ...]  # n + s columns in Q^s
    delta: tuple[Vector, ...]  # n columns in Q^k
    epsilon: tuple[Vector, ...]  # s columns in Q^k

    def verify_commutation(self) -> bool:
        """γα = 0, βα = 0 and δβ = εγ, column by column."""
        k, n, s = len(self.l_basis), self.ambient_dim, len(self.tangent)
        b, g = la.columns(self.beta, n), la.columns(self.gamma, s)
        d, e = la.columns(self.delta, k), la.columns(self.epsilon, k)
        if not all(la.is_zero(la.mat_vec(g, a)) and la.is_zero(la.mat_vec(b, a)) for a in self.alpha):
            return False
        return all(la.mat_vec(d, bc) == la.mat_vec(e, gc) for bc, gc in zip(self.beta, self.gamma, strict=True))


@dataclass(frozen=True)
class LagrangianVerdict:
    phi_iso: bool
    psi_iso: bool
    ker_phi_dim: int

    @property
    def lagrangian(self) -> bool:
        return self.phi_iso and self.psi_iso


def build_complex(p: poisson.PoissonPointModel, s_model, xi: Vector, l_basis: Sequence[Vector]) -> TwoTermComplexMap:
    """Assemble the diagram at xi for the candidate L = span(l_basis), l_basis independent."""
    xi = tuple(xi)
    n = p.ambient_dim
    tangent = tuple(s_model.tangent_basis(xi))
    s = len(tangent)
    sigma = p.bivector_at(xi)
    l_basis = tuple(tuple(l) for l in l_basis)
    if la.rank(l_basis) != len(l_basis):
        raise NotACandidate("the basis of L must be linearly independent")
    tangent_rows = la.columns(tangent, n)
    anchors = []  # σ(l) in the tangent basis
    for l in l_basis:
        if any(la.dot(l, t) != 0 for t in tangent):
            raise NotACandidate("L must annihilate TS")
        # with TS = 0 the solve asks for σ(l) = 0
        sol = la.solve(tangent_rows, la.mat_vec(sigma, l))
        if sol is None:
            raise NotACandidate("sigma(L) must be tangent to S")
        anchors.append(sol)
    cmap = TwoTermComplexMap(
        n, l_basis, tangent, sigma,
        alpha=tuple(l + a for l, a in zip(l_basis, anchors)),
        beta=la.columns(sigma, n) + tuple(la.neg(t) for t in tangent),
        gamma=tangent_rows + (la.zeros(s),) * s,
        delta=la.columns(l_basis, n),
        epsilon=la.columns([la.neg(a) for a in anchors], s),
    )
    if not cmap.verify_commutation():
        raise CertificateFailed("the squares of the two-term-complex diagram do not commute")
    return cmap


def lagrangian_criterion(cmap: TwoTermComplexMap) -> LagrangianVerdict:
    """Decide whether φ and ψ are isomorphisms; exact at the point.

    φ and ψ exist because the squares commute (``build_complex`` certifies
    it), so each is read off ranks of the columns.
    """
    n, s, k = cmap.ambient_dim, len(cmap.tangent), len(cmap.l_basis)
    rank_beta, rank_eps = la.rank(cmap.beta), la.rank(cmap.epsilon)
    # φ: ker β / im α → ker ε through γ; its kernel is (ker β ∩ ker γ) / im α, and it
    # is onto when γ(ker β), of dimension dim ker β − dim(ker β ∩ ker γ), fills ker ε
    ker_both = la.annihilator(la.columns(cmap.beta, n) + la.columns(cmap.gamma, s), n + s)
    ker_phi_dim = la.rank([*ker_both, *cmap.alpha]) - la.rank(cmap.alpha)
    phi_onto = (n + s - rank_beta) - len(ker_both) == s - rank_eps
    # ψ: Q^n / im β → Q^k / im ε through δ; im β lies in δ⁻¹(im ε)
    rank_delta_eps = la.rank([*cmap.delta, *cmap.epsilon])
    psi_into = n - (rank_delta_eps - rank_eps) == rank_beta
    return LagrangianVerdict(
        phi_iso=ker_phi_dim == 0 and phi_onto,
        psi_iso=psi_into and rank_delta_eps == k,
        ker_phi_dim=ker_phi_dim,
    )


def criterion_for_candidate(p: poisson.PoissonPointModel, s_model, xi: Vector, l_basis: Sequence[Vector]) -> LagrangianVerdict:
    """Build the complex and decide the criterion in one step."""
    cmap = build_complex(p, s_model, xi, l_basis)
    verdict = lagrangian_criterion(cmap)
    fiber = poisson.algebroid_fiber(p, s_model, tuple(xi))
    expected_ker = fiber.rank - len(l_basis)
    if verdict.ker_phi_dim != expected_ker:
        raise CertificateFailed(
            f"dim ker φ = {verdict.ker_phi_dim}, but (σ^{{-1}}(TS) ∩ TS°)/L has dimension {expected_ker}"
        )
    if verdict.lagrangian != la.span_equal(list(l_basis), list(fiber.basis)):
        raise CertificateFailed("the criterion disagrees with L = σ^{-1}(TS) ∩ TS°")
    return verdict
