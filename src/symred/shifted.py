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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

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
    alpha: Matrix  # k -> n + s
    beta: Matrix  # n + s -> n
    gamma: Matrix  # n + s -> s
    delta: Matrix  # n -> k
    epsilon: Matrix  # s -> k

    def verify_commutation(self) -> bool:
        k = len(self.l_basis)
        n = self.ambient_dim
        s = len(self.tangent)
        for i in range(k):
            a = la.mat_vec(self.alpha, la.unit(k, i))
            if s and not la.is_zero(la.mat_vec(self.gamma, a)):
                return False
            if not la.is_zero(la.mat_vec(self.beta, a)):
                return False
        for i in range(n + s):
            u = la.unit(n + s, i)
            left = la.mat_vec(self.delta, la.mat_vec(self.beta, u))
            if s:
                right = la.mat_vec(self.epsilon, la.mat_vec(self.gamma, u))
            else:
                right = la.zeros(k)
            if tuple(left) != tuple(right):
                return False
        return True


@dataclass(frozen=True)
class LagrangianVerdict:
    phi_iso: bool
    psi_iso: bool
    ker_phi_dim: int

    @property
    def lagrangian(self) -> bool:
        return self.phi_iso and self.psi_iso


def _columns_matrix(cols: Sequence[Vector], nrows: int) -> Matrix:
    if not cols:
        return tuple(() for _ in range(nrows))
    return la.transpose(cols)


def build_complex(p: poisson.PoissonPointModel, s_model, xi: Vector, l_basis: Sequence[Vector]) -> TwoTermComplexMap:
    """Assemble the diagram at xi for the candidate L = span(l_basis)."""
    xi = tuple(xi)
    n = p.ambient_dim
    tangent = s_model.tangent_basis(xi)
    s = len(tangent)
    k = len(l_basis)
    sigma = p.bivector_at(xi)
    ann = la.annihilator(tangent, n)
    for l in l_basis:
        if any(la.dot(l, t) != 0 for t in tangent):
            raise NotACandidate("L must annihilate TS")
        img = la.mat_vec(sigma, l)
        if any(la.dot(w, img) != 0 for w in ann):
            raise NotACandidate("sigma(L) must be tangent to S")
    # anchor coordinates: sigma(l) in the tangent basis
    anchor_coords = []
    for l in l_basis:
        img = la.mat_vec(sigma, l)
        sol = la.solve(la.transpose(tangent), img) if tangent else ()
        if sol is None:
            raise NotACandidate("sigma(L) must be tangent to S")
        anchor_coords.append(tuple(sol))
    alpha_cols = [tuple(l) + anchor_coords[i] for i, l in enumerate(l_basis)]
    alpha = _columns_matrix(alpha_cols, n + s)
    beta_cols = [la.mat_vec(sigma, la.unit(n, i)) for i in range(n)]
    beta_cols += [la.neg(t) for t in tangent]
    beta = _columns_matrix(beta_cols, n)
    gamma_cols = [tuple(la.dot(la.unit(n, i), t) for t in tangent) for i in range(n)]
    gamma_cols += [la.zeros(s) for _ in range(s)]
    gamma = _columns_matrix(gamma_cols, s)
    delta_cols = [tuple(la.dot(l, la.unit(n, j)) for l in l_basis) for j in range(n)]
    delta = _columns_matrix(delta_cols, k)
    epsilon_cols = [
        tuple(-anchor_coords[i][j] for i in range(k)) for j in range(s)
    ]
    epsilon = _columns_matrix(epsilon_cols, k)
    cmap = TwoTermComplexMap(
        n, tuple(tuple(l) for l in l_basis), tuple(tangent), sigma,
        alpha, beta, gamma, delta, epsilon,
    )
    if not cmap.verify_commutation():
        raise CertificateFailed("the squares of the two-term-complex diagram do not commute")
    return cmap


def _quotient_map_props(m: Matrix, dom_dim: int, dom_sub: Sequence[Vector], cod_dim: int, cod_sub: Sequence[Vector]):
    """(injective, surjective, ker_dim) of the induced map Q^a/B -> Q^b/D."""
    # preimage of span(D): {v : ann(D)·(M v) = 0}
    ann_d = la.annihilator(cod_sub, cod_dim)
    rows = [la.mat_vec(la.transpose(m), w) for w in ann_d]
    preimage = la.annihilator(rows, dom_dim)
    injective = la.span_contains(list(dom_sub), preimage)
    ker_dim = la.rank(list(preimage) + list(dom_sub)) - la.rank(dom_sub)
    image = [la.mat_vec(m, la.unit(dom_dim, i)) for i in range(dom_dim)]
    surjective = la.rank(image + list(cod_sub)) == cod_dim
    return injective, surjective, ker_dim


def lagrangian_criterion(cmap: TwoTermComplexMap) -> LagrangianVerdict:
    """Decide whether φ and ψ are isomorphisms; exact at the point."""
    n = cmap.ambient_dim
    s = len(cmap.tangent)
    k = len(cmap.l_basis)
    # middle cohomology upstairs: ker beta / im alpha
    ker_beta = la.annihilator(cmap.beta, n + s)
    im_alpha = [la.mat_vec(cmap.alpha, la.unit(k, i)) for i in range(k)] if k else []
    # phi: induced by gamma into ker epsilon ⊆ T*S
    ker_eps = la.annihilator(cmap.epsilon, s)
    gamma_imgs = [la.mat_vec(cmap.gamma, v) for v in ker_beta]
    # phi on the quotient ker_beta / im_alpha: injective iff
    # ker(gamma)∩ker(beta) ⊆ im(alpha); image is gamma(ker beta) ⊆ ker eps
    ker_gamma_in = la.kernel_within(gamma_imgs, ker_beta)
    phi_inj = la.span_contains(im_alpha, ker_gamma_in)
    phi_surj = la.rank(gamma_imgs) == la.rank(ker_eps)
    ker_phi_dim = la.rank(list(ker_gamma_in) + list(im_alpha)) - la.rank(im_alpha)
    # psi: TX|_S / im beta -> L* / im epsilon, induced by delta
    im_beta = la.span_basis([la.mat_vec(cmap.beta, la.unit(n + s, i)) for i in range(n + s)])
    im_eps = la.span_basis([la.mat_vec(cmap.epsilon, la.unit(s, j)) for j in range(s)]) if s else []
    psi_inj, psi_surj, _ = _quotient_map_props(cmap.delta, n, im_beta, k, im_eps)
    return LagrangianVerdict(
        phi_iso=phi_inj and phi_surj,
        psi_iso=psi_inj and psi_surj,
        ker_phi_dim=ker_phi_dim,
    )


def criterion_for_candidate(p: poisson.PoissonPointModel, s_model, xi: Vector, l_basis: Sequence[Vector]) -> LagrangianVerdict:
    """Build the complex and decide the criterion in one step."""
    cmap = build_complex(p, s_model, xi, l_basis)
    verdict = lagrangian_criterion(cmap)
    fiber = poisson.algebroid_fiber(p, s_model, tuple(xi))
    expected_ker = fiber.rank - la.rank(l_basis)
    if verdict.ker_phi_dim != expected_ker:
        raise CertificateFailed(
            f"dim ker φ = {verdict.ker_phi_dim}, but (σ^{{-1}}(TS) ∩ TS°)/L has dimension {expected_ker}"
        )
    if verdict.lagrangian != la.span_equal(list(l_basis), list(fiber.basis)):
        raise CertificateFailed("the criterion disagrees with L = σ^{-1}(TS) ∩ TS°")
    return verdict
