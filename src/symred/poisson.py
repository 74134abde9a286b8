"""Pointwise Poisson linear algebra on g* and constant-bivector spaces.

A :class:`PoissonPointModel` evaluates the bivector sigma_xi : T*X -> TX as
an exact matrix at a rational base point; submanifold models supply an
exact basis of their tangent space at each declared sample point.  The
stabilizer fiber at xi is

    L_xi = { eta in T*X : eta in (T_xi S)°  and  sigma_xi(eta) in T_xi S },

which for the Lie-Poisson structure on g* reads
{ x in g : x in (T_xi S)°, ad*_x xi in T_xi S }.

Every affine S is an :class:`AffineSubspace`, base + span(directions): a
point {xi} (Marsden-Weinstein), the Slodowy slice e + g_f
(:func:`slodowy_slice`), its diagonal in (g*)^n (:func:`diagonal`) and the
chamber faces (:class:`WeylChamberFace`, which adds open conditions).  The
other models are coadjoint orbits, decomposition classes, Casimir level
sets and caller-supplied tangents (:class:`Explicit`).

Constant-rank, stability, Poisson-transversality and coisotropy checks are
finite-sample witnesses: exact at every queried point, silent about the
rest of the submanifold.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

from . import linalg as la
from .errors import CertificateFailed, DimensionMismatch, NotOnModel, NotStable
from .lie import GroupElement, LieAlgebra, Sl2Triple
from .linalg import Matrix, Vector


@dataclass(frozen=True)
class PoissonPointModel:
    """Bivector evaluation on a fixed-dimensional space: Lie-Poisson on g* when `algebra` is set, else the constant `sigma`."""

    ambient_dim: int
    algebra: LieAlgebra | None = None
    sigma: Matrix | None = None

    def bivector_at(self, xi: Vector) -> Matrix:
        """Matrix B with (sigma_xi eta)_j = sum_i B[j][i] eta_i."""
        if len(xi) != self.ambient_dim:
            raise DimensionMismatch("point has wrong dimension")
        if self.algebra is None:
            return self.sigma
        # B[j][i] = xi([e_i, e_j]): the transpose of the coadjoint matrix
        return la.transpose(self.algebra.coadjoint_matrix(xi))


def kks_model(algebra: LieAlgebra) -> PoissonPointModel:
    """Lie-Poisson structure on g*: sigma_xi(x) = -ad*_x xi."""
    return PoissonPointModel(algebra.dim, algebra=algebra)


def _skew(form: Matrix, name: str) -> Matrix:
    """`form` as a matrix of Fractions: ``DimensionMismatch`` unless it is square, ``CertificateFailed`` unless it is skew."""
    q = la.mat(form)
    if any(len(row) != len(q) for row in q):
        raise DimensionMismatch(f"{name} must be square, got row lengths {[len(row) for row in q]}")
    for i, row in enumerate(q):
        if row[i] or any(row[j] != -q[j][i] for j in range(i + 1, len(q))):
            raise CertificateFailed(f"{name} is not skew: row {i} is not minus column {i}")
    return q


def constant_model(sigma: Matrix) -> PoissonPointModel:
    """The constant bivector sigma, which must be a square skew matrix."""
    q = _skew(sigma, "sigma")
    return PoissonPointModel(len(q), sigma=q)


def symplectic_model(omega: Matrix) -> PoissonPointModel:
    """Constant model with sigma inverse to v -> omega(v, .), for a square, skew, nondegenerate omega.

    The inverse of a skew matrix is skew, so sigma needs no second check.
    """
    q = _skew(omega, "omega")
    try:
        sigma = la.inverse(la.transpose(q))
    except ZeroDivisionError:
        raise DimensionMismatch("omega must be nondegenerate") from None
    return PoissonPointModel(len(q), sigma=sigma)


def trivial_model(dim: int) -> PoissonPointModel:
    return constant_model((la.zeros(dim),) * dim)


# -- submanifold models ------------------------------------------------------


class SubmanifoldModel:
    """A submanifold kind plus exact tangent bases at rational points.

    Construction certifies every declared sample point.  T_xi S and the
    stabilizer fiber are derived once per point (and Poisson model) and kept,
    so a model must not be mutated afterwards.  Subclasses supply the
    membership test `_contains` and `_tangent`, both given a tuple of length
    `ambient_dim`; a point of any other length raises ``DimensionMismatch``.
    `_tangent` returns a basis of T_xi S, independent vectors: the fiber's
    multipliers are coordinates in it.
    """

    kind = "abstract"

    def __init__(self, ambient_dim: int, sample_points: Sequence[Vector]):
        self.ambient_dim = ambient_dim
        self.sample_points = tuple(tuple(p) for p in sample_points)
        self._tangents: dict[Vector, tuple[Vector, ...]] = {}
        self._fibers: dict[tuple[PoissonPointModel, Vector], AlgebroidFiber] = {}
        for p in self.sample_points:
            self.tangent_basis(p)

    def contains(self, xi: Vector) -> bool:
        xi = self._point(xi)
        return xi in self._tangents or self._contains(xi)

    def tangent_basis(self, xi: Vector) -> list[Vector]:
        xi = self._point(xi)
        basis = self._tangents.get(xi)
        if basis is None:
            if not self._contains(xi):
                raise NotOnModel(f"point not on {self.kind} model")
            basis = self._tangents[xi] = tuple(self._tangent(xi))
        return list(basis)

    def _point(self, xi: Vector) -> Vector:
        xi = tuple(xi)
        if len(xi) != self.ambient_dim:
            raise DimensionMismatch(f"{self.kind} model takes points of length {self.ambient_dim}, not {len(xi)}")
        return xi

    def _contains(self, xi: Vector) -> bool:
        raise NotImplementedError

    def _tangent(self, xi: Vector) -> list[Vector]:
        raise NotImplementedError


class AffineSubspace(SubmanifoldModel):
    """base + span(directions), the one affine model; a point {xi} is ``AffineSubspace(xi, [])``.

    With ``sample_points`` None the base is the one sample point; an empty list gives none.
    """

    kind = "affine"

    def __init__(self, base: Vector, directions: Sequence[Vector], sample_points=None):
        self.base = tuple(base)
        for k, d in enumerate(directions):
            if len(d) != len(self.base):
                raise DimensionMismatch(f"direction {k} has length {len(d)}, not the base's {len(self.base)}")
        self.directions = la.span_basis(directions)
        super().__init__(len(base), [self.base] if sample_points is None else sample_points)

    def _contains(self, xi):
        # the directions are a basis, so one elimination decides membership
        return la.rank([*self.directions, la.sub(xi, self.base)]) == len(self.directions)

    def _tangent(self, xi):
        return list(self.directions)


def slodowy_slice(algebra: LieAlgebra, triple: Sl2Triple, parameters: Sequence[Sequence]) -> AffineSubspace:
    """e + g_f inside g ≅ g* via the Killing form: e^flat + span (g_f)^flat.

    Sample point k is (e + sum_i parameters[k][i] b_i)^flat over the
    canonical basis b of g_f; with no parameters the model has no sample points.
    """
    gf = la.span_basis(algebra.centralizer(triple.f))
    columns = la.transpose(gf)
    pts = []
    for k, params in enumerate(parameters):
        if len(params) != len(gf):
            raise DimensionMismatch(f"parameter row {k} has length {len(params)}, not dim g_f = {len(gf)}")
        pts.append(algebra.flat(la.add(triple.e, la.mat_vec(columns, la.vec(params)))))
    return AffineSubspace(algebra.flat(triple.e), [algebra.flat(b) for b in gf], pts)


def diagonal(s: AffineSubspace, n: int) -> AffineSubspace:
    """The diagonal copy of `s` in the n-th power of its ambient space, as in (g*)^n."""
    return AffineSubspace(s.base * n, [d * n for d in s.directions], [p * n for p in s.sample_points])


class CoadjointOrbit(SubmanifoldModel):
    """Orbit of a seed under Ad*, with witnessed sample points."""

    kind = "coadjoint-orbit"

    def __init__(self, algebra: LieAlgebra, seed: Vector, witnesses: Sequence[GroupElement] = ()):
        self.algebra = algebra
        self.seed = tuple(seed)
        pts = [self.seed]
        self.witness_of = {self.seed: algebra.identity_element()}
        for g in witnesses:
            p = algebra.coadjoint_group_action(g, self.seed)
            if p not in self.witness_of:
                self.witness_of[p] = g
                pts.append(p)
        super().__init__(algebra.dim, pts)

    def with_witness(self, g: GroupElement) -> "CoadjointOrbit":
        new = [self.witness_of[p] for p in self.sample_points if p != self.seed]
        return CoadjointOrbit(self.algebra, self.seed, new + [g])

    def _contains(self, xi):
        return xi in self.witness_of

    def _tangent(self, xi):
        # ad*_{e_i} xi is minus row i of the coadjoint matrix
        return la.span_basis(self.algebra.coadjoint_matrix(xi))


class DecompositionClass(SubmanifoldModel):
    """Semisimple decomposition class in g ≅ g*, fixed centralizer dimension."""

    kind = "decomposition-class"

    def __init__(self, algebra: LieAlgebra, centralizer_dim: int, sample_vecs: Sequence[Vector]):
        self.algebra = algebra
        self.centralizer_dim = centralizer_dim
        self._ad: dict[Vector, tuple[Matrix, list[Vector]]] = {}  # xi -> (ad_x, g_x)
        pts = [algebra.flat(x) for x in sample_vecs]
        super().__init__(algebra.dim, pts)

    def _contains(self, xi):
        # one elimination of ad_x gives g_x, kept for _tangent, and rank(ad_x) =
        # dim g - dim g_x; ad_x is semisimple iff rank(ad_x) = rank(ad_x²)
        ad = self.algebra.ad_matrix(self.algebra.sharp(xi))
        gx = la.nullspace(ad)
        self._ad[xi] = (ad, gx)
        return len(gx) == self.centralizer_dim and self.algebra.dim - len(gx) == la.rank(la.mat_mul(ad, ad))

    def _tangent(self, xi):
        # T_x D = z(g_x) + [g, x], pushed to covectors by the Killing form
        alg = self.algebra
        ad, gx = self._ad[xi]
        # z(g_x): the y in g_x with [y, b] = 0 for every b in g_x
        center = la.kernel_within([tuple(c for b in gx for c in alg.bracket(y, b)) for y in gx], gx)
        # [g, x] is spanned by the columns of ad_x
        gens = [alg.flat(v) for v in center] + [alg.flat(v) for v in la.transpose(ad)]
        return la.span_basis(gens)


class CasimirLevelSet(SubmanifoldModel):
    """{ xi : kappa*(xi, xi) = c } for rational c != 0."""

    kind = "casimir-level-set"

    def __init__(self, algebra: LieAlgebra, level, sample_points: Sequence[Vector]):
        self.algebra = algebra
        self.level = la.frac(level)
        if self.level == 0:
            raise NotOnModel("level must be nonzero")
        super().__init__(algebra.dim, sample_points)

    def _contains(self, xi):
        return la.dot(xi, self.algebra.sharp(xi)) == self.level

    def _tangent(self, xi):
        # T_xi S = { eta : eta(xi^sharp) = 0 }
        return la.nullspace([self.algebra.sharp(xi)])


class WeylChamberFace(AffineSubspace):
    """Face of the fundamental chamber in t* ⊆ g*, cut out by simple coroots.

    The linear subspace along the simple-coroot units outside `subset`, on
    which a point annihilates the simple coroots in `subset`; it lies on the
    face when it is positive on the remaining ones and a positive root pairs
    to zero only if it stays in <subset>.
    """

    kind = "weyl-chamber-face"

    def __init__(self, algebra: LieAlgebra, subset: Sequence[int], sample_points: Sequence[Vector]):
        self.algebra = algebra
        self.subset = frozenset(subset)
        if not self.subset <= set(range(algebra.rank)):
            raise DimensionMismatch(f"simple root indices {sorted(self.subset)} are not all in 0..{algebra.rank - 1}")
        units = [la.unit(algebra.dim, i) for i in range(algebra.rank) if i not in self.subset]
        super().__init__(la.zeros(algebra.dim), units, sample_points)

    def _psi(self, xi: Vector) -> list:
        """Psi, the positive roots beta with beta(y) = 0, y having coordinates xi on the simple coroots."""
        rs = self.algebra.root_data
        return [beta for beta in rs.positive if sum(c * x for c, x in zip(rs.coroot_coeffs(beta), xi)) == 0]

    def _contains(self, xi):
        rs = self.algebra.root_data
        outside = [i for i in range(rs.rank) if i not in self.subset]
        if not super()._contains(xi) or any(xi[i] <= 0 for i in outside):
            return False
        # exactness: a positive root pairs to zero iff it stays in <subset>
        return self._psi(xi) == [beta for beta in rs.positive if not any(beta[i] for i in outside)]

    def root_subsystem_algebra(self, xi: Vector) -> list[Vector]:
        """g_Psi = span(coroots of Psi) + root spaces of Psi, each coroot being [e_beta, e_-beta]."""
        alg = self.algebra
        gens = []
        for beta in self._psi(tuple(xi)):
            e, f = alg.root_vector(beta), alg.root_vector(tuple(-b for b in beta))
            gens += [alg.bracket(e, f), e, f]
        return la.span_basis(gens)


class Explicit(SubmanifoldModel):
    """Caller-supplied tangent constructor; membership is trusted.

    The caller's vectors need only span T_xi S: ``tangent_basis`` returns
    their canonical basis, so a repeated or dependent vector is dropped.
    """

    kind = "explicit"

    def __init__(self, ambient_dim: int, tangent_fn: Callable[[Vector], Sequence[Vector]], sample_points: Sequence[Vector]):
        self.tangent_fn = tangent_fn
        super().__init__(ambient_dim, sample_points)

    def _contains(self, xi):
        return True

    def _tangent(self, xi):
        # a basis, as every model's tangent is: algebroid_fiber reads its multipliers off it
        return la.span_basis([tuple(v) for v in self.tangent_fn(xi)])


# -- fibers and checks -------------------------------------------------------


@dataclass(frozen=True)
class AlgebroidFiber:
    """Exact basis of the stabilizer fiber at a point."""

    basis: tuple[Vector, ...]
    contained_in_centralizer: bool

    @property
    def rank(self) -> int:
        return len(self.basis)


def algebroid_fiber(p: PoissonPointModel, s: SubmanifoldModel, xi: Vector) -> AlgebroidFiber:
    """L_xi as the eta-parts of one nullspace in the unknowns (eta, c) in Q^(n+s).

    With t_1 .. t_s the basis of T_xi S, the rows are [sigma_xi[j] | t_1[j] .. t_s[j]]
    for j < n and [t_b | 0]: a solution has eta in (T_xi S)° and
    sigma_xi(eta) = -sum_b c_b t_b in T_xi S.  The t_b are independent, so
    eta = 0 forces c = 0, and the eta-parts of the nullspace basis are a
    basis of L_xi.  The multipliers c give sigma_xi on L_xi in that basis:
    L_xi ⊆ ker sigma_xi exactly when every c-part is zero.
    """
    xi = tuple(xi)
    # keyed by the model's value: every kks_model(alg) of one algebra hits
    fiber = s._fibers.get((p, xi))
    if fiber is None:
        n = p.ambient_dim
        tangent = s.tangent_basis(xi)
        rows = [row + col for row, col in zip(p.bivector_at(xi), la.columns(tangent, n), strict=True)]
        rows += [tuple(t) + la.zeros(len(tangent)) for t in tangent]
        solutions = la.nullspace(rows)
        in_ker = all(la.is_zero(v[n:]) for v in solutions)
        fiber = s._fibers[(p, xi)] = AlgebroidFiber(tuple(v[:n] for v in solutions), in_ker)
    return fiber


def pre_poisson_sample_check(p: PoissonPointModel, s: SubmanifoldModel) -> dict:
    """Fiber rank at every sample point; a finite-sample witness only."""
    ranks = [algebroid_fiber(p, s, xi).rank for xi in s.sample_points]
    return {"constant_rank": len(set(ranks)) == 1, "ranks": ranks}


def stabilizer_subalgebra(p: PoissonPointModel, s: SubmanifoldModel, xi: Vector) -> list[Vector]:
    """h_xi = (T_xi S)° ∩ g_xi.

    Read from the stable fiber: once L_xi ⊆ ker sigma_xi, L_xi ⊆ (T_xi S)° ∩
    g_xi = h_xi ⊆ L_xi, so h_xi is L_xi in its canonical basis.  It never
    reads a Gram matrix of Omega, so it stays the orbit route of
    ``reduction.kernel_identity_check``.
    """
    if p.algebra is None:
        raise NotStable("stabilizer subalgebras live on g* models")
    xi = tuple(xi)
    fiber = algebroid_fiber(p, s, xi)
    if not fiber.contained_in_centralizer:
        raise NotStable("model is not stable at this point")
    return la.span_basis(fiber.basis)


def poisson_transversal_check(p: PoissonPointModel, s: SubmanifoldModel, xi: Vector) -> bool:
    """T_xi S ⊕ sigma((T_xi S)°) is the ambient space.

    dim sigma((T S)°) <= dim (T S)° = n - dim T S, so T S + sigma((T S)°)
    has rank n only as a direct sum: one rank decides both, that of
    ``moment_transversality_check`` with the image sigma((T S)°).
    """
    xi = tuple(xi)
    sigma = p.bivector_at(xi)
    image = [la.mat_vec(sigma, w) for w in la.annihilator(s.tangent_basis(xi), p.ambient_dim)]
    return moment_transversality_check(image, s, xi)


def coisotropic_check(omega: Matrix, w: Sequence[Vector]) -> bool:
    """True iff the omega-orthogonal of span(w) is contained in span(w)."""
    q = la.mat(omega)
    if la.rank(q) < len(q):
        raise DimensionMismatch("omega must be nondegenerate")
    return la.span_contains(list(w), la.annihilator([la.mat_vec(q, wv) for wv in w], len(q)))


def moment_transversality_check(image_basis: Sequence[Vector], s: SubmanifoldModel, xi: Vector) -> bool:
    """rank(T_xi S + image d mu) = ambient dimension."""
    tangent = s.tangent_basis(xi)
    return la.rank(list(tangent) + list(image_basis)) == s.ambient_dim
