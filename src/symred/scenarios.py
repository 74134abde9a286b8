"""Named check suites reproducing the worked reduction examples.

Each scenario builds its models at fixed rational sample points (plus
seeded random extras), runs every check exactly, and returns a
:class:`ScenarioReport`.  A check's ``anchor`` names the identity it
certifies.  Status ``sampled-pass`` marks finite-sample witnesses of
properties quantified over a whole submanifold (constant rank); every
other check is a complete verification of a pointwise identity.

A scenario records each pointwise check with ``ScenarioReport.add`` at
every sample point, where its verdict is computed.  A check's status is
the conjunction of its records over the sample points, and its data comes
from the last record that gave data.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import linalg as la
from . import poisson, reduction
from . import groupoid as gpd
from .errors import ConfigError, DimensionMismatch, SymredError
from .lie import LieAlgebra, Sl2Triple, build_chevalley, embed_factor, principal_sl2
from .linalg import Q, Vector


@dataclass(frozen=True)
class Check:
    name: str
    anchor: str
    status: str  # "pass" | "fail" | "sampled-pass"
    data: dict = field(default_factory=dict)


@dataclass
class ScenarioReport:
    scenario_name: str
    params: dict
    checks: list[Check] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, name: str, anchor: str, ok: bool, data: Optional[dict] = None, sampled: bool = False):
        """Record one verdict of check `name`, usually at one sample point.

        The first record of a name places the check and fixes its anchor.  A
        later record ANDs `ok` into the status and, when it gives `data`,
        replaces the data.
        """
        status = ("sampled-pass" if sampled else "pass") if ok else "fail"
        for i, old in enumerate(self.checks):
            if old.name == name:
                status = "fail" if old.status == "fail" else status
                self.checks[i] = Check(name, old.anchor, status, old.data if data is None else data)
                return
        self.checks.append(Check(name, anchor, status, data or {}))

    def check_data(self, name: str) -> dict:
        for c in self.checks:
            if c.name == name:
                return c.data
        raise KeyError(name)


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or isinstance(value, int) or isinstance(value, str):
        return value
    if isinstance(value, float):
        raise TypeError("floats must not appear in reports")
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def report_to_dict(report: ScenarioReport) -> dict:
    return {
        "scenario_name": report.scenario_name,
        "params": _jsonable(report.params),
        "all_passed": report.all_passed,
        "checks": [
            {
                "name": c.name,
                "anchor": c.anchor,
                "status": c.status,
                "data": _jsonable(c.data),
            }
            for c in report.checks
        ],
    }


def _rand_nonzero(rng: random.Random) -> Fraction:
    while True:
        v = la.random_fraction(rng)
        if v != 0:
            return v


def _pre_poisson_sampled(report: ScenarioReport, pm: poisson.PoissonPointModel, s_model) -> None:
    pp = poisson.pre_poisson_sample_check(pm, s_model)
    report.add("pre_poisson_sampled", "sigma^{-1}(TS) ∩ TS° has constant rank over S",
               pp["constant_rank"], {"ranks": pp["ranks"]}, sampled=True)


# -- moore-tachikawa ---------------------------------------------------------


def slodowy_moore_tachikawa(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    n = values["n"]
    alg = build_chevalley(values["cartan_type"], values["rank"])
    ell = alg.rank
    triple = principal_sl2(alg)

    fixed = [[0] * ell, [1] + [0] * (ell - 1), [-2] + [1] * (ell - 1)]
    extra = [[_rand_nonzero(rng) for _ in range(ell)] for _ in range(max(0, sample_count - 3))]
    dia = poisson.DiagonalSlodowy(alg, triple, n, parameters=fixed + extra)
    prod = dia.product
    pm = poisson.kks_model(prod)
    report.add("sample_points", "rational nilpotent-slice coordinates of the sampled points", True,
               {"slice_parameters": [[la.frac(c) for c in p] for p in fixed + extra]})

    for pt in dia.slice.sample_points:
        x = alg.sharp(pt)
        gf = dia.slice.gf
        bracket_img = [alg.bracket(alg.basis_vec(i), x) for i in range(alg.dim)]
        total = la.rank(list(gf) + bracket_img)
        report.add("slice_transversality", "g = g_f + [g, x] (direct sum)",
                   total == alg.dim and la.rank(gf) + la.rank(bracket_img) == alg.dim,
                   {"points": len(dia.slice.sample_points)})

    ranks = []
    for pt in dia.sample_points:
        fiber = poisson.algebroid_fiber(pm, dia, pt)
        x = alg.sharp(tuple(pt[: alg.dim]))
        gx = alg.centralizer(x)
        oracle = []
        for k in range(n - 1):
            for z in gx:
                oracle.append(
                    la.add(
                        embed_factor(prod.dim, alg.dim, k, z),
                        embed_factor(prod.dim, alg.dim, k + 1, la.neg(z)),
                    )
                )
        ranks.append(fiber.rank)
        report.add("diagonal_fiber_two_route",
                   "fiber of L over the diagonal slice = {(y_i) in (g_x)^n : sum y_i = 0}",
                   la.span_equal(list(fiber.basis), oracle), {"ranks": ranks})
        report.add("fiber_rank", "rk L = (n-1) * rank(g)", fiber.rank == (n - 1) * ell,
                   {"ranks": ranks, "expected": (n - 1) * ell})

    _pre_poisson_sampled(report, pm, dia)
    report.add("stable", "L_S ⊆ ker sigma", all(poisson.stable_check(pm, dia)))

    expected_dim = values.get("expected_reduced_dim", n * alg.dim + ell - (n - 1) * ell)
    for pt in dia.sample_points:
        agree, model = reduction.kernel_identity_check(prod, dia, pt)
        report.add("kernel_two_route", "T_p(H·p) = T_pN ∩ tau(T_pN°)",
                   agree and reduction.reduced_form_well_defined(prod, model))
        report.add("reduced_form_nondegenerate", "pi* omega_red = i* Omega, omega_red symplectic",
                   model.nondegenerate())
        report.add("reduced_dim", "dim M_red = n dim g + rank - (n-1) rank",
                   reduction.dimension_formula_check(prod, dia, pt, model) and model.quotient_dim == expected_dim,
                   {"reduced_dim": model.quotient_dim, "expected": expected_dim})

    # N_n = N x_c ... x_c N is coisotropic in N^n; det(G ⊕ ... ⊕ G) = det(G)^n
    for pt_s in dia.slice.sample_points:
        base = [tuple(la.unit(alg.dim, i)) + la.zeros(alg.dim) for i in range(alg.dim)]
        base += [la.zeros(alg.dim) + tuple(t) for t in dia.slice.tangent_basis(pt_s)]
        gram_n = gpd.omega_gram(alg, pt_s, base)
        if la.det(gram_n) == 0:
            raise DimensionMismatch("omega must be nondegenerate")
        w, images = _fibred_product_tangent(gram_n, alg.dim, n)
        report.add("fibred_product_coisotropic", "N x_c ... x_c N is coisotropic in N^n",
                   poisson.orthogonal_in_span(images, w, n * len(base)))


def _fibred_product_tangent(gram: Sequence[Vector], d: int, n: int) -> tuple[list[Vector], list[Vector]]:
    """W = g^n + diagonal(T S) in (g x T S)^n, and its images under G ⊕ ... ⊕ G.

    G = `gram` is Omega on g x T S, g (dimension d) first, and W opens with g^n.
    A vector of W has one unit entry in each block it meets: its image is G's column there.
    """
    width, cols = len(gram), la.transpose(gram)
    w = [la.unit(n * width, k * width + i) for k in range(n) for i in range(d)]
    images = [la.zeros(k * width) + cols[i] + la.zeros((n - 1 - k) * width) for k in range(n) for i in range(d)]
    w += [la.unit(width, j) * n for j in range(d, width)]
    return w, images + [cols[j] * n for j in range(d, width)]


# -- decomposition classes ---------------------------------------------------


def _sl2_structure_certificate(alg: LieAlgebra, m_basis: Sequence[Vector]) -> bool:
    """Whether the 3-dim subalgebra span(m_basis) has an exact (e, h, f) basis; it exhibits one."""
    cartan = [alg.basis_vec(i) for i in range(alg.rank)]
    inter = la.intersect_spans(list(m_basis), cartan)
    if len(inter) != 1:
        return False
    h0 = inter[0]
    m_cols = la.transpose(list(m_basis))
    imgs = [la.solve(m_cols, alg.bracket(h0, b)) for b in m_basis]
    if any(v is None for v in imgs):
        return False
    admat = la.transpose(imgs)  # ad_{h0} restricted to m, 3x3
    # char(x) = x^3 - c x with c = lambda^2
    c = -(admat[0][0] * admat[1][1] + admat[0][0] * admat[2][2] + admat[1][1] * admat[2][2]
          - admat[0][1] * admat[1][0] - admat[0][2] * admat[2][0] - admat[1][2] * admat[2][1])
    if c <= 0:
        return False
    num, den = c.numerator, c.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn != num or rd * rd != den:
        return False
    lam = Q(rn, rd)
    h = la.scale(Q(2) / lam, h0)

    def eigvec(val):
        # column k of (2/lambda) ad_{h0} - val on m is the image of m_basis[k]
        images = [tuple((Q(2) / lam) * admat[j][k] - (val if j == k else Q(0)) for j in range(3)) for k in range(3)]
        ker = la.kernel_within(images, m_basis)
        return ker[0] if len(ker) == 1 else None
    e = eigvec(Q(2))
    f = eigvec(Q(-2))
    if e is None or f is None:
        return False
    br = alg.bracket(e, f)
    sol = la.solve(la.transpose([h]), br)
    if sol is None or sol[0] == 0:
        return False
    return Sl2Triple(e, h, la.scale(Q(1) / sol[0], f)).verify(alg)


def decomposition_class_sl3(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    alg = build_chevalley("A", 2)
    pm = poisson.kks_model(alg)

    def diag(a, perm=(0, 1, 2)):
        vals = [a, a, -2 * a]
        m = [[Q(0)] * 3 for _ in range(3)]
        for i in range(3):
            m[i][i] = Q(vals[perm[i]])
        return alg.from_matrix(tuple(tuple(r) for r in m))

    samples = [diag(1), diag(2), diag(-3), diag(1, perm=(0, 2, 1))]
    dec = poisson.DecompositionClass(alg, 4, samples)
    report.add("sample_points", "equal-pair diagonal parameters, one relabeled", True,
               {"parameters": [1, 2, -3, "1 (permuted)"]})

    for pt in dec.sample_points:
        tangent = dec.tangent_basis(pt)
        report.add("tangent_space", "T_x D = z(g_{x_s}) + [g, x] of codimension 3", len(tangent) == 5,
                   {"dim_D": 5, "codim": 3})
        fiber = poisson.algebroid_fiber(pm, dec, pt)
        x = alg.sharp(pt)
        gx = alg.centralizer(x)
        derived = la.span_basis([alg.bracket(a, b) for a in gx for b in gx])
        report.add("annihilator_two_route", "(T_x D)^perp = [g_{x_s}, g_{x_s}]_{x_n}",
                   fiber.rank == 3 and la.span_equal(list(fiber.basis), derived), {"dim": 3})
        report.add("h_is_sl2", "[g_x, g_x] has an exact (e, h, f) basis",
                   _sl2_structure_certificate(alg, list(fiber.basis)))
        report.add("stable", "L_S ⊆ ker sigma", fiber.contained_in_centralizer)
        _, closed = poisson.stabilizer_subalgebra(pm, dec, pt)
        report.add("h_bracket_closed", "h_xi = (T_xi S)° ∩ g_xi is a subalgebra", closed)

    expected_dim = values.get("expected_reduced_dim", 10)
    kernels = [reduction.kernel_identity_check(alg, dec, pt) for pt in dec.sample_points]
    for pt, (agree, model) in zip(dec.sample_points, kernels):
        report.add("kernel_two_route", "T_p(H·p) = T_pN ∩ tau(T_pN°)",
                   agree and model.nondegenerate() and reduction.reduced_form_well_defined(alg, model))
        report.add("reduced_dim", "dim M_red = 2 dim G - 6",
                   reduction.dimension_formula_check(alg, dec, pt, model) and model.quotient_dim == expected_dim,
                   {"reduced_dim": model.quotient_dim, "expected": expected_dim})

    n_pairs = max(20, 5 * sample_count)
    for pt, kernel in zip(dec.sample_points, kernels):
        fiber = poisson.algebroid_fiber(pm, dec, pt)
        mperp = la.annihilator([alg.flat(mb) for mb in fiber.basis], alg.dim)
        pairs = []
        for _ in range(n_pairs // len(dec.sample_points) + 1):
            z1 = la.zeros(alg.dim)
            z2 = la.zeros(alg.dim)
            for b in mperp:
                z1 = la.add(z1, la.scale(la.random_fraction(rng), b))
                z2 = la.add(z2, la.scale(la.random_fraction(rng), b))
            pairs.append(((la.random_vector(rng, alg.dim), z1), (la.random_vector(rng, alg.dim), z2)))
        report.add("reduced_form_formula", "omega_red = -<u1,z2> + <u2,z1> - <x,[u1,u2]>",
                   reduction.decomposition_form_check(alg, dec, kernel, pairs), {"pairs": n_pairs})

    _pre_poisson_sampled(report, pm, dec)


# -- implosion faces ---------------------------------------------------------


def implosion_faces_A2(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    alg = build_chevalley("A", 2)
    pm = poisson.kks_model(alg)
    expected = {(): 0, (0,): 3, (1,): 3, (0, 1): 8}
    dims = {}
    for subset, exp_dim in expected.items():
        pts = []
        for trial in range(max(2, sample_count - 1)):
            coords = [Q(0)] * alg.dim
            for i in range(alg.rank):
                if i not in subset:
                    coords[i] = Q(trial + 1 + i) if trial < 2 else abs(_rand_nonzero(rng)) + 1
            pts.append(tuple(coords))
        pts = list(dict.fromkeys(pts))
        face = poisson.WeylChamberFace(alg, subset, pts)
        name = "face_" + ("interior" if not subset else "_".join(f"a{i+1}" for i in subset))
        for pt in face.sample_points:
            fiber = poisson.algebroid_fiber(pm, face, pt)
            gpsi = face.root_subsystem_algebra(pt)
            dims[name] = fiber.rank
            report.add(name + "_fiber", "(L_{S_sigma})_xi = g_Psi, Psi = {alpha : alpha(y) = 0}",
                       la.span_equal(list(fiber.basis), gpsi) and fiber.rank == exp_dim,
                       {"dim": fiber.rank, "expected": exp_dim})
            gfib = gpd.chamber_face_fiber(alg, face, pt)
            report.add(name + "_groupoid", "[K_S, K_S] x S is isotropic; Lie functor (x, xi) -> (-x, xi)",
                       gpd.lie_functor_check(gfib, fiber) and gfib.isotropic)
        for pt in face.sample_points:
            agree, model = reduction.kernel_identity_check(alg, face, pt)
            report.add(name + "_dimension", "dim M_red = dim g + dim S - rk L_S",
                       agree and reduction.dimension_formula_check(alg, face, pt, model))
    report.add("face_dims", "fiber dimensions over the face lattice",
               list(dims.values()) == [0, 3, 3, 8], dims)


# -- the C^4 pre-Poisson example --------------------------------------------


def c4_prepoisson_remark(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    omega = la.mat([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    pmodel = poisson.symplectic_model(omega)

    def tangent(p):
        x = p[0]
        return [la.vec([1, 0, 2 * x, 0]), la.vec([0, 0, 0, 1])]

    ts = [Q(1), Q(2), Q(-1)]
    for _ in range(max(0, sample_count - 3)):
        ts.append(_rand_nonzero(rng))
    pts = [la.vec([t, 0, t * t, 0]) for t in ts]
    model = poisson.Explicit(4, tangent, pts)
    # explicit models trust the caller's membership; here the samples
    # satisfy x^2 = u != 0, y = 0 by construction
    report.add("membership_mode", "samples lie on the quadric by construction",
               all(pt[0] * pt[0] == pt[2] and pt[0] != 0 and pt[1] == 0 and pt[3] == 0 for pt in pts),
               {"trusted_tangent_constructor": model.trusted, "parameters": list(ts)})

    for pt in pts:
        x = pt[0]
        tb = model.tangent_basis(pt)
        report.add("tangent_span", "TS = span{d/dx + 2x d/du, d/dv}",
                   la.span_equal(tb, [la.vec([1, 0, 2 * x, 0]), la.vec([0, 0, 0, 1])]))
        ann = la.annihilator(tb, 4)
        report.add("annihilator_span", "TS° = span{du - 2x dx, dy}",
                   la.span_equal(ann, [la.vec([-2 * x, 0, 1, 0]), la.vec([0, 1, 0, 0])]))
        rows = [la.mat_vec(omega, t) for t in tb]
        ts_perp = la.nullspace(rows)
        report.add("omega_orthogonal_span", "TS^omega = span{2x d/dy - d/dv, d/dx}",
                   la.span_equal(ts_perp, [la.vec([0, 2 * x, 0, -1]), la.vec([1, 0, 0, 0])]))
        fiber = poisson.algebroid_fiber(pmodel, model, pt)
        report.add("trivial_stabilizer", "L_S = omega(TS) ∩ TS° = 0", fiber.rank == 0)
    _pre_poisson_sampled(report, pmodel, model)

    # self-reduction along S: kernel of the restricted form is zero
    for pt in pts:
        tb = model.tangent_basis(pt)
        gram = [[la.dot(a, la.mat_vec(omega, b)) for b in tb] for a in tb]
        kernel = la.nullspace(gram)
        report.add("reduced_dim", "dim M_red = dim S - rk L_S = 2",
                   len(kernel) == 0 and len(tb) - len(kernel) == 2, {"reduced_dim": 2})


# -- casimir level sets ------------------------------------------------------


def casimir_sphere(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    alg = build_chevalley("A", int(values["algebra"][1]))
    if values["algebra"] == "A1":
        base = alg.flat(alg.basis_vec(0))  # h^flat, level 8
        default_level = alg.killing_form(alg.basis_vec(0), alg.basis_vec(0))
    else:
        x = alg.from_matrix(la.mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]]))
        base = alg.flat(x)
        default_level = alg.killing_form(x, x)
    level = values.get("level", default_level)
    ratio = level / default_level
    root = Q(math.isqrt(ratio.numerator), math.isqrt(ratio.denominator)) if ratio > 0 else None
    if root is None or root * root != ratio:
        raise ConfigError(f"casimir_sphere: level = {level} is not {default_level} times a positive rational square")
    base = la.scale(root, base)
    es, hs, fs = alg.simple_vectors()
    translates = [alg.unipotent(es[0], 1), alg.unipotent(fs[0], Q(1, 2))]
    for i in range(max(0, sample_count - 3)):
        translates.append(alg.unipotent(es[i % alg.rank], _rand_nonzero(rng)))
    pts = [base] + [alg.coadjoint_group_action(g, base) for g in translates]
    model = poisson.CasimirLevelSet(alg, level, pts)
    pm = poisson.kks_model(alg)
    report.add("sample_points", "base point plus exact unipotent translates (level preserved)", True,
               {"level": level, "points": len(model.sample_points)})

    for pt in model.sample_points:
        fiber = poisson.algebroid_fiber(pm, model, pt)
        sharp = alg.sharp(pt)
        report.add("fiber_is_dual_ray", "(T_xi S)° = R xi_*",
                   fiber.rank == 1 and la.span_equal(list(fiber.basis), [sharp]), {"dim": 1})
        report.add("stable", "ad*_{xi_sharp} xi = 0", la.is_zero(alg.ad_star(sharp, pt)))

    for pt in model.sample_points:
        agree, model_red = reduction.kernel_identity_check(alg, model, pt)
        report.add("reduced_dim", "dim M_red = dim g + (dim g - 1) - 1",
                   reduction.dimension_formula_check(alg, model, pt, model_red)
                   and agree and model_red.quotient_dim == alg.dim + (alg.dim - 1) - 1,
                   {"reduced_dim": model_red.quotient_dim})
    _pre_poisson_sampled(report, pm, model)


# -- polyhedral faces for torus actions --------------------------------------


def polyhedral_face_torus(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    dim_t = values["dim_t"]
    directions = values.get("face_directions")
    cases = []
    if directions is not None:
        if any(len(d) != dim_t for d in directions):
            raise ConfigError(f"polyhedral_face_torus: face_directions needs vectors of length dim_t = {dim_t}")
        cases.append(("given", directions))
    else:
        cases.append(("full", [la.unit(dim_t, i) for i in range(dim_t)]))
        cases.append(("codim1", [la.unit(dim_t, i) for i in range(dim_t - 1)]))
        cases.append(("point", []))
    pmodel = poisson.trivial_model(dim_t)
    for label, dirs in cases:
        base = la.zeros(dim_t)
        pts = [base]
        for _ in range(max(0, sample_count - 1)):
            v = base
            for d in dirs:
                v = la.add(v, la.scale(la.random_fraction(rng), d))
            pts.append(v)
        face = poisson.PolyhedralFace(base, dirs, pts)
        for pt in face.sample_points:
            fiber = poisson.algebroid_fiber(pmodel, face, pt)
            ann = la.annihilator(face.tangent_basis(pt), dim_t)
            report.add(f"face_{label}_fiber", "L_F = (T_xi F)° (Lie algebra of the cutting torus T_F)",
                       la.span_equal(list(fiber.basis), ann),
                       {"dim": fiber.rank, "codim": dim_t - len(face.directions)})
            report.add(f"face_{label}_dimension", "dim M_red = dim t + dim F - rk L_F",
                       fiber.rank == dim_t - len(face.directions),
                       {"reduced_dim": dim_t + len(face.directions) - fiber.rank})


# -- registry ----------------------------------------------------------------


RATIONAL = "rational"
VECTORS = "[[rational, ...], ...]"


@dataclass(frozen=True)
class Param:
    """One declared scenario parameter; a ``None`` default means the scenario works it out.

    ``allowed`` is a ``range`` of ints, a tuple of strings, ``RATIONAL`` or ``VECTORS``.
    """

    name: str
    allowed: object
    default: object = None

    def typed(self, value):
        """`value` in this parameter's type; TypeError or ValueError when it is not allowed."""
        if self.allowed == RATIONAL:
            if isinstance(value, bool):
                raise TypeError("a bool is not a rational")
            return la.frac(value)
        if self.allowed == VECTORS:
            if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
                raise TypeError("not a list of lists")
            return [tuple(Param(self.name, RATIONAL).typed(c) for c in v) for v in value]
        if type(value) is not type(self.allowed[0]) or value not in self.allowed:
            raise ValueError("not an allowed value")
        return value

    def __str__(self) -> str:
        allowed = self.allowed
        if isinstance(allowed, range):
            allowed = f"{allowed.start}..{allowed.stop - 1}"
        return f"{self.name}: {allowed}" + ("" if self.default is None else f", default {self.default!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    name: str
    fn: Callable[[ScenarioReport, dict, random.Random, int], None]
    description: str
    identities: tuple[str, ...]
    params: tuple[Param, ...] = ()

    def resolve(self, params: dict) -> dict:
        """Typed values of `params` plus every non-None default; ConfigError names a bad parameter."""
        declared = {p.name: p for p in self.params}
        values = {p.name: p.default for p in self.params if p.default is not None}
        for key, value in params.items():
            try:
                values[key] = declared[key].typed(value)
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                table = "; ".join(map(str, self.params)) or "none"
                raise ConfigError(f"{self.name}: {key} = {value!r} is not allowed; declared: {table}") from None
        return values


REGISTRY: dict[str, ScenarioSpec] = {
    s.name: s
    for s in [
        ScenarioSpec(
            "slodowy_moore_tachikawa",
            slodowy_moore_tachikawa,
            "principal slice, diagonal fibers with sum-zero centralizer tuples, reduced dimensions",
            ("g = g_f + [g, x]", "L over Delta_n S = {(y_i) in (g_x)^n : sum y_i = 0}",
             "dim M_red = n dim g + rank - (n-1) rank"),
            (Param("cartan_type", ("A",), "A"), Param("rank", range(1, 4), 1), Param("n", range(1, 5), 2),
             Param("expected_reduced_dim", range(10**6))),
        ),
        ScenarioSpec(
            "decomposition_class_sl3",
            decomposition_class_sl3,
            "subregular semisimple classes in sl3: tangents, sl2 annihilators, explicit reduced form",
            ("T_x D = z(g_{x_s}) + [g, x]", "(T_x D)^perp = [g_{x_s}, g_{x_s}]_{x_n}",
             "omega_red = -<u1,z2> + <u2,z1> - <x,[u1,u2]>", "dim M_red = 2 dim G - 6"),
            (Param("expected_reduced_dim", range(10**6)),),
        ),
        ScenarioSpec(
            "implosion_faces_A2",
            implosion_faces_A2,
            "all four chamber faces of A2: stabilizer fibers equal the root-subsystem algebras",
            ("(L_{S_sigma})_xi = g_Psi", "[K_S, K_S] x S is isotropic"),
        ),
        ScenarioSpec(
            "c4_prepoisson_remark",
            c4_prepoisson_remark,
            "the quadric x^2 = u != 0, y = 0 in a 4-dim symplectic space: trivial stabilizer",
            ("L_S = omega(TS) ∩ TS° = 0", "TS^omega = span{2x d/dy - d/dv, d/dx}"),
        ),
        ScenarioSpec(
            "casimir_sphere",
            casimir_sphere,
            "Casimir level sets {<xi, xi> = c}: fiber is the dual ray, stable, reduced dimension",
            ("(T_xi S)° = R xi_*", "dim M_red = dim g + (dim g - 1) - 1"),
            (Param("algebra", ("A1", "A2"), "A1"), Param("level", RATIONAL)),
        ),
        ScenarioSpec(
            "polyhedral_face_torus",
            polyhedral_face_torus,
            "faces of rational polyhedra under the trivial Poisson structure: cutting tori",
            ("L_F = (T_xi F)°",),
            (Param("dim_t", range(1, 33), 3), Param("face_directions", VECTORS)),
        ),
    ]
}


def run_scenario(name: str, params: dict, seed: int, sample_count: int) -> ScenarioReport:
    if name not in REGISTRY:
        raise ConfigError(f"unknown scenario: {name}")
    values = REGISTRY[name].resolve(params)
    report = ScenarioReport(name, {key: params.get(key, value) for key, value in values.items()})
    rng = random.Random(f"{seed}:{name}:{sorted(params.items())!r}")
    try:
        REGISTRY[name].fn(report, values, rng, sample_count)
    except ConfigError:
        raise
    except Exception as exc:
        raise SymredError(f"scenario {name} raised {type(exc).__name__}: {exc}") from exc
    return report
