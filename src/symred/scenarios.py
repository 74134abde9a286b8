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
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg as la
from . import poisson, reduction
from . import groupoid as gpd
from .errors import ConfigError, SymredError
from .lie import LieAlgebra, Sl2Triple, build_chevalley, direct_power, embed_factor, is_subalgebra, principal_sl2
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

    def add(self, name: str, anchor: str, ok: bool, data: dict | None = None, sampled: bool = False):
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


def _reduce_at(report: ScenarioReport, alg: LieAlgebra, s_model, pt: Vector, *records):
    """The reduction step at one point of S, recorded under the caller's names.

    Each record is (name, anchor, verdict), with verdict(agree, model) giving
    (ok, data) from ``reduction.kernel_identity_check``'s result.  Its orbit
    route reads h_xi off a stable fiber, so the step first reads the fiber's
    verdict, cached by the caller's own fiber checks.  At an unstable point
    it forms no kernel and every record fails, with no data.  Returns
    (agree, model), or None at an unstable point.
    """
    if not poisson.algebroid_fiber(poisson.kks_model(alg), s_model, pt).contained_in_centralizer:
        for name, anchor, _ in records:
            report.add(name, anchor, False)
        return None
    kernel = reduction.kernel_identity_check(alg, s_model, pt)
    for name, anchor, verdict in records:
        report.add(name, anchor, *verdict(*kernel))
    return kernel


def _two_route(alg: LieAlgebra):
    """The verdict of a ``kernel_two_route`` record: both routes agree and Omega vanishes on the kernel."""
    return lambda agree, model: (agree and reduction.reduced_form_well_defined(alg, model), None)


# -- moore-tachikawa ---------------------------------------------------------


def slodowy_moore_tachikawa(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    n = values["n"]
    alg = build_chevalley(values["cartan_type"], values["rank"])
    ell = alg.rank
    triple = principal_sl2(alg)

    fixed = [[0] * ell, [1] + [0] * (ell - 1), [-2] + [1] * (ell - 1)]
    extra = [[_rand_nonzero(rng) for _ in range(ell)] for _ in range(max(0, sample_count - 3))]
    sl = poisson.slodowy_slice(alg, triple, fixed + extra)
    dia = poisson.diagonal(sl, n)
    prod = direct_power(alg, n)
    pm = poisson.kks_model(prod)
    report.add("sample_points", "rational nilpotent-slice coordinates of the sampled points", True,
               {"slice_parameters": [[la.frac(c) for c in p] for p in fixed + extra]})

    # g = g_f ⊕ [g, x] exactly when the slice is Poisson transversal at x^flat
    for pt in sl.sample_points:
        report.add("slice_transversality", "g = g_f + [g, x] (direct sum)",
                   poisson.poisson_transversal_check(poisson.kks_model(alg), sl, pt),
                   {"points": len(sl.sample_points)})

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
    expected_dim = values.get("expected_reduced_dim", n * alg.dim + ell - (n - 1) * ell)
    for pt in dia.sample_points:
        report.add("stable", "L_S ⊆ ker sigma", poisson.algebroid_fiber(pm, dia, pt).contained_in_centralizer)
        _reduce_at(report, prod, dia, pt,
                   ("kernel_two_route", "T_p(H·p) = T_pN ∩ tau(T_pN°)", _two_route(prod)),
                   ("reduced_dim", "dim M_red = n dim g + rank - (n-1) rank", lambda agree, model: (
                       reduction.dimension_formula_check(prod, dia, pt, model) and model.quotient_dim == expected_dim,
                       {"reduced_dim": model.quotient_dim, "expected": expected_dim})))


# -- decomposition classes ---------------------------------------------------


def _sl2_structure_certificate(alg: LieAlgebra, m_basis: Sequence[Vector]) -> bool:
    """Whether span(m_basis) is a root sl2, span{e_b, [e_b, e_-b], e_-b}; it exhibits the triple.

    Root sl2s only, as the decomposition class's diagonal points give: a unit
    vector lies in an rref row space only as one of its rows, so e_b and e_-b are read off.
    """
    basis = la.span_basis(m_basis)
    rs = alg.root_data
    units = {rs.by_index[v.index(1)] for v in basis if sum(map(bool, v)) == 1}
    beta = next((b for b in rs.positive if b in units and tuple(-c for c in b) in units), None)
    if beta is None:
        return False
    e, f = alg.root_vector(beta), alg.root_vector(tuple(-c for c in beta))
    triple = Sl2Triple(e, alg.bracket(e, f), f)
    return triple.verify(alg) and la.span_equal(basis, [e, triple.h, f])


def decomposition_class_sl3(report: ScenarioReport, values: dict, rng: random.Random, sample_count: int):
    alg = build_chevalley("A", 2)
    pm = poisson.kks_model(alg)

    # diag(a, a, -2a) = a h_1 + 2a h_2 and the relabeled diag(1, -2, 1) = h_1 - h_2
    samples = [(Q(a), Q(b)) + la.zeros(alg.dim - 2) for a, b in [(1, 2), (2, 4), (-3, -6), (1, -1)]]
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
        # h_xi is read off a stable fiber only
        report.add("h_bracket_closed", "h_xi = (T_xi S)° ∩ g_xi is a subalgebra",
                   fiber.contained_in_centralizer and is_subalgebra(alg, poisson.stabilizer_subalgebra(pm, dec, pt)))

    expected_dim = values.get("expected_reduced_dim", 10)
    kernels = [
        _reduce_at(report, alg, dec, pt,
                   ("kernel_two_route", "T_p(H·p) = T_pN ∩ tau(T_pN°)", _two_route(alg)),
                   ("reduced_dim", "dim M_red = 2 dim G - 6", lambda agree, model: (
                       reduction.dimension_formula_check(alg, dec, pt, model) and model.quotient_dim == expected_dim,
                       {"reduced_dim": model.quotient_dim, "expected": expected_dim})))
        for pt in dec.sample_points
    ]

    per_point = max(20, 5 * sample_count) // len(dec.sample_points) + 1
    for pt, kernel in zip(dec.sample_points, kernels):
        fiber = poisson.algebroid_fiber(pm, dec, pt)
        mperp = la.annihilator([alg.flat(mb) for mb in fiber.basis], alg.dim)
        columns = la.transpose(mperp)
        pairs = []
        for _ in range(per_point):
            # z = sum_b c_b b, the coefficients of z1 and z2 drawn in turn
            c = [la.random_fraction(rng) for _ in range(2 * len(mperp))]
            z1, z2 = la.mat_vec(columns, c[::2]), la.mat_vec(columns, c[1::2])
            pairs.append(((la.random_vector(rng, alg.dim), z1), (la.random_vector(rng, alg.dim), z2)))
        report.add("reduced_form_formula", "omega_red = -<u1,z2> + <u2,z1> - <x,[u1,u2]>",
                   kernel is not None and reduction.decomposition_form_check(alg, dec, kernel, pairs),
                   {"pairs": per_point * len(dec.sample_points)})

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
            coords = [la.ZERO] * alg.dim
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
            _reduce_at(report, alg, face, pt, (name + "_dimension", "dim M_red = dim g + dim S - rk L_S", lambda agree, model: (
                agree and model.quotient_dim == alg.dim + len(face.directions) - exp_dim, None)))
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
    report.add("sample_points", "points (t, 0, t^2, 0) on the quadric x^2 = u != 0, y = 0", True,
               {"parameters": list(ts)})

    for pt in pts:
        x = pt[0]
        tb = model.tangent_basis(pt)
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
                   len(kernel) == 0 and len(tb) - len(kernel) == 2, {"reduced_dim": len(tb) - len(kernel)})


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
        report.add("stable", "ad*_{xi_sharp} xi = 0", fiber.contained_in_centralizer)

    for pt in model.sample_points:
        _reduce_at(report, alg, model, pt, ("reduced_dim", "dim M_red = dim g + (dim g - 1) - 1",
                   lambda agree, red: (agree and red.quotient_dim == alg.dim + (alg.dim - 1) - 1,
                                       {"reduced_dim": red.quotient_dim})))
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
        columns = la.columns(dirs, dim_t)
        pts = [base]
        for _ in range(max(0, sample_count - 1)):
            # a face that is a point draws nothing and stays at its base, kept once below
            pts.append(la.mat_vec(columns, [la.random_fraction(rng) for _ in dirs]))
        face = poisson.AffineSubspace(base, dirs, list(dict.fromkeys(pts)))
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
