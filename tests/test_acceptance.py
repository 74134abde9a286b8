"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
All arithmetic is exact, so every comparison is exact equality.
"""

import json
import random
from fractions import Fraction as Q

import pytest

from symred import cli, lie, poisson, reduction, scenarios, shifted
from symred import groupoid as gpd
from symred import linalg as la
from symred.groupoid import CotangentPoint
from conftest import subregular_point


def verdict(num, name, ok):
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


# -- 1: Lie engine soundness ---------------------------------------------------


def test_criterion_01_lie_engine():
    ok = True
    for typ, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G2", 2)]:
        alg = lie.build_chevalley(typ, rank)
        ok &= alg.verify_jacobi()
        ok &= alg.verify_killing_invariance()
        ok &= la.det(alg.killing) != 0
    verdict(1, "lie engine soundness (Jacobi, invariance, nondegeneracy)", ok)


# -- 2: kernel-distribution identity, two routes -------------------------------


def _kernel_models(alg):
    """Six submanifold kinds with >= 3 sample points each."""
    e_s, h_s, f_s = alg.simple_vectors()
    tri = lie.principal_sl2(alg)
    if alg.rank == 1:
        reg = alg.flat(h_s[0])
        subreg_cent_dim = 1  # regular semisimple class for rank one
        class_pts = [alg.basis_vec(0), la.scale(2, alg.basis_vec(0)), la.scale(-3, alg.basis_vec(0))]
    else:
        reg = alg.flat(alg.from_matrix(la.mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]])))
        subreg_cent_dim = 4
        class_pts = [subregular_point(alg), subregular_point(alg, 2), subregular_point(alg, -3)]
    translates = [alg.unipotent(e_s[0], 1), alg.unipotent(f_s[0], Q(1, 2)), alg.unipotent(e_s[0], -2)]
    level = la.dot(reg, alg.sharp(reg))
    casimir_pts = [reg] + [alg.coadjoint_group_action(g, reg) for g in translates[:2]]
    slice_params = [[0] * alg.rank, [1] + [0] * (alg.rank - 1), [-2] + [1] * (alg.rank - 1)]
    singles = [poisson.Singleton(p) for p in casimir_pts]
    models = [
        ("singleton", alg, singles),
        ("orbit", alg, [poisson.CoadjointOrbit(alg, reg, translates)]),
        ("slice", alg, [poisson.SlodowySlice(alg, tri, parameters=slice_params)]),
        ("class", alg, [poisson.DecompositionClass(alg, subreg_cent_dim, class_pts)]),
        ("casimir", alg, [poisson.CasimirLevelSet(alg, level, casimir_pts)]),
    ]
    dia = poisson.DiagonalSlodowy(alg, tri, 2, parameters=slice_params)
    models.append(("diagonal-slice", dia.product, [dia]))
    return models


@pytest.mark.parametrize("rank", [1, 2])
def test_criterion_02_kernel_identity(rank):
    alg = lie.build_chevalley("A", rank)
    ok = True
    for label, ambient, model_list in _kernel_models(alg):
        points = 0
        for model in model_list:
            for pt in model.sample_points:
                agree, red = reduction.kernel_identity_check(ambient, model, pt)
                ok &= agree and reduction.reduced_form_well_defined(ambient, red)
                points += 1
        ok &= points >= 3
    verdict(2, f"kernel-distribution identity two-route (sl{rank+1})", ok)


# -- 3: dimension formula -------------------------------------------------------


def test_criterion_03_dimension_formula():
    ok = True
    for name, params, key, expected in [
        ("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 2}, "reduced_dim", 6),
        ("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 3}, "reduced_dim", 8),
        ("decomposition_class_sl3", {}, "reduced_dim", 10),
    ]:
        rep = scenarios.run_scenario(name, params, seed=3, sample_count=3)
        ok &= rep.all_passed and rep.check_data(key)["reduced_dim"] == expected
    for name, params in [
        ("implosion_faces_A2", {}),
        ("c4_prepoisson_remark", {}),
        ("casimir_sphere", {"algebra": "A1"}),
        ("casimir_sphere", {"algebra": "A2"}),
        ("polyhedral_face_torus", {"dim_t": 3}),
        ("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 2, "n": 2}),
    ]:
        rep = scenarios.run_scenario(name, params, seed=3, sample_count=3)
        dim_checks = [c for c in rep.checks if "dim" in c.name]
        ok &= rep.all_passed and dim_checks != []
    verdict(3, "dimension formula on every scenario (6, 8, 10 included)", ok)


# -- 4: isotropy certificates ---------------------------------------------------


def test_criterion_04_isotropy():
    sl2 = lie.build_chevalley("A", 1)
    e, h, f = sl2.root_vector((1,)), sl2.basis_vec(0), sl2.root_vector((-1,))
    hb = sl2.flat(h)
    ok = True
    # stabilizer data over affine levels: three (subalgebra, xi, eta) bases
    borel = [h, e]
    cases = [
        (list(la.identity(3)), hb, la.zeros(3)),
        ([h], hb, la.annihilator([h], 3)[0]),
        (borel, sl2.flat(e), la.annihilator(borel, 3)[0]),
    ]
    for h_sub, xi, eta in cases:
        fib = gpd.mw_fiber(sl2, h_sub, xi, eta)
        ok &= fib.isotropic
    # orbit-stabilizer fibers at three bases, one a non-identity element
    gt = sl2.group_element([[2, 0], [0, Q(1, 2)]])
    xi2 = sl2.coadjoint_group_action(sl2.unipotent(e, 1), hb)
    for base in [CotangentPoint(hb), CotangentPoint(hb, gt), CotangentPoint(xi2)]:
        fib = gpd.coadjoint_orbit_fiber(sl2, base)
        ok &= fib.isotropic
        for i, t1 in enumerate(fib.basis):
            for t2 in fib.basis[i + 1 :]:
                ok &= gpd.omega_eval(sl2, base.xi, t1, t2) == 0
    verdict(4, "pairwise Omega-vanishing on stabilizer fibers", ok)


# -- 5: orbit-product symplectomorphism ----------------------------------------


def test_criterion_05_orbit_product():
    sl2 = lie.build_chevalley("A", 1)
    hb = sl2.flat(sl2.basis_vec(0))
    rng = random.Random(505)
    pairs = [
        (
            (la.random_vector(rng, 3), la.random_vector(rng, 3)),
            (la.random_vector(rng, 3), la.random_vector(rng, 3)),
        )
        for _ in range(22)
    ]
    gid = sl2.identity_element()
    gu = sl2.group_element([[1, 1], [0, 1]])
    ok = reduction.orbit_product_symplecto_check(sl2, gid, hb, pairs)
    ok &= reduction.orbit_product_symplecto_check(sl2, gu, hb, pairs)
    verdict(5, "orbit-product pullback equals the restricted form (>=20 pairs, 2 bases)", ok)


# -- 6: decomposition-class reduced form ----------------------------------------


def test_criterion_06_decomposition_form():
    sl3 = lie.build_chevalley("A", 2)
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)])
    xi = dec.sample_points[0]
    pm = poisson.kks_model(sl3)
    fiber = poisson.algebroid_fiber(pm, dec, xi)
    mperp = la.nullspace([sl3.flat(mb) for mb in fiber.basis])
    rng = random.Random(606)
    pairs = []
    for _ in range(22):
        z1, z2 = la.zeros(8), la.zeros(8)
        for b in mperp:
            z1 = la.add(z1, la.scale(la.random_fraction(rng), b))
            z2 = la.add(z2, la.scale(la.random_fraction(rng), b))
        pairs.append(((la.random_vector(rng, 8), z1), (la.random_vector(rng, 8), z2)))
    kernel = reduction.kernel_identity_check(sl3, dec, xi)
    ok = reduction.decomposition_form_check(sl3, dec, kernel, pairs)
    verdict(6, "explicit reduced form on the subregular class (>=20 pairs)", ok)


# -- 7: diagonal-slice fiber identity -------------------------------------------


def test_criterion_07_diagonal_fibers():
    ok = True
    for rank in (1, 2):
        alg = lie.build_chevalley("A", rank)
        tri = lie.principal_sl2(alg)
        params = [[0] * rank, [1] + [0] * (rank - 1), [-2] + [1] * (rank - 1)]
        for n in (2, 3):
            dia = poisson.DiagonalSlodowy(alg, tri, n, parameters=params)
            pm = poisson.kks_model(dia.product)
            for pt in dia.sample_points:
                fiber = poisson.algebroid_fiber(pm, dia, pt)
                x = alg.sharp(tuple(pt[: alg.dim]))
                gx = alg.centralizer(x)
                oracle = []
                for k in range(n - 1):
                    for z in gx:
                        oracle.append(
                            la.add(
                                lie.embed_factor(dia.product.dim, alg.dim, k, z),
                                lie.embed_factor(dia.product.dim, alg.dim, k + 1, la.neg(z)),
                            )
                        )
                ok &= la.span_equal(list(fiber.basis), oracle)
                ok &= fiber.rank == (n - 1) * alg.rank
            # transversality at the same points
            for pt_s in dia.slice.sample_points:
                x = alg.sharp(pt_s)
                img = [alg.bracket(alg.basis_vec(i), x) for i in range(alg.dim)]
                ok &= la.rank(list(dia.slice.gf) + img) == alg.dim
                ok &= la.rank(dia.slice.gf) + la.rank(img) == alg.dim
    verdict(7, "diagonal-slice fibers are sum-zero centralizer tuples; slices transverse", ok)


# -- 8: implosion faces ----------------------------------------------------------


def test_criterion_08_implosion_faces():
    sl3 = lie.build_chevalley("A", 2)
    pm = poisson.kks_model(sl3)
    ok = True
    expected = {(): 0, (0,): 3, (1,): 3, (0, 1): 8}
    for subset, dim in expected.items():
        coords = [Q(0)] * 8
        for i in range(2):
            if i not in subset:
                coords[i] = Q(2 + i)
        face = poisson.WeylChamberFace(sl3, subset, [tuple(coords)])
        pt = face.sample_points[0]
        fiber = poisson.algebroid_fiber(pm, face, pt)
        ok &= fiber.rank == dim
        ok &= la.span_equal(list(fiber.basis), face.root_subsystem_algebra(pt))
    verdict(8, "face fibers equal the root-subsystem algebras (all four faces)", ok)


# -- 9: the quadric in the 4-dim symplectic space --------------------------------


def test_criterion_09_c4_quadric():
    rep = scenarios.run_scenario("c4_prepoisson_remark", {}, seed=9, sample_count=3)
    ok = rep.all_passed
    for name in ("trivial_stabilizer", "omega_orthogonal_span", "tangent_span"):
        ok &= any(c.name == name and c.status == "pass" for c in rep.checks)
    verdict(9, "quadric x^2 = u, y = 0: trivial stabilizer and stated spans", ok)


# -- 10: shifted Lagrangian criterion ---------------------------------------------


def test_criterion_10_lagrangian_criterion():
    sl2 = lie.build_chevalley("A", 1)
    sl3 = lie.build_chevalley("A", 2)
    kks2 = poisson.kks_model(sl2)
    kks3 = poisson.kks_model(sl3)
    e, h, f = sl2.root_vector((1,)), sl2.basis_vec(0), sl2.root_vector((-1,))
    hb = sl2.flat(h)
    tri = lie.principal_sl2(sl2)
    library = [
        (kks2, poisson.Singleton(hb), hb),
        (kks2, poisson.Singleton(la.zeros(3)), la.zeros(3)),
        (kks2, poisson.SlodowySlice(sl2, tri, parameters=[[0], [1]]), None),
        (kks2, poisson.CoadjointOrbit(sl2, hb, [sl2.unipotent(e, 1)]), None),
        (kks2, poisson.CasimirLevelSet(sl2, 8, [hb]), hb),
        (kks3, poisson.DecompositionClass(sl3, 4, [subregular_point(sl3)]), None),
        (kks3, poisson.WeylChamberFace(sl3, (0,), [tuple([Q(0), Q(1)] + [Q(0)] * 6)]), None),
    ]
    ok = True
    tried = 0
    for p, model, only in library:
        points = [only] if only is not None else list(model.sample_points)
        for pt in points:
            fiber = poisson.algebroid_fiber(p, model, pt)
            v = shifted.criterion_for_candidate(p, model, pt, list(fiber.basis))
            ok &= v.lagrangian and v.ker_phi_dim == 0
            tried += 1
            if fiber.rank:
                v2 = shifted.criterion_for_candidate(p, model, pt, list(fiber.basis)[:-1])
                ok &= (not v2.lagrangian) and v2.ker_phi_dim == 1
                tried += 1
    ok &= tried >= 10
    verdict(10, f"Lagrangian criterion verdict iff L is the stabilizer fiber ({tried} pairs)", ok)


# -- 11: CLI determinism and exit codes --------------------------------------------


def test_criterion_11_cli(tmp_path):
    good = {
        "scenarios": [
            {"name": "casimir_sphere", "params": {"algebra": "A1"}},
            {"name": "polyhedral_face_torus", "params": {"dim_t": 2}},
        ],
        "seed": 19,
    }
    cfg = tmp_path / "ok.json"
    cfg.write_text(json.dumps(good))
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    ok = cli.main(["run", str(cfg), "--report", str(r1)]) == 0
    ok &= cli.main(["run", str(cfg), "--report", str(r2)]) == 0
    ok &= r1.read_bytes() == r2.read_bytes()
    forced = {
        "scenarios": [
            {
                "name": "slodowy_moore_tachikawa",
                "params": {"cartan_type": "A", "rank": 1, "n": 2, "expected_reduced_dim": 5},
            }
        ]
    }
    bad_cfg = tmp_path / "forced.json"
    bad_cfg.write_text(json.dumps(forced))
    ok &= cli.main(["run", str(bad_cfg)]) == 1
    malformed = tmp_path / "malformed.json"
    malformed.write_text("{]")
    ok &= cli.main(["run", str(malformed)]) == 2
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"scenarios": [{"name": "zzz"}]}))
    ok &= cli.main(["run", str(unknown)]) == 2
    verdict(11, "CLI determinism and exit-code contract", ok)
