import json
from fractions import Fraction as Q

import pytest

import reference_kernels as ref
from symred import groupoid as gpd
from conftest import check_data, subregular_point
from test_mutation import unstable_fibers
from symred import lie, poisson, scenarios
from symred import linalg as la
from symred.errors import ConfigError
from symred.scenarios import REGISTRY, Check, Param, ScenarioReport, report_to_dict, run_scenario

ALL_DEFAULTS = [
    ("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 2}),
    ("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 3}),
    ("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 2, "n": 2}),
    ("decomposition_class_sl3", {}),
    ("implosion_faces_A2", {}),
    ("c4_prepoisson_remark", {}),
    ("casimir_sphere", {"algebra": "A1"}),
    ("casimir_sphere", {"algebra": "A2"}),
    ("polyhedral_face_torus", {"dim_t": 2}),
    ("polyhedral_face_torus", {"dim_t": 3}),
]


@pytest.mark.parametrize("name,params", ALL_DEFAULTS)
def test_scenarios_all_pass(name, params):
    rep = run_scenario(name, params, seed=11, sample_count=3)
    failing = [c.name for c in rep.checks if c.status == "fail"]
    assert rep.all_passed, failing
    assert all(c.anchor for c in rep.checks)
    assert rep.all_passed == all(c.status != "fail" for c in rep.checks)


def test_moore_tachikawa_reduced_dims():
    r2 = run_scenario("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 2}, 3, 3)
    assert check_data(r2, "reduced_dim")["reduced_dim"] == 6
    r3 = run_scenario("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 3}, 3, 3)
    assert check_data(r3, "reduced_dim")["reduced_dim"] == 8
    assert check_data(r3, "fiber_rank")["expected"] == 2


def test_moore_tachikawa_rejects_unsupported():
    with pytest.raises(ConfigError):
        run_scenario("slodowy_moore_tachikawa", {"cartan_type": "B", "rank": 2, "n": 2}, 1, 3)
    with pytest.raises(ConfigError):
        run_scenario("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 9}, 1, 3)


def test_decomposition_reduced_dim_is_ten():
    rep = run_scenario("decomposition_class_sl3", {}, 5, 3)
    assert check_data(rep, "reduced_dim")["reduced_dim"] == 10
    assert check_data(rep, "annihilator_two_route")["dim"] == 3


def test_sl2_structure_certificate_verdicts(sl3, monkeypatch):
    """True at the four decomposition-class points, whose e_b and e_-b are rows of the canonical
    basis, with no solve; False on a 3-dim solvable subalgebra, on a 3-space that is no
    subalgebra, and on span{e_b, e_-b, h} for a Cartan h other than b's coroot."""
    pm = poisson.kks_model(sl3)
    params = ((1, (0, 1, 2)), (2, (0, 1, 2)), (-3, (0, 1, 2)), (1, (0, 2, 1)))  # as in the scenario
    dec = poisson.DecompositionClass(sl3, 4, [subregular_point(sl3, a, perm) for a, perm in params])
    fibers = [list(poisson.algebroid_fiber(pm, dec, pt).basis) for pt in dec.sample_points]
    solves = []
    solve_many = la.solve_many
    monkeypatch.setattr(la, "solve_many", lambda a, bs: solves.append(1) or solve_many(a, bs))
    assert [scenarios._sl2_structure_certificate(sl3, m) for m in fibers] == [True] * 4
    assert len(solves) == 0  # [e, f] against h is a comparison, not a solve
    e1, e2, f1, f2 = (sl3.root_vector(r) for r in ((1, 0), (0, 1), (-1, 0), (0, -1)))
    # h = 2h_1 + 2h_2 acts by 2 on e_a1 and by -2 on f_a2, but [e_a1, f_a2] = 0: a solvable subalgebra
    h = la.add(la.scale(2, sl3.basis_vec(0)), la.scale(2, sl3.basis_vec(1)))
    assert lie.is_subalgebra(sl3, [h, e1, f2])
    assert scenarios._sl2_structure_certificate(sl3, [h, e1, f2]) is False
    # [h_1, e_a1 + e_a2] = 2e_a1 - e_a2 leaves span{h_1, e_a1 + e_a2, f_a1}
    assert scenarios._sl2_structure_certificate(sl3, [sl3.basis_vec(0), la.add(e1, e2), f1]) is False
    # [e_a1, f_a1] = h_1, not h_2 or h_1 + h_2
    for h in (sl3.basis_vec(1), la.add(sl3.basis_vec(0), sl3.basis_vec(1))):
        assert scenarios._sl2_structure_certificate(sl3, [e1, f1, h]) is False


@pytest.mark.parametrize("cartan_type,rank", sorted(lie.SUPPORTED))
def test_sl2_structure_certificate_accepts_every_root_sl2(cartan_type, rank):
    """span{e_b, [e_b, e_-b], e_-b} passes for every positive root b of every supported type."""
    alg = lie.build_chevalley(cartan_type, rank)
    for beta in alg.root_data.positive:
        e, f = alg.root_vector(beta), alg.root_vector(tuple(-c for c in beta))
        assert scenarios._sl2_structure_certificate(alg, [e, alg.bracket(e, f), f]), beta


def test_implosion_face_dims():
    rep = run_scenario("implosion_faces_A2", {}, 5, 3)
    data = check_data(rep, "face_dims")
    assert list(data.values()) == [0, 3, 3, 8]


def test_casimir_dims():
    rep = run_scenario("casimir_sphere", {"algebra": "A1"}, 5, 3)
    assert check_data(rep, "reduced_dim")["reduced_dim"] == 4
    rep = run_scenario("casimir_sphere", {"algebra": "A1", "level": 2}, 5, 3)
    assert rep.all_passed
    for level in (3, "-8"):
        with pytest.raises(ConfigError):
            run_scenario("casimir_sphere", {"algebra": "A1", "level": level}, 5, 3)


@pytest.mark.parametrize("algebra", ["A1", "A2"])
def test_casimir_report_cannot_contradict_itself(monkeypatch, algebra):
    """With every fiber reported unstable, the stable record fails beside the reduction step it gates."""
    unstable_fibers(monkeypatch)
    rep = run_scenario("casimir_sphere", {"algebra": algebra}, 5, 3)
    statuses = {c.name: c.status for c in rep.checks}
    assert statuses["stable"] == statuses["reduced_dim"] == "fail"


def test_forced_failure_override():
    rep = run_scenario(
        "slodowy_moore_tachikawa",
        {"cartan_type": "A", "rank": 1, "n": 2, "expected_reduced_dim": 7},
        5,
        3,
    )
    assert not rep.all_passed
    assert any(c.status == "fail" and c.name == "reduced_dim" for c in rep.checks)


def test_add_merges_a_repeated_name_at_its_first_position():
    rep = ScenarioReport("s", {})
    rep.add("a", "first anchor", True, {"k": 1})
    rep.add("b", "b", True)
    rep.add("a", "second anchor", True)
    assert rep.checks == [Check("a", "first anchor", "pass", {"k": 1}), Check("b", "b", "pass")]


@pytest.mark.parametrize("verdicts", [(False, True), (True, False), (True, False, True)])
def test_add_is_the_conjunction_of_its_records(verdicts):
    for sampled in (False, True):
        rep = ScenarioReport("s", {})
        for ok in verdicts:
            rep.add("a", "anchor", ok, sampled=sampled)
        assert [c.status for c in rep.checks] == ["fail"]
        assert not rep.all_passed


def test_add_keeps_sampled_pass_while_every_record_passes():
    rep = ScenarioReport("s", {})
    for _ in range(3):
        rep.add("a", "anchor", True, sampled=True)
        assert rep.checks[0].status == "sampled-pass"


def test_add_takes_data_from_the_last_record_that_gave_data():
    rep = ScenarioReport("s", {})
    rep.add("a", "anchor", True, {"dim": 1})
    rep.add("a", "anchor", True, {"dim": 2})
    assert check_data(rep, "a") == {"dim": 2}
    rep.add("a", "anchor", True)
    rep.add("a", "anchor", False)
    assert rep.checks == [Check("a", "anchor", "fail", {"dim": 2})]


def test_unknown_scenario():
    with pytest.raises(ConfigError):
        run_scenario("nope", {}, 1, 3)


def test_reports_are_deterministic_under_seed():
    a = report_to_dict(run_scenario("casimir_sphere", {"algebra": "A1"}, 9, 4))
    b = report_to_dict(run_scenario("casimir_sphere", {"algebra": "A1"}, 9, 4))
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = report_to_dict(run_scenario("casimir_sphere", {"algebra": "A1"}, 10, 4))
    # a different seed may change sampled data but never verdicts
    assert all(ch["status"] != "fail" for ch in c["checks"])


def test_report_serialization_uses_exact_rationals():
    rep = run_scenario("c4_prepoisson_remark", {}, 2, 4)
    doc = json.dumps(report_to_dict(rep))
    assert "0." not in doc  # no decimal floats anywhere


def test_sampled_status_marks_finite_witnesses():
    rep = run_scenario("casimir_sphere", {"algebra": "A1"}, 2, 3)
    sampled = [c for c in rep.checks if c.status == "sampled-pass"]
    assert sampled and all("constant rank" in c.anchor for c in sampled)


def test_registry_lists_six_scenarios():
    assert sorted(REGISTRY) == [
        "c4_prepoisson_remark",
        "casimir_sphere",
        "decomposition_class_sl3",
        "implosion_faces_A2",
        "polyhedral_face_torus",
        "slodowy_moore_tachikawa",
    ]
    for spec in REGISTRY.values():
        assert spec.description and spec.identities
        assert all(isinstance(p, Param) for p in spec.params)


def test_polyhedral_point_face_dims():
    rep = run_scenario("polyhedral_face_torus", {"dim_t": 2}, seed=2, sample_count=3)
    assert check_data(rep, "face_point_fiber")["dim"] == 2
    assert check_data(rep, "face_codim1_fiber")["dim"] == 1
    assert check_data(rep, "face_full_fiber")["dim"] == 0


def test_polyhedral_point_face_samples_its_point_once(monkeypatch):
    """A point face draws nothing from the RNG, so its sample_count draws are one point, kept once."""
    faces = []

    class Recorded(poisson.AffineSubspace):
        def __init__(self, *args):
            super().__init__(*args)
            faces.append(self)

    monkeypatch.setattr(poisson, "AffineSubspace", Recorded)
    rep = run_scenario("polyhedral_face_torus", {"dim_t": 4}, seed=1, sample_count=8)
    assert rep.all_passed
    assert [len(face.sample_points) for face in faces] == [8, 8, 1]


@pytest.mark.parametrize("directions,dim_f", [([[1, 0], [2, 0]], 1), ([[0, 0]], 0)])
def test_polyhedral_dependent_directions(directions, dim_f):
    """dim F is the dimension of the span of the given directions, not their count."""
    rep = run_scenario("polyhedral_face_torus", {"dim_t": 2, "face_directions": directions}, seed=2, sample_count=3)
    assert rep.all_passed
    assert check_data(rep, "face_given_fiber") == {"dim": 2 - dim_f, "codim": 2 - dim_f}
    assert check_data(rep, "face_given_dimension") == {"reduced_dim": 2 * dim_f}


def block_diagonal(g, n):
    """G ⊕ ... ⊕ G (n blocks), built entry by entry."""
    width = len(g)
    big = [[Q(0)] * (n * width) for _ in range(n * width)]
    for k in range(n):
        for i in range(width):
            for j in range(width):
                big[k * width + i][k * width + j] = g[i][j]
    return tuple(tuple(r) for r in big)


@pytest.mark.parametrize("rank,n", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 3)])
def test_fibred_product_coisotropy_matches_block_diagonal_route(rank, n):
    """N x_c ... x_c N is coisotropic in N^n: coisotropic_check on G ⊕ ... ⊕ G, G the Gram matrix of Omega."""
    alg = lie.build_chevalley("A", rank)
    params = [[0] * rank, [1] + [0] * (rank - 1), [-2] + [1] * (rank - 1), [Q(3, 2)] * rank]
    sl = poisson.slodowy_slice(alg, lie.principal_sl2(alg), params)
    d = alg.dim
    for pt in sl.sample_points:
        base = [la.unit(d, i) + la.zeros(d) for i in range(d)]
        base += [la.zeros(d) + t for t in sl.tangent_basis(pt)]
        gram = gpd.omega_gram(alg, pt, base)
        width = len(base)
        big = block_diagonal(gram, n)
        # W by hand: g in every block, then each tangent direction in every block at once
        w = [la.unit(n * width, k * width + i) for k in range(n) for i in range(d)]
        for j in range(d, width):
            v = la.zeros(n * width)
            for k in range(n):
                v = la.add(v, la.unit(n * width, k * width + j))
            w.append(v)
        assert ref.det(gram) ** n == ref.det(big) != 0
        assert poisson.coisotropic_check(big, w) is True
        # g^n alone is coisotropic as well: the orthogonal of g in g x T S is g_xi x 0,
        # because T S meets the orbit tangent only in 0
        g_part = n * d
        assert poisson.coisotropic_check(big, w[:g_part]) is True
        # the diagonal tangent vectors without g^n are not
        assert poisson.coisotropic_check(big, w[g_part:]) is False
