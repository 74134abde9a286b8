import json
from fractions import Fraction as Q

import pytest

from symred import groupoid as gpd
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
    assert r2.check_data("reduced_dim")["reduced_dim"] == 6
    r3 = run_scenario("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 3}, 3, 3)
    assert r3.check_data("reduced_dim")["reduced_dim"] == 8
    assert r3.check_data("fiber_rank")["expected"] == 2


def test_moore_tachikawa_rejects_unsupported():
    with pytest.raises(ConfigError):
        run_scenario("slodowy_moore_tachikawa", {"cartan_type": "B", "rank": 2, "n": 2}, 1, 3)
    with pytest.raises(ConfigError):
        run_scenario("slodowy_moore_tachikawa", {"cartan_type": "A", "rank": 1, "n": 9}, 1, 3)


def test_decomposition_reduced_dim_is_ten():
    rep = run_scenario("decomposition_class_sl3", {}, 5, 3)
    assert rep.check_data("reduced_dim")["reduced_dim"] == 10
    assert rep.check_data("annihilator_two_route")["dim"] == 3


def test_implosion_face_dims():
    rep = run_scenario("implosion_faces_A2", {}, 5, 3)
    data = rep.check_data("face_dims")
    assert list(data.values()) == [0, 3, 3, 8]


def test_casimir_dims():
    rep = run_scenario("casimir_sphere", {"algebra": "A1"}, 5, 3)
    assert rep.check_data("reduced_dim")["reduced_dim"] == 4
    rep = run_scenario("casimir_sphere", {"algebra": "A1", "level": 2}, 5, 3)
    assert rep.all_passed
    for level in (3, "-8"):
        with pytest.raises(ConfigError):
            run_scenario("casimir_sphere", {"algebra": "A1", "level": level}, 5, 3)


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
    assert rep.check_data("a") == {"dim": 2}
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
    assert rep.check_data("face_point_fiber")["dim"] == 2
    assert rep.check_data("face_codim1_fiber")["dim"] == 1
    assert rep.check_data("face_full_fiber")["dim"] == 0


@pytest.mark.parametrize("directions,dim_f", [([[1, 0], [2, 0]], 1), ([[0, 0]], 0)])
def test_polyhedral_dependent_directions(directions, dim_f):
    """dim F is the dimension of the span of the given directions, not their count."""
    rep = run_scenario("polyhedral_face_torus", {"dim_t": 2, "face_directions": directions}, seed=2, sample_count=3)
    assert rep.all_passed
    assert rep.check_data("face_given_fiber") == {"dim": 2 - dim_f, "codim": 2 - dim_f}
    assert rep.check_data("face_given_dimension") == {"reduced_dim": 2 * dim_f}


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
    """The factor-Gram route of the Moore-Tachikawa scenario against coisotropic_check on G ⊕ ... ⊕ G."""
    alg = lie.build_chevalley("A", rank)
    params = [[0] * rank, [1] + [0] * (rank - 1), [-2] + [1] * (rank - 1), [Q(3, 2)] * rank]
    sl = poisson.SlodowySlice(alg, lie.principal_sl2(alg), params)
    d = alg.dim
    for pt in sl.sample_points:
        base = [la.unit(d, i) + la.zeros(d) for i in range(d)]
        base += [la.zeros(d) + t for t in sl.tangent_basis(pt)]
        gram = gpd.omega_gram(alg, pt, base)
        width = len(base)
        big = block_diagonal(gram, n)
        w, images = scenarios._fibred_product_tangent(gram, d, n)
        # W by hand: g in every block, then each tangent direction in every block at once
        by_hand = [la.unit(n * width, k * width + i) for k in range(n) for i in range(d)]
        for j in range(d, width):
            v = la.zeros(n * width)
            for k in range(n):
                v = la.add(v, la.unit(n * width, k * width + j))
            by_hand.append(v)
        assert w == by_hand
        assert images == [la.mat_vec(big, v) for v in w]
        assert la.det(gram) ** n == la.det(big) != 0
        assert poisson.orthogonal_in_span(images, w, n * width) is poisson.coisotropic_check(big, w) is True
        # g^n alone is coisotropic as well: the orthogonal of g in g x T S is g_xi x 0,
        # because T S meets the orbit tangent only in 0
        g_part = n * d
        assert poisson.orthogonal_in_span(images[:g_part], w[:g_part], n * width) is True
        assert poisson.coisotropic_check(big, w[:g_part]) is True
        # the diagonal tangent vectors without g^n are not: both routes reject
        assert poisson.orthogonal_in_span(images[g_part:], w[g_part:], n * width) is False
        assert poisson.coisotropic_check(big, w[g_part:]) is False
