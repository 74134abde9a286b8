import json

import pytest

from symred import cli
from symred.errors import ConfigError


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


GOOD = {
    "scenarios": [
        {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 1, "n": 3}},
        {"name": "polyhedral_face_torus", "params": {"dim_t": 2}},
    ],
    "seed": 5,
    "sample_count": 3,
}


def test_run_exit_zero_and_report(tmp_path, capsys):
    cfg = write_config(tmp_path, GOOD)
    out = tmp_path / "report.json"
    code = cli.main(["run", cfg, "--report", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == cli.VERSION
    assert doc["seed"] == 5
    assert doc["summary"]["failed"] == 0
    names = [s["scenario_name"] for s in doc["scenarios"]]
    assert names == sorted(names)
    mt = next(s for s in doc["scenarios"] if s["scenario_name"] == "slodowy_moore_tachikawa")
    red = next(c for c in mt["checks"] if c["name"] == "reduced_dim")
    assert red["data"]["reduced_dim"] == 8


def test_run_deterministic(tmp_path):
    cfg = write_config(tmp_path, GOOD)
    out1, out2 = (tmp_path / f"r{i}.json" for i in range(2))
    assert cli.main(["run", cfg, "--report", str(out1)]) == 0
    assert cli.main(["run", cfg, "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_unknown_scenario_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"scenarios": [{"name": "foo"}]})
    assert cli.main(["run", cfg]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_malformed_json_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_missing_file_exit_two(tmp_path):
    assert cli.main(["run", str(tmp_path / "absent.json")]) == 2


def test_bad_parameter_exit_two(tmp_path):
    cfg = write_config(
        tmp_path,
        {"scenarios": [{"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "B", "rank": 2, "n": 2}}]},
    )
    assert cli.main(["run", cfg]) == 2


def test_forced_failure_exit_one(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {
            "scenarios": [
                {
                    "name": "slodowy_moore_tachikawa",
                    "params": {"cartan_type": "A", "rank": 1, "n": 2, "expected_reduced_dim": 7},
                }
            ]
        },
    )
    out = tmp_path / "r.json"
    assert cli.main(["run", cfg, "--report", str(out)]) == 1
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] >= 1
    mt = doc["scenarios"][0]
    assert any(c["status"] == "fail" for c in mt["checks"])
    # no result is dropped: the failing check is present with its data
    failing = next(c for c in mt["checks"] if c["status"] == "fail")
    assert failing["data"]["expected"] == 7


def test_config_validation():
    with pytest.raises(ConfigError):
        cli.parse_config({"scenarios": []})
    with pytest.raises(ConfigError):
        cli.parse_config({"scenarios": [{"name": "casimir_sphere"}], "seed": -1})
    with pytest.raises(ConfigError):
        cli.parse_config({"scenarios": [{"name": "casimir_sphere"}], "sample_count": 0})
    with pytest.raises(ConfigError):
        cli.parse_config([1, 2])
    with pytest.raises(ConfigError):
        cli.parse_config({"scenarios": [{"name": "casimir_sphere", "params": 3}]})
    cfg = cli.parse_config({"scenarios": [{"name": "casimir_sphere"}]})
    assert cfg.seed == 0 and cfg.sample_count == 3


def test_seed_and_samples_override(tmp_path):
    cfg = write_config(tmp_path, {"scenarios": [{"name": "polyhedral_face_torus", "params": {"dim_t": 2}}], "seed": 1})
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert cli.main(["run", cfg, "--report", str(out1), "--seed", "9", "--sample-count", "4"]) == 0
    doc = json.loads(out1.read_text())
    assert doc["seed"] == 9 and doc["sample_count"] == 4
    assert cli.main(["run", cfg, "--report", str(out2), "--seed", "9", "--sample-count", "4"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_output_path_from_config(tmp_path):
    out = tmp_path / "via_config.json"
    doc = dict(GOOD)
    doc["output_path"] = str(out)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", cfg]) == 0
    assert out.exists()


def test_list_scenarios(capsys):
    assert cli.main(["list-scenarios"]) == 0
    text1 = capsys.readouterr().out
    for name in (
        "slodowy_moore_tachikawa",
        "decomposition_class_sl3",
        "implosion_faces_A2",
        "c4_prepoisson_remark",
        "casimir_sphere",
        "polyhedral_face_torus",
    ):
        assert name in text1
    assert cli.main(["list-scenarios"]) == 0
    assert capsys.readouterr().out == text1
    lines = [l for l in text1.splitlines() if l and not l.startswith(" ")]
    assert lines == sorted(lines)
    assert "certifies:" in text1


def test_bad_parameter_exit_two_parallel(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "scenarios": [
                {"name": "polyhedral_face_torus", "params": {"dim_t": 2}},
                {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "D", "rank": 4, "n": 2}},
            ],
            "parallel": True,
        },
    )
    assert cli.main(["run", cfg]) == 2


def test_parallel_key_is_ignored(tmp_path):
    base = {"scenarios": [{"name": "polyhedral_face_torus", "params": {"dim_t": 2}}], "seed": 3}
    for value in (True, False, "yes"):
        assert cli.parse_config(dict(base, parallel=value)) == cli.parse_config(base)
    out1, out2 = tmp_path / "serial.json", tmp_path / "old.json"
    assert cli.main(["run", write_config(tmp_path, base, "a.json"), "--report", str(out1)]) == 0
    old = write_config(tmp_path, dict(base, parallel=True), "b.json")
    assert cli.main(["run", old, "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
