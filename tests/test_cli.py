import dataclasses
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

import symred
from symred import cli, scenarios
from symred.errors import ConfigError, NotOnModel


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
    assert doc["version"] == symred.__version__
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


def test_non_utf8_config_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: invalid JSON") and err.count("\n") == 1
    assert "Traceback" not in err


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


def one_scenario(name, params, **top):
    return dict({"scenarios": [{"name": name, "params": params}]}, **top)


MT = "slodowy_moore_tachikawa"

# (config, the key its one-line error must blame); each exits 2
BAD_INPUTS = {
    "rank-string": (one_scenario(MT, {"rank": "2"}), "rank"),
    "rank-bool": (one_scenario(MT, {"rank": True}), "rank"),
    "n-bool": (one_scenario(MT, {"n": True}), "n"),
    "unknown-key-rnak": (one_scenario(MT, {"rnak": 2}), "rnak"),
    "level-not-rational": (one_scenario("casimir_sphere", {"level": "abc"}), "level"),
    "level-float": (one_scenario("casimir_sphere", {"level": 0.5}), "level"),
    "level-list": (one_scenario("casimir_sphere", {"level": [1]}), "level"),
    "level-negative": (one_scenario("casimir_sphere", {"level": "-8"}), "level"),
    "level-zero-denominator": (one_scenario("casimir_sphere", {"level": "1/0"}), "level"),
    "dim_t-bool": (one_scenario("polyhedral_face_torus", {"dim_t": True}), "dim_t"),
    "face_directions-string": (one_scenario("polyhedral_face_torus", {"face_directions": "x"}), "face_directions"),
    "face_directions-length": (
        one_scenario("polyhedral_face_torus", {"dim_t": 2, "face_directions": [[1, 2, 3]]}), "face_directions"),
    "expected_reduced_dim-bool": (one_scenario(MT, {"expected_reduced_dim": True}), "expected_reduced_dim"),
    "unknown-key-implosion": (one_scenario("implosion_faces_A2", {"foo": 1}), "foo"),
    "seed-bool": (one_scenario("c4_prepoisson_remark", {}, seed=True), "seed"),
    "sample_count-bool": (one_scenario("c4_prepoisson_remark", {}, sample_count=True), "sample_count"),
    "unknown-entry-key-parmas": ({"scenarios": [{"name": "c4_prepoisson_remark", "parmas": {}}]}, "parmas"),
    "unknown-top-key-sead": (one_scenario("c4_prepoisson_remark", {}, sead=5), "sead"),
    "unknown-top-key-smaple_count": (one_scenario("c4_prepoisson_remark", {}, smaple_count=9), "smaple_count"),
    "name-list": ({"scenarios": [{"name": ["casimir_sphere"]}]}, "name"),
    "name-object": ({"scenarios": [{"name": {"casimir_sphere": {}}}]}, "name"),
}


@pytest.mark.parametrize("label", sorted(BAD_INPUTS))
def test_bad_input_exit_two_names_the_key(tmp_path, capsys, label):
    doc, key = BAD_INPUTS[label]
    assert cli.main(["run", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: "), err
    # the message blames the key first, after the scenario name if there is one
    blamed = err.removeprefix("config error: ").split(": ", 1)[-1]
    assert blamed.startswith(key + " "), err


def cli_env():
    """The environment for `python -m symred.cli` that imports this checkout's symred."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(symred.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_bad_input_no_traceback_plain_or_optimized(tmp_path):
    """`python -m symred.cli run` on every bad input: exit 2, one line, no traceback, with and without -O."""
    env = cli_env()
    runs = [(label, flags, write_config(tmp_path, doc, f"{label}.json"))
            for label, (doc, _) in BAD_INPUTS.items() for flags in ([], ["-O"])]

    def cli_run(job):
        label, flags, path = job
        done = subprocess.run([sys.executable, *flags, "-m", "symred.cli", "run", path],
                              capture_output=True, text=True, timeout=120, env=env)
        return label, flags, done

    with ThreadPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(cli_run, runs))
    bad = [(label, flags, done.returncode, done.stderr) for label, flags, done in results
           if done.returncode != 2 or "Traceback" in done.stderr or len(done.stderr.splitlines()) != 1]
    assert not bad, bad


def test_unwritable_report_exit_two_plain_or_optimized(tmp_path):
    cfg = write_config(tmp_path, one_scenario("c4_prepoisson_remark", {}))
    report = tmp_path / "no" / "such" / "dir" / "r.json"
    for flags in ([], ["-O"]):
        done = subprocess.run([sys.executable, *flags, "-m", "symred.cli", "run", cfg, "--report", str(report)],
                              capture_output=True, text=True, timeout=120, env=cli_env())
        assert done.returncode == 2, (flags, done.stderr)
        assert len(done.stderr.splitlines()) == 1 and "Traceback" not in done.stderr, (flags, done.stderr)
        assert str(report) in done.stderr
    assert not report.exists()


@pytest.mark.parametrize("error", [ZeroDivisionError("boom"), NotOnModel("off the model")])
def test_crashing_scenario_exit_three(tmp_path, capsys, monkeypatch, error):
    def crash(report, values, rng, sample_count):
        raise error

    spec = scenarios.REGISTRY["c4_prepoisson_remark"]
    monkeypatch.setitem(scenarios.REGISTRY, spec.name, dataclasses.replace(spec, fn=crash))
    cfg = write_config(tmp_path, one_scenario("c4_prepoisson_remark", {}))
    assert cli.main(["run", cfg]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert "c4_prepoisson_remark" in err and type(error).__name__ in err


def test_list_scenarios_prints_every_declared_parameter(capsys):
    assert cli.main(["list-scenarios"]) == 0
    blocks = {}
    for line in capsys.readouterr().out.splitlines():
        if not line.startswith(" "):
            name = line
        blocks.setdefault(name, []).append(line)
    assert sorted(blocks) == sorted(scenarios.REGISTRY)
    for name, spec in scenarios.REGISTRY.items():
        printed = [line.split(":")[0] for line in blocks[name] if line.startswith("  param ")]
        assert printed == [f"  param {p.name}" for p in spec.params], name
