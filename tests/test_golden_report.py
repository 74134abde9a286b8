"""Pinned report bytes: a refactor must not change a single byte of output.

`tests/data/golden_report.json` holds the rendered reports of three configs
and their exit codes.  It is never regenerated to make a change pass; a
difference here means the change altered what symred reports.

To print the current rendering (for inspection only)::

    PYTHONPATH=src python tests/test_golden_report.py
"""

import json
from pathlib import Path

from symred import cli

GOLDEN = Path(__file__).parent / "data" / "golden_report.json"

CONFIGS = {
    # all six scenarios at the parameters the README states (defaults elsewhere)
    "readme_suite": {
        "scenarios": [
            {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 1, "n": 3}},
            {"name": "decomposition_class_sl3", "params": {}},
            {"name": "implosion_faces_A2", "params": {}},
            {"name": "c4_prepoisson_remark", "params": {}},
            {"name": "casimir_sphere", "params": {"algebra": "A1"}},
            {"name": "polyhedral_face_torus", "params": {"dim_t": 3}},
        ],
        "seed": 42,
        "sample_count": 3,
    },
    # a forced failure, so the failing-check rendering is pinned as well
    "forced_failure": {
        "scenarios": [
            {
                "name": "slodowy_moore_tachikawa",
                "params": {"cartan_type": "A", "rank": 1, "n": 2, "expected_reduced_dim": 5},
            }
        ],
        "seed": 42,
        "sample_count": 3,
    },
    # type A past rank 1, where non-simple roots make the structure-constant
    # signs reach the slice and Casimir computations
    "type_a_slices": {
        "scenarios": [
            {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 2, "n": 3}},
            {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 3, "n": 2}},
            {"name": "casimir_sphere", "params": {"algebra": "A2"}},
        ],
        "seed": 42,
        "sample_count": 3,
    },
}


def render_all() -> str:
    out = {}
    for name, document in CONFIGS.items():
        report, code = cli.run(cli.parse_config(document))
        out[name] = {"exit_code": code, "report": report}
    return cli.render_json(out)


def test_reports_match_golden_bytes():
    assert render_all() == GOLDEN.read_text(encoding="utf-8")


def test_golden_covers_pass_and_fail():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert golden["readme_suite"]["exit_code"] == 0
    assert golden["forced_failure"]["exit_code"] == 1
    assert golden["type_a_slices"]["exit_code"] == 0
    names = [s["scenario_name"] for s in golden["readme_suite"]["report"]["scenarios"]]
    assert sorted(names) == sorted(e["name"] for e in CONFIGS["readme_suite"]["scenarios"])


if __name__ == "__main__":
    print(render_all(), end="")
