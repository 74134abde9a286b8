"""Batch front end: run scenario suites from a JSON config, emit reports.

Config document::

    {
      "scenarios": [{"name": "casimir_sphere", "params": {"algebra": "A1"}}],
      "seed": 42,
      "sample_count": 3,
      "output_path": "report.json"
    }

Scenarios run one after another in this process and are merged in a fixed
order, so the report is deterministic for a fixed config and seed
(rationals are serialized as exact "p/q" strings).  A ``parallel`` key left
in an older config is ignored; any other unknown key, at the top level or in
a scenario entry, is a configuration error.  Exit code 0 when every check
passed, 1 when a check failed, 2 on a configuration error or a report that
cannot be written, 3 on any other error in a scenario.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

from . import __version__
from .errors import ConfigError, SymredError
from .scenarios import REGISTRY, report_to_dict, run_scenario


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[tuple[str, dict], ...]
    seed: int = 0
    sample_count: int = 3
    output_path: str | None = None


# ``parallel`` is left in older configs and ignored
CONFIG_KEYS = ("scenarios", "seed", "sample_count", "output_path", "parallel")
ENTRY_KEYS = ("name", "params")


def _reject_unknown_keys(document: dict, allowed: tuple[str, ...], where: str) -> None:
    for key in document:
        if key not in allowed:
            raise ConfigError(f"{where}{key} is not a known key; the keys are {', '.join(allowed)}")


def parse_config(document: dict) -> RunConfig:
    if not isinstance(document, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown_keys(document, CONFIG_KEYS, "")
    raw = document.get("scenarios")
    if not isinstance(raw, list) or not raw:
        raise ConfigError("config field 'scenarios' must be a non-empty list")
    scenarios = []
    for i, entry in enumerate(raw):
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError(f"scenarios[{i}] must be an object with a 'name' field")
        name = entry["name"]
        if not isinstance(name, str):
            raise ConfigError(f"scenarios[{i}]: name {name!r} is not a string")
        if name not in REGISTRY:
            raise ConfigError(f"scenarios[{i}]: unknown scenario {name!r}")
        _reject_unknown_keys(entry, ENTRY_KEYS, f"scenarios[{i}]: ")
        params = entry.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"scenarios[{i}].params must be an object")
        REGISTRY[name].resolve(params)
        scenarios.append((name, params))
    seed = document.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    sample_count = document.get("sample_count", 3)
    if type(sample_count) is not int or sample_count < 1:
        raise ConfigError("sample_count must be a positive integer")
    output_path = document.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError("output_path must be a string")
    return RunConfig(tuple(scenarios), seed, sample_count, output_path)


def run(config: RunConfig) -> tuple[dict, int]:
    """Execute every scenario; returns (report document, exit code)."""
    jobs = config.scenarios
    reports = [run_scenario(name, params, config.seed, config.sample_count) for name, params in jobs]
    # deterministic merge order: by name, then position in the config
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i))
    reports = [reports[i] for i in order]
    passed = sum(1 for r in reports for c in r.checks if c.status == "pass")
    failed = sum(1 for r in reports for c in r.checks if c.status == "fail")
    sampled = sum(1 for r in reports for c in r.checks if c.status == "sampled-pass")
    document = {
        "version": __version__,
        "seed": config.seed,
        "sample_count": config.sample_count,
        "scenarios": [report_to_dict(r) for r in reports],
        "summary": {"passed": passed, "failed": failed, "sampled": sampled},
    }
    code = 0 if failed == 0 else 1
    return document, code


def render_json(document: dict) -> str:
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def list_scenarios() -> str:
    lines = []
    for name in sorted(REGISTRY):
        spec = REGISTRY[name]
        lines.append(f"{name}")
        lines.append(f"  {spec.description}")
        lines += [f"  param {p}" for p in spec.params] or ["  params: none"]
        for ident in spec.identities:
            lines.append(f"  certifies: {ident}")
    return "\n".join(lines) + "\n"


def _summary_lines(document: dict) -> list[str]:
    lines = []
    for rep in document["scenarios"]:
        mark = "ok" if rep["all_passed"] else "FAILED"
        lines.append(f"[{mark}] {rep['scenario_name']} ({len(rep['checks'])} checks)")
        for c in rep["checks"]:
            if c["status"] == "fail":
                lines.append(f"    fail: {c['name']}  [{c['anchor']}]  {c['data']}")
    s = document["summary"]
    lines.append(
        f"checks: {s['passed']} passed, {s['failed']} failed, {s['sampled']} sampled-pass"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="symred", description="exact reduction check suites")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute scenarios from a JSON config")
    run_p.add_argument("config", help="path to the JSON config document")
    run_p.add_argument("--report", help="write the JSON report to this path")
    run_p.add_argument("--seed", type=int, help="override the config seed")
    run_p.add_argument("--sample-count", type=int, help="override the config sample count")
    sub.add_parser("list-scenarios", help="print the registered scenarios")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        sys.stdout.write(list_scenarios())
        return 0

    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return 2
    overrides = {"seed": args.seed, "sample_count": args.sample_count}
    if isinstance(document, dict):
        document.update((key, value) for key, value in overrides.items() if value is not None)
    try:
        config = parse_config(document)
        report, code = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SymredError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    out_path = args.report or config.output_path
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(render_json(report))
        except OSError as exc:
            print(f"error: cannot write the report to {out_path}: {exc.strerror}", file=sys.stderr)
            return 2
    for line in _summary_lines(report):
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
