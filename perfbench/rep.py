"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/rep.py --workload NAME --seed N --mode setup|run|trace [--spans PATH]

`run.py` starts this file once per repetition, so every repetition starts
with a cold ``build_chevalley`` cache, as a CLI user's run does.  It prints
one JSON object on its last line of output:

* ``setup_done``: ``time.monotonic()`` after ``import symred`` and the
  config parse (the parent subtracts its own launch time), and
  ``setup_probe_s``, the host's pace just after it (``pace.py``);
* ``verdict_s``: wall time from the parsed config to the rendered report,
  or from the first ``build_chevalley`` to the last certification;
* ``verdict_ref_s``: the same interval at the reference pace, and
  ``probe_s``, the median time of the pace probes in it (``pace.py``);
* the checks the report makes, the known answers it is held to, the
  report's sha256, and the peak resident set size;
* with ``--mode trace``, the tracer's per-name aggregates.

With ``--mode setup`` it stops after the config parse.
"""

import time

import argparse
import hashlib
import json
import os
import resource
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


# The six registered scenarios, as a README user runs them.
SUITE = (
    {"name": "decomposition_class_sl3", "params": {}},
    {"name": "implosion_faces_A2", "params": {}},
    {"name": "casimir_sphere", "params": {"algebra": "A2"}},
    {"name": "c4_prepoisson_remark", "params": {}},
    {"name": "polyhedral_face_torus", "params": {"dim_t": 4}},
    {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 1, "n": 3}},
)

# Scenario workloads: the config each one runs; the seed is added per run.
CONFIGS = {
    "slice_mt": {
        "scenarios": [
            {"name": "slodowy_moore_tachikawa", "params": {"cartan_type": "A", "rank": 2, "n": 3}}
        ],
        "sample_count": 5,
        "parallel": False,
    },
    "scenario_suite": {"scenarios": list(SUITE), "sample_count": 8, "parallel": False},
}
WORKLOADS = ("slice_mt", "scenario_suite", "algebra_certify")

# Span names the per-layer table says each workload moves.  A traced run
# of that workload that records zero calls for one of them fails: a
# counter that reads zero over no work is a wiring bug, not a result.
MOVES = {
    "linalg.rref": ("slice_mt", "scenario_suite"),
    "linalg.rank": ("slice_mt", "scenario_suite"),
    "linalg.nullspace": ("slice_mt", "scenario_suite"),
    "linalg.dot": WORKLOADS,
    "linalg.mat_vec": WORKLOADS,
    "linalg.extend_to_basis": ("slice_mt",),
    "lie.build_chevalley": ("algebra_certify",),
    "lie.bracket": ("algebra_certify",),
    "lie.killing_form": ("algebra_certify",),
    "lie.verify_jacobi": ("algebra_certify",),
    "lie.verify_killing_invariance": ("algebra_certify",),
    "lie.from_matrix": ("scenario_suite",),
    "lie.coadjoint_group_action": ("scenario_suite",),
    "poisson.algebroid_fiber": ("slice_mt", "scenario_suite"),
    "poisson.stabilizer_subalgebra": ("slice_mt", "scenario_suite"),
    "poisson.bivector_at": ("slice_mt", "scenario_suite"),
    "groupoid.omega_eval": ("slice_mt", "scenario_suite"),
    "groupoid.omega_gram": ("slice_mt", "scenario_suite"),
    "groupoid.chamber_face_fiber": ("scenario_suite",),
    "reduction.kernel_identity_check": ("slice_mt", "scenario_suite"),
    "reduction.decomposition_form_check": ("scenario_suite",),
    "reduction.dimension_formula_check": ("slice_mt", "scenario_suite"),
    "scenarios.run_scenario": ("slice_mt", "scenario_suite"),
    "scenarios.slodowy_moore_tachikawa": ("slice_mt", "scenario_suite"),
    "scenarios.decomposition_class_sl3": ("scenario_suite",),
    "scenarios.implosion_faces_A2": ("scenario_suite",),
    "scenarios.casimir_sphere": ("scenario_suite",),
    "scenarios.c4_prepoisson_remark": ("scenario_suite",),
    "scenarios.polyhedral_face_torus": ("scenario_suite",),
    "cli.run": ("slice_mt", "scenario_suite"),
    "cli.render_json": ("slice_mt", "scenario_suite"),
}


# -- known answers -------------------------------------------------------------
# Values from the paper's worked examples (and the README's A1 slice case),
# held here rather than read from the report's own "expected" fields.


def _reduced_dim(data):
    return data["reduced_dim"]["reduced_dim"]


def scenario_answers(config: dict, document: dict) -> list:
    """(label, got, want) for every known answer the report must match."""
    answers = [(
        "scenarios reported",
        sorted(r["scenario_name"] for r in document["scenarios"]),
        sorted(s["name"] for s in config["scenarios"]),
    )]
    for rep in document["scenarios"]:
        name = rep["scenario_name"]
        data = {c["name"]: c["data"] for c in rep["checks"]}
        if name == "slodowy_moore_tachikawa":
            params = rep["params"]
            want_dim, want_rank = {(2, 3): (22, 4), (1, 3): (8, 2)}[(params["rank"], params["n"])]
            ranks = data["fiber_rank"]["ranks"]
            answers.append((f"slice A{params['rank']} n={params['n']} reduced_dim", _reduced_dim(data), want_dim))
            answers.append((f"slice A{params['rank']} n={params['n']} fiber ranks",
                            sorted(set(ranks)), [want_rank]))
        elif name == "decomposition_class_sl3":
            answers.append(("sl3 class reduced_dim", _reduced_dim(data), 10))
        elif name == "implosion_faces_A2":
            answers.append(("A2 face dims", data["face_dims"],
                            {"face_interior": 0, "face_a1": 3, "face_a2": 3, "face_a1_a2": 8}))
        elif name == "casimir_sphere":
            answers.append(("Casimir A2 reduced_dim", _reduced_dim(data), 14))
        elif name == "c4_prepoisson_remark":
            answers.append(("C4 reduced_dim", _reduced_dim(data), 2))
    return answers


# -- workloads -------------------------------------------------------------------


def run_scenarios(cli, config):
    document, code = cli.run(config)
    text = cli.render_json(document)
    checks = [c["status"] for r in document["scenarios"] for c in r["checks"]]
    return text, document, code, checks


def certify_algebras(lie, tracer):
    """build_chevalley + verify_jacobi for every supported type, then Killing(G2)."""
    verdicts = {}
    for cartan_type, rank in sorted(lie.SUPPORTED):
        label = f"{cartan_type}{rank}" if cartan_type != "G2" else "G2"
        if tracer is not None:
            tracer.set_request(label)
        verdicts[f"jacobi {label}"] = lie.build_chevalley(cartan_type, rank).verify_jacobi()
    if tracer is not None:
        tracer.set_request("G2")
    verdicts["killing_invariance G2"] = lie.build_chevalley("G2", 2).verify_killing_invariance()
    return verdicts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    parser.add_argument("--spans", help="write the spans of a traced run here")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import symred
    from symred import cli, lie

    if not os.path.abspath(symred.__file__).startswith(SRC + os.sep):
        print(f"symred imported from {symred.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    config = None
    if args.workload in CONFIGS:
        document = dict(CONFIGS[args.workload], seed=args.seed)
        config = cli.parse_config(document)
    setup_done = time.monotonic()
    from pace import Pacer, current_pace_s

    setup_probe_s = current_pace_s()
    if args.mode == "setup":
        print(json.dumps({"setup_done": setup_done, "setup_probe_s": setup_probe_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(symred)

    pacer = Pacer()
    pacer.start()
    if config is not None:
        text, report, code, checks = run_scenarios(cli, config)
    else:
        verdicts = certify_algebras(lie, tracer)
        text = json.dumps(verdicts, sort_keys=True)
        code = 0 if all(verdicts.values()) else 1
        checks = ["pass" if ok else "fail" for ok in verdicts.values()]
    pacer.stop()

    if config is not None:
        answers = scenario_answers(document, report)
    else:
        answers = [(name, ok, True) for name, ok in verdicts.items()]
    mismatches = [label for label, got, want in answers if got != want]
    checks_failed = sum(1 for s in checks if s == "fail")
    if (code != 0) != (checks_failed > 0):
        checks_failed += 1  # the exit code contradicts the checks
    out = {
        "setup_done": setup_done,
        "setup_probe_s": setup_probe_s,
        "verdict_s": pacer.wall_s(),
        "verdict_ref_s": pacer.reference_s(),
        "probe_s": pacer.median_probe_s(),
        "checks": len(checks),
        "checks_failed": checks_failed,
        "answers": len(answers),
        "answer_mismatch": mismatches,
        "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        summary = tracer.summary()
        cache = getattr(lie.build_chevalley, "__wrapped__", lie.build_chevalley)
        summary["cold_builds"] = cache.cache_info().misses
        summary["zero_call_failures"] = [
            name for name, where in MOVES.items()
            if args.workload in where and tracer.calls_of(name) == 0
        ]
        out["trace"] = summary
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
