"""symred benchmark: time to verdict on three closed-loop workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition of the workload is one
client in a fresh interpreter (`rep.py`), started only after the previous
one ended.  Repetitions continue until S seconds have passed and at least
three have run; the end-to-end metrics are medians over them.  With
``--trace 1`` the repetitions run under the tracer instead and the
per-layer metrics are printed.  The metric names and units come from
``BENCHMARK.json``; see ``perfbench/README.md`` for what each one means.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when one failed, and 2 when the benchmark could not run.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from pace import REF_PROBE_S
from rep import SUITE, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REP = os.path.join(HERE, "rep.py")
OUT = os.path.join(ROOT, "perfbench-out")

MIN_REPS = 3
SETUP_PROBES = 9
TRACED_REPS = 2
# no repetition starts unless it is expected to end within this many
# seconds of the start, so a run ends well inside its 180 s limit
BUDGET_S = 150.0
LAYER_MODULES = ("linalg", "lie", "poisson", "groupoid", "reduction", "scenarios")
# Per-layer times that some workload never reaches: printed by a traced run
# and kept in its layers file, but not JSON metrics, because a reported time
# must vary as measured and these read exactly 0 on every run of such a
# workload.
FILE_ONLY_TIMES = (
    "lie.verify_jacobi.total_s", "lie.verify_killing_invariance.total_s",
    "lie.coadjoint_group_action.total_s", "poisson.algebroid_fiber.self_s",
    "poisson.algebroid_fiber.total_s", "poisson.stabilizer_subalgebra.total_s",
    "groupoid.omega_gram.total_s", "groupoid.chamber_face_fiber.total_s",
    "reduction.kernel_identity_check.self_s", "reduction.kernel_identity_check.total_s",
    "reduction.decomposition_form_check.total_s", "reduction.dimension_formula_check.total_s",
    "cli.render_json.total_s",
)


class BenchError(Exception):
    pass


def calibrate() -> float:
    """A fixed stdlib-only Fraction loop; its time tracks the host, not symred."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 20001):
        acc += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, i % 11 + 1)
    elapsed = time.perf_counter() - start
    if acc != Fraction(1888373, 554400):
        raise BenchError("calibration loop computed a wrong sum")
    return elapsed


class Harness:
    """One run: starts the repetitions of one workload and seed, in order."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.deadline = self.start + 175.0
        self.calibration: list[float] = []

    def child(self, mode: str, spans: str = "") -> dict:
        """Run rep.py once and return its result, with setup_wall_s, setup_s
        (the set-up time at the reference pace) and cpu_s added."""
        cmd = [sys.executable, REP, "--workload", self.workload, "--seed", str(self.seed), "--mode", mode]
        if spans:
            cmd += ["--spans", spans]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        launch = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - launch))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} repetition of {self.workload} ran past the time limit") from None
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        if proc.returncode != 0:
            raise BenchError(f"{mode} repetition of {self.workload} exited {proc.returncode}:\n"
                             f"{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["setup_wall_s"] = out["setup_done"] - launch
        out["setup_s"] = out["setup_wall_s"] * REF_PROBE_S / out["setup_probe_s"]
        out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return out

    def calibrated(self, mode: str, spans: str = "") -> dict:
        """`child`, after one calibration loop."""
        self.calibration.append(calibrate())
        return self.child(mode, spans)

    def repeat(self, mode: str, seconds: float, min_reps: int, spans: str = "") -> list:
        """Closed loop: run until `seconds` have passed and `min_reps` have run.

        Stops early when the next repetition, as long as the last one, would
        end more than BUDGET_S after the start of the run.
        """
        start = time.monotonic()
        results = []
        while True:
            t0 = time.monotonic()
            results.append(self.calibrated(mode, spans))
            now = time.monotonic()
            if len(results) >= min_reps and now - start >= seconds:
                return results
            if now + (now - t0) > self.start + BUDGET_S:
                return results


# -- per-layer metrics ---------------------------------------------------------


def _span(summary: dict, name: str) -> dict:
    return summary["spans"].get(name, {})


def _share(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 0.0


def layer_value(name: str, traced: list, untraced: dict):
    """Value of one per-layer metric from the traced repetitions' summaries."""
    first = traced[0]["trace"]

    def med(of_trace):
        return statistics.median(of_trace(r["trace"]) for r in traced)

    if name == "bench.traced_verdict_ref_s":
        return statistics.median(r["verdict_ref_s"] for r in traced)
    if name == "bench.trace_overhead":
        return statistics.median(r["verdict_ref_s"] for r in traced) / untraced["verdict_ref_s"]
    if name in ("bench.verdict_s", "bench.cpu_s", "bench.probe_s"):
        return untraced[name.split(".", 1)[1]]
    if name == "linalg.fraction_new":
        return first["fraction_new"]
    if name.startswith("linalg.fraction_new.in_"):
        prefix = name.rsplit("_", 1)[1] + "."
        return sum(v["fraction_new"] for k, v in first["spans"].items() if k.startswith(prefix))
    if name == "lie.build_chevalley.cold_builds":
        return first["cold_builds"]
    if name == "linalg.dot.nonzero_pair_share":
        dot = _span(first, "linalg.dot")
        return _share(dot.get("nonzero_pairs", 0), dot.get("pairs", 0))
    if name == "linalg.extend_to_basis.added_share":
        ext = _span(first, "linalg.extend_to_basis")
        return _share(ext.get("added", 0), ext.get("offered", 0))
    span, field = name.rsplit(".", 1)
    if span in LAYER_MODULES and field == "self_s":
        return med(lambda t: sum(v["self_s"] for k, v in t["spans"].items() if k.startswith(span + ".")))
    if field in ("self_s", "total_s"):
        return med(lambda t: _span(t, span).get(field, 0.0))
    return _span(first, span).get(field, 0)


def counts_of(summary: dict) -> dict:
    """Every count in a traced summary, without the times."""
    spans = {k: {f: v for f, v in e.items() if not f.endswith("_s")} for k, e in summary["spans"].items()}
    return dict(spans=spans, fraction_new=summary["fraction_new"],
                cold_builds=summary["cold_builds"], span_count=summary["span_count"])


# -- main ------------------------------------------------------------------------


class Tally:
    """Checks attempted and failed, with a message for each kind of failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int, message: str):
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.messages.append(message)

    def check(self, ok: bool, message: str):
        self.add(1, 0 if ok else 1, message)

    def reps(self, reps: list):
        for r in reps:
            self.add(r["checks"], r["checks_failed"], f"{r['checks_failed']} report checks failed")
            self.add(r["answers"], len(r["answer_mismatch"]),
                     "known answers contradicted: " + ", ".join(r["answer_mismatch"]))


def _values(xs: list) -> str:
    return f"median of {len(xs)}: " + " ".join(f"{x:.4g}" for x in xs)


def timed_run(harness: Harness, seconds: float, bench: dict, tally: Tally, lines: list) -> dict:
    """Untraced repetitions; returns the end-to-end metrics."""
    harness.child("setup")  # compiles the .pyc files
    setups = [harness.calibrated("setup") for _ in range(SETUP_PROBES)]
    reps = harness.repeat("run", seconds, MIN_REPS)
    tally.reps(reps)
    tally.check(len({r["sha256"] for r in reps}) == 1, "repetitions of one seed gave different reports")
    values = {
        "verdict_ref_s": [r["verdict_ref_s"] for r in reps],
        "setup_s": [r["setup_s"] for r in setups + reps],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in reps],
    }
    name = harness.workload
    metrics = {}
    for entry in bench["end_to_end"]:
        xs = values[entry["name"]]
        metrics[entry["name"]] = {"value": statistics.median(xs), "unit": entry["unit"]}
        lines.append(f"{name} {entry['name']} {statistics.median(xs):.6g} {entry['unit']} ({_values(xs)})")
    # wall-clock figures and the host's pace, printed beside the metrics
    for label, xs in (("verdict_s", [r["verdict_s"] for r in reps]),
                      ("cpu_s", [r["cpu_s"] for r in reps]),
                      ("setup_wall_s", [r["setup_wall_s"] for r in setups + reps]),
                      ("bench.probe_s", [r["probe_s"] for r in reps]),
                      ("bench.calibration_s", harness.calibration)):
        lines.append(f"{name} {label} {statistics.median(xs):.6g} s ({_values(xs)})")
    ratio = sum(r["checks_failed"] for r in reps) / sum(r["checks"] for r in reps)
    lines.append(f"{name} checks_failed_ratio {ratio:.6g} ratio")
    lines.append(f"{name} answer_mismatch {max(len(r['answer_mismatch']) for r in reps)} count")
    lines.append(f"{name} report sha256 {reps[0]['sha256']}")
    return metrics


def traced_run(harness: Harness, seconds: float, bench: dict, tally: Tally, lines: list) -> dict:
    """One untraced repetition, then traced ones; returns the per-layer metrics."""
    name = harness.workload
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, name)
    untraced = harness.calibrated("run")
    traced = harness.repeat("trace", seconds, TRACED_REPS, stem + "-spans.json")
    tally.reps([untraced] + traced)
    tally.check(all(r["sha256"] == untraced["sha256"] for r in traced),
                "a traced report differs from the untraced report of the same seed")
    tally.check(len(traced) >= 2 and all(counts_of(r["trace"]) == counts_of(traced[0]["trace"]) for r in traced),
                "two traced repetitions of one seed gave different counts")
    zero = traced[0]["trace"]["zero_call_failures"]
    tally.check(not zero, "no calls recorded at boundaries this workload moves: " + ", ".join(zero))
    metrics = {}
    for entry in bench["per_layer"]:
        if entry["name"] == "bench.calibration_s":
            value = statistics.median(harness.calibration)
        else:
            value = layer_value(entry["name"], traced, untraced)
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        lines.append(f"{name} {entry['name']} {value:.6g} {entry['unit']}")
    scenario_times = tuple(f"scenarios.{s['name']}.total_s" for s in SUITE)
    for layer in FILE_ONLY_TIMES + scenario_times:
        lines.append(f"{name} {layer} {layer_value(layer, traced, untraced):.6g} s (layers file only)")
    layers = {"workload": name, "seed": harness.seed,
              "untraced": {k: untraced[k] for k in ("verdict_s", "verdict_ref_s", "cpu_s", "probe_s")},
              "traced": [{"verdict_s": r["verdict_s"], "verdict_ref_s": r["verdict_ref_s"], "trace": r["trace"]}
                         for r in traced]}
    with open(stem + "-layers.json", "w", encoding="utf-8") as fh:
        json.dump(layers, fh, indent=1, sort_keys=True)
    lines.append(f"{name} spans and per-name times written to {stem}-*.json")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if not os.path.isfile(os.path.join(ROOT, "src", "symred", "__init__.py")):
        print(f"no symred sources under {ROOT}/src; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    harness = Harness(args.workload, args.seed)
    tally = Tally()
    lines = []
    try:
        run = traced_run if args.trace else timed_run
        metrics = run(harness, args.seconds, bench, tally, lines)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    for message in tally.messages:
        print(f"FAILED: {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
