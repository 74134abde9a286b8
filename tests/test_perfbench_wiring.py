"""The benchmark's traced repetition still sees every boundary it says a workload moves.

``perfbench/rep.py --mode trace`` fails a run in which a span named in its
``MOVES`` table records no calls.  Running it here as well means a change
that stops calling such a boundary (deleting its only caller, say) fails
the test suite, and not only the benchmark.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from symred import lie

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["slice_mt", "scenario_suite", "algebra_certify"])
def test_traced_repetition_is_correct_and_moves_every_boundary(workload):
    cmd = [sys.executable, "perfbench/rep.py", "--workload", workload, "--seed", "1", "--mode", "trace"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["checks"] > 0 and out["checks_failed"] == 0
    assert out["answers"] > 0 and out["answer_mismatch"] == []
    assert out["trace"]["zero_call_failures"] == []


def test_supported_types_are_the_twelve_the_benchmark_certifies():
    """``algebra_certify`` builds and certifies every type in ``SUPPORTED``: a wider set is a new workload."""
    assert sorted(lie.SUPPORTED) == [
        ("A", 1), ("A", 2), ("A", 3), ("A", 4),
        ("B", 2), ("B", 3), ("B", 4),
        ("C", 2), ("C", 3), ("C", 4),
        ("D", 4),
        ("G2", 2),
    ]
