"""The benchmark's ``boundary`` workload runs traced without a failed op.

The tracer reads some arguments of the library by name (``phase_at``'s
``steps``, ``GaussianSection.value``'s ``v``, ...); a renamed one makes
every traced call raise.  The harness's own tests trace other workloads.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
for path in (str(BENCH.parent / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402


def test_boundary_workload_traces_without_failures():
    ops = workloads.make_ops(workloads.WORKLOADS["boundary"], 17, 1)
    _, per_layer, outcomes = run.traced_pass(ops, 10)
    assert outcomes == {"ok": len(ops)}
    assert per_layer["transforms.pairing.calls"] > 0
