"""The benchmark's ``boundary`` and ``ode`` workloads run traced without a failed op.

The tracer reads some arguments of the library by name (``phase_at``'s
``steps``, ``GaussianSection.value``'s ``v``, ``transport_ode_coeffs``'s
``steps`` and ``c0``, ...); a renamed one makes every traced call raise.
The harness's own tests trace other workloads.
"""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
for path in (str(BENCH.parent / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["boundary", "ode"])
def test_workload_traces_without_failures(name):
    workload = workloads.WORKLOADS[name]
    ops = workloads.make_ops(workload, 17, 1)
    _, per_layer, outcomes = run.traced_pass(ops, workload.period)
    assert outcomes == {"ok": len(ops)}
    if name == "boundary":
        assert per_layer["transforms.pairing.calls"] > 0
    else:
        assert per_layer["transport.ode.steps"] > 0
