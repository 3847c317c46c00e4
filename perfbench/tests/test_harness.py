"""Tests of the benchmark harness itself (not of siegelflow)."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span  # noqa: E402


def test_percentile_is_nearest_rank_with_count_beyond():
    samples = list(range(100, 0, -1))  # unsorted on purpose
    assert run.percentile(samples, 50) == (50, 50)
    assert run.percentile(samples, 90) == (90, 10)
    assert run.percentile(samples, 99.5) == (100, 0)
    assert run.percentile([7.0], 99.9) == (7.0, 0)


@pytest.mark.parametrize(
    "n, p",
    [(5, 50.0), (20, 50.0), (39, 65.0), (40, 75.0), (49, 75.0), (50, 80.0),
     (100, 90.0), (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
)
def test_tail_rule_keeps_ten_samples_beyond(n, p):
    assert run.tail_rule(n) == p
    if n >= 20:
        assert run.percentile(range(n), p)[1] >= 10


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        Span(0, None, "op", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "a", 2.0, 4.0),  # overlaps its sibling: covered once
        Span(3, 0, "b", 9.0, 12.0),  # clipped to the parent's end
        Span(4, 1, "c", 1.5, 2.5),  # grandchild: counts against span 1 only
        Span(5, None, "op", 20.0, 21.0),
    ]
    st = tracer.self_times(spans)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(2.0 - 1.0)
    assert st[2] == pytest.approx(2.0)
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(1.0)
    assert st[5] == pytest.approx(1.0)


def _bindings():
    """Every siegelflow module global, class attribute and dict value, by identity."""
    out = {}
    for name, module in list(sys.modules.items()):
        if not (name == "siegelflow" or name.startswith("siegelflow.")):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, desc in vars(value).items():
                    out[(name, key, attr)] = desc
            elif type(value) is dict and not key.startswith("__"):
                for k, v in value.items():
                    out[(name, key, "[]", k)] = v
    return out


def test_uninstall_restores_every_wrapped_name():
    import siegelflow
    from siegelflow import sections, suites, sympl, transport

    before = _bindings()
    tr = tracer.Tracer()
    with tr:
        # the wrapper is bound wherever the original was, including by-name imports
        assert transport.bergman_project is sections.bergman_project
        assert transport.bergman_project is not before[("siegelflow.transport", "bergman_project")]
        assert siegelflow.inner_product is sections.inner_product
        assert suites.SUITES["limits"] is suites.suite_limits
        assert suites.SUITES["limits"] is not before[("siegelflow.suites", "suite_limits")]
        assert isinstance(vars(sympl.MetaplecticElement)["principal_lift"], classmethod)
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert len(changed) > 100
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_failure_is_counted_once_in_its_innermost_layer():
    ops = workloads.make_ops(workloads.WORKLOADS["requests"], 3, 1)
    _, per_layer, outcomes = run.traced_pass(ops[-1:], 1)
    assert outcomes == {"OverflowError": 1}
    assert per_layer["sections.failed"] == 1
    assert sum(per_layer[f"{layer}.failed"] for layer in tracer.LAYERS) == 1


def _counts(per_layer):
    units = dict(tracer.PER_LAYER_METRICS)
    return {k: v for k, v in per_layer.items() if units[k] == "count"}


@pytest.mark.parametrize("name", ["requests", "oracle"])
def test_one_seed_gives_identical_inputs_and_counts(name):
    wl = workloads.WORKLOADS[name]
    ops = [workloads.make_ops(wl, 17, 1) for _ in range(2)]
    assert repr(ops[0]) == repr(ops[1])
    assert repr(ops[0]) != repr(workloads.make_ops(wl, 18, 1))
    first, second = (_counts(run.traced_pass(o, wl.period)[1]) for o in ops)
    assert first == second
    assert first["trace.ops"] == wl.period
    assert first[f"{'cli' if name == 'requests' else 'sections'}.calls"] > 0


def test_benchmark_json_lists_what_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END_METRICS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER_METRICS


def test_cli_failure_without_a_report_is_a_typed_failure():
    """``main`` catches the library's exceptions and returns 1; the op fails
    with ``CliError``, not as a wrong answer."""
    request = json.dumps({
        "omega": {"omega1": [[0.0]], "omega2": [[1.0]]},
        "omega_p": {"omega1": [[0.0]], "omega2": [[400.0]]},
        "state": {"alpha": [[2.0, 0.0]]},
    })
    op = workloads.CliOp("x", ("--trunc", "8", "transport", "--corrected", "--ode-check"), request)
    with pytest.raises(workloads.CliError, match="exit code 1: error: amplitude"):
        op.call()
    assert run._run_op(op)[1] == "CliError"
    rc, report = workloads.CliOp("y", ("transport",), request).call()
    assert rc == 0 and json.loads(report)["passed"] is True


class _Op:
    def __init__(self, k):
        self.k, self.calls = k, 0

    def call(self):
        self.calls += 1
        return self.k

    def check(self, result):
        return result % 3 != 0


def test_measure_uses_each_input_once_in_whole_periods():
    ops = [_Op(k) for k in range(25)]
    res = run.measure(ops, period=4, seconds=60.0)  # the pool runs out first
    assert res["attempted"] == res["pool"] - 1 == 24
    assert [op.calls for op in ops] == [1] * 24 + [0]
    assert res["outcomes"] == {"ok": 16, "check": 8}
    assert len(res["latencies_s"]) == len(res["raw_latencies_s"]) == 16
    # every op time is divided by a positive host slowdown
    ratios = {round(r / t, 9) for r, t in zip(res["raw_latencies_s"], res["latencies_s"])}
    assert ratios <= {round(s, 9) for s in res["slowdowns"]}
    assert all(s > 0 for s in res["slowdowns"])
