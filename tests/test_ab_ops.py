"""``tools/ab_ops.py``: the table ``report`` prints from per-round worker results, and the argument check."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("ab_ops", Path(__file__).resolve().parent.parent / "tools" / "ab_ops.py")
ab_ops = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_ops)


def _side(times: dict, failed: dict) -> dict:
    return {"times": times, "failed": failed, "periods": 2}


# per call, op: parent 3 and 5 ms, change 1 and 4 ms; other: parent 10 and 10 ms, change 12 and 8 ms
ROUNDS = [
    {"parent": _side({"op": [0.002, 0.004], "other": [0.010]}, {"op": 1}),
     "change": _side({"op": [0.001, 0.001], "other": [0.012]}, {})},
    {"change": _side({"op": [0.004], "other": [0.008]}, {"other": 2}),
     "parent": _side({"op": [0.005], "other": [0.010]}, {})},
]


def test_report_gives_medians_parent_quartiles_ratio_and_wins():
    lines = ab_ops.report(ROUNDS)
    assert lines[0].split() == ["op", "calls", "parent_ms", "change_ms", "parent_q1", "parent_q3", "ratio", "faster"]
    rows = {line.split()[0]: line.split()[1:] for line in lines[1:4]}
    # name: calls in the first round, parent median, change median, parent quartiles, ratio, rounds the change won
    assert rows["op"] == ["2", "4.0000", "2.5000", "3.5000", "4.5000", "0.625", "2/2"]
    assert rows["other"] == ["1", "10.0000", "10.0000", "10.0000", "10.0000", "1.000", "1/2"]
    # a period: the passing calls' milliseconds over 2 periods, parent 8 and 7.5, change 7 and 6
    assert rows["(period)"] == ["7.7500", "6.5000", "7.6250", "7.8750", "0.839", "2/2"]
    assert lines[4:] == ["failed on parent: op 1", "failed on change: other 2"]


def test_an_op_with_no_passing_call_on_one_side_is_named():
    rounds = [{"parent": _side({"op": [0.001]}, {}), "change": _side({}, {"op": 1})}]
    assert "op" + " " * 27 + "no passing call on one side" in ab_ops.report(rounds)


@pytest.mark.parametrize("flag", ["--periods", "--rounds"])
def test_a_count_below_one_exits_2(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        ab_ops.main(["--workload", "boundary", flag, "0"])
    assert exc.value.code == 2
    assert "--periods and --rounds take an integer >= 1" in capsys.readouterr().err
