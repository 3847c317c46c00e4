import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siegelflow import MetaplecticElement, SiegelPoint, cli, random_siegel, sections, transport
from siegelflow.cli import main
from siegelflow.transport import ODE_BASIS_MAX, bogoliubov_scale

_SRC = Path(__file__).resolve().parents[1] / "src"


def point_json(omega1, omega2):
    return {"omega1": omega1, "omega2": omega2}


def run_cli(args, stdin_text, capsys, monkeypatch):
    import io
    import sys

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGeodesicCommand:
    def test_standard_pair(self, capsys, monkeypatch, tmp_path):
        payload = json.dumps(
            {
                "omega": point_json([[0.0]], [[1.0]]),
                "omega_p": point_json([[0.0]], [[float(np.e**2)]]),
            }
        )
        code, out, _ = run_cli(["geodesic"], payload, capsys, monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert abs(report["outputs"]["lambda"][0] - 1.0) < 1e-10
        assert report["results"][0]["residual"] < 1e-10

    def test_two_degrees_of_freedom(self, capsys, monkeypatch):
        payload = json.dumps(
            {
                "omega": point_json([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]),
                "omega_p": point_json([[0.3, 0.1], [0.1, -0.2]], [[2.0, 0.4], [0.4, 1.5]]),
            }
        )
        code, out, _ = run_cli(["geodesic"], payload, capsys, monkeypatch)
        assert code == 0
        report = json.loads(out)
        assert len(report["outputs"]["lambda"]) == 2
        assert report["results"][0]["residual"] < 1e-8

    def test_equal_inputs_degenerate(self, capsys, monkeypatch):
        p = point_json([[0.1]], [[2.0]])
        code, out, _ = run_cli(["geodesic"], json.dumps({"omega": p, "omega_p": p}), capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["outputs"]["lambda"] == [0.0]

    def test_malformed_json_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(["geodesic"], "{not json", capsys, monkeypatch)
        assert code == 2
        assert "input error" in err

    @pytest.mark.parametrize("payload", ["[]", "3", '"omega"', "null"])
    def test_non_object_json_exits_2(self, payload, capsys, monkeypatch):
        code, out, err = run_cli(["geodesic"], payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and "JSON object" in err

    def test_failed_normal_form_exits_1(self, capsys, monkeypatch):
        payload = json.dumps({"omega": point_json([[0.0]], [[1.0]]), "omega_p": point_json([[0.0]], [[1e300]])})
        code, out, err = run_cli(["geodesic"], payload, capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error: geodesic normal form failed")

    def test_unreadable_input_path_exits_2(self, tmp_path, capsys, monkeypatch):
        missing = tmp_path / "missing.json"
        code, out, err = run_cli(["geodesic", "--in", str(missing)], "", capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("input error:") and str(missing) in err


_UNIT_POINT = point_json([[0.0]], [[1.0]])
_UNIT_POINT_2 = point_json([[0.0, 0.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])


# (1 + 0.5 z + 0.2 z^2) exp(0.05 z^2 + (0.2 + 0.1i) z) at i
_POLY_SECTION = {
    "frame": _UNIT_POINT,
    "M": [[[0.1, 0.0]]],
    "b": [[0.2, 0.1]],
    "c": [0.0, 0.0],
    "poly": [[1.0, 0.0], [0.5, 0.0], [0.2, 0.0]],
}

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["frame", "M", "b", "c", "poly", "omega1", "omega2"]), inner),
    max_leaves=10,
)
_NUMBER = st.floats(-1.5, 1.5) | st.integers(-2, 2) | st.floats()
_PAIR = st.tuples(_NUMBER, _NUMBER).map(list)
_FRAME_LIKE = st.just(_UNIT_POINT) | st.builds(lambda a, b: point_json([[a]], [[b]]), _NUMBER, _NUMBER)
# well-shaped n = 1 sections with arbitrary numbers, so that most draws reach the transport
_SECTION_LIKE = st.fixed_dictionaries(
    {
        "frame": _FRAME_LIKE,
        "M": st.builds(lambda p: [[p]], _PAIR),
        "b": st.builds(lambda p: [p], _PAIR),
        "c": _PAIR,
    },
    optional={"poly": st.lists(_PAIR, max_size=5)},
)


_REPORT_KEYS = {"schema_version", "command", "inputs", "results", "outputs", "passed", "wall_time_s"}
_ENTRY = st.floats(-1.0, 1.0)


def _valid_point(n):
    """A point of the Siegel upper half-space: symmetric Re part, Im part at least 0.5 I."""
    entries = st.lists(_ENTRY, min_size=2 * n * n, max_size=2 * n * n).map(lambda v: np.reshape(v, (2, n, n)))
    drawn = entries.map(lambda ab: point_json((ab[0] + ab[0].T).tolist(), (ab[1] @ ab[1].T + 0.5 * np.eye(n)).tolist()))
    return st.just(_UNIT_POINT) | drawn if n == 1 else drawn


def _point_or_not(n):
    # mostly a valid point of the drawn dimension, so that most draws reach the transport
    return st.integers(0, 9).flatmap(
        lambda k: _valid_point(n) if k < 8 else st.integers(1, 3).flatmap(_valid_point) if k == 8 else _JSON
    )


@st.composite
def _request(draw):
    """(argv, request document): a geodesic or transport request of n = 1..3 with
    valid or malformed points and state, and every combination of the flags."""
    n = draw(st.integers(1, 3))
    doc = {key: draw(_point_or_not(n)) for key in ("omega", "omega_p", "omega_pp")}
    tol = draw(st.none() | st.sampled_from([1e-30, 1e-8, 1.0]) | st.floats())
    argv = [] if tol is None else ["--tol", repr(tol)]
    if draw(st.booleans()):
        return [*argv, "geodesic"], {key: doc[key] for key in ("omega", "omega_p")}
    pairs = st.lists(_PAIR, min_size=n, max_size=n) | st.lists(_PAIR, max_size=4)
    frame = st.just(doc["omega"]) | _FRAME_LIKE
    state = draw(
        st.none()
        | st.fixed_dictionaries({"alpha": pairs})
        | st.fixed_dictionaries({"section": _JSON | st.builds(lambda sec, f: {**sec, "frame": f}, _SECTION_LIKE, frame)})
        | _JSON
    )
    if state is not None:
        doc["state"] = state
    check = draw(st.sampled_from([[], ["--triangle"], ["--ode-check"]]))
    if check == ["--ode-check"]:
        argv += ["--trunc", "8"]
    flags = draw(st.sampled_from([[], ["--corrected"]])) + draw(
        st.sampled_from([[], ["--kernel", "bergman"], ["--kernel", "holomorphic"]])
    )
    return [*argv, "transport", *flags, *check], doc


@settings(max_examples=300, deadline=None)
@given(request=_request())
# amplitudes whose squares overflow a float: the ODE check takes its norms without a warning
@example(request=(["--trunc", "8", "transport", "--ode-check"],
                  {"omega": _UNIT_POINT, "omega_p": _UNIT_POINT, "state": {"alpha": [[0.0, 1.9171376339556386e+22]]}}))
def test_any_request_document_exits_without_a_traceback(request):
    argv, doc = request
    saved, sys.stdin = sys.stdin, io.StringIO(json.dumps(doc))
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a --tol value it reads as an option
                code = exc.code
    finally:
        sys.stdin = saved
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        return
    if code == 1 and not out:
        assert err.startswith("error: ")
        return
    report = json.loads(out, parse_constant=_reject_constant)
    assert set(report) == _REPORT_KEYS
    failing = [r for r in report["results"] if not r["passed"]]
    assert report["passed"] is (code == 0) is (not failing)
    if code == 1:
        assert err.startswith(f"verification failed: {failing[0]['name']} ")


def _reject_constant(name):
    raise AssertionError(f"the report holds {name}, which is not JSON")


class TestTransportCommand:
    @pytest.mark.parametrize(
        "fields, named",
        [
            ({"omega_p": "x"}, "omega_p"),
            ({"omega": [1]}, "omega"),
            ({"state": 5}, "state"),
            ({"state": {"alpha": [1, 2]}}, "state.alpha"),
        ],
    )
    def test_wrongly_typed_field_exits_2(self, fields, named, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": _UNIT_POINT, **fields})
        code, out, err = run_cli(["transport"], payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: {named} ")

    def test_overflowing_triangle_exits_1_without_a_warning(self, capsys, monkeypatch):
        # a hypothesis draw that used to reach the holonomy's inf / inf; the
        # overflow now raises NonFiniteError where the first norm is made
        section = {"frame": _UNIT_POINT, "M": [[[0.5, 0.5]]], "b": [[0.5, 1.5e16]], "c": [3.7e16, 0.3]}
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]),
                              "omega_pp": point_json([[-0.5]], [[0.7]]), "state": {"section": section}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["transport", "--triangle"], payload, capsys, monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "not finite" in err

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("flags", [[], ["--kernel", "holomorphic"]])
    def test_overflowing_amplitude_exits_1_without_a_warning(self, n, flags, capsys, monkeypatch):
        # alpha is finite, but its product with the frame's coordinates is not
        def diag(v):
            return (v * np.eye(n)).tolist()

        payload = json.dumps({"omega": point_json(diag(2.0), diag(0.5)), "omega_p": point_json(diag(0.0), diag(0.5)),
                              "state": {"alpha": [[0.0, 1.5e308]] * n}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["transport", *flags], payload, capsys, monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "not finite" in err

    @pytest.mark.parametrize(
        "section, named",
        [
            (5, "section"),
            ({k: v for k, v in _POLY_SECTION.items() if k != "frame"}, "section.frame"),
            ({k: v for k, v in _POLY_SECTION.items() if k != "M"}, "section.M"),
            ({k: v for k, v in _POLY_SECTION.items() if k != "b"}, "section.b"),
            ({k: v for k, v in _POLY_SECTION.items() if k != "c"}, "section.c"),
            ({**_POLY_SECTION, "frame": 5}, "section.frame"),
            ({**_POLY_SECTION, "frame": {"omega1": [[0.0]]}}, "section.frame"),
            ({**_POLY_SECTION, "frame": point_json([0.0], [[1.0]])}, "section.frame.omega1"),
            ({**_POLY_SECTION, "M": [[0.1, 0.0]]}, "section.M"),
            ({**_POLY_SECTION, "M": [[["x", 0.0]]]}, "section.M"),
            ({**_POLY_SECTION, "b": [[0.2, 0.1], [0.0, 0.0]]}, "section.b"),
            ({**_POLY_SECTION, "c": [0.0]}, "section.c"),
            ({**_POLY_SECTION, "c": [float("nan"), 0.0]}, "section.c"),
            ({**_POLY_SECTION, "poly": []}, "section.poly"),
            ({**_POLY_SECTION, "poly": [[0, 0]]}, "section.poly"),
            ({**_POLY_SECTION, "M": [[[1.5, 0.0]]]}, "section.M"),
            (
                {**_POLY_SECTION, "frame": _UNIT_POINT_2, "M": [[[0.1, 0.0]] * 2] * 2, "b": [[0.2, 0.1]] * 2},
                "section.poly",
            ),
            # halved before symmetrising, so M + M^T cannot overflow into a NaN norm
            ({**_POLY_SECTION, "M": [[[1e308, 0.0]]]}, "section.M"),
        ],
    )
    def test_malformed_section_exits_2(self, section, named, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": _UNIT_POINT, "state": {"section": section}})
        code, out, err = run_cli(["transport"], payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith(f"input error: {named} ")

    @pytest.mark.parametrize("frame", [point_json([[0.5]], [[3.0]]), _UNIT_POINT_2])
    @pytest.mark.parametrize("flags", [[], ["--corrected"], ["--kernel", "bergman"], ["--kernel", "holomorphic"]])
    def test_section_over_another_frame_exits_2(self, frame, flags, capsys, monkeypatch):
        n = len(frame["omega1"])
        section = {"frame": frame, "M": [[[0.0, 0.0]] * n] * n, "b": [[0.1, 0.0]] * n, "c": [0.0, 0.0]}
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]), "state": {"section": section}})
        code, out, err = run_cli(["transport", *flags], payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: state.section.frame ")

    @pytest.mark.parametrize(
        "flags", [["transport"], ["transport", "--corrected"], ["transport", "--kernel", "holomorphic"], ["geodesic"]]
    )
    def test_frames_of_two_n_exit_2_naming_both(self, flags, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": _UNIT_POINT_2})
        code, out, err = run_cli(flags, payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: SiegelPoint(") and "are frames of different spaces" in err
        assert err.count("SiegelPoint") == 2

    @pytest.mark.parametrize("command", ["geodesic", "transport"])
    @pytest.mark.parametrize("field", ["omega", "omega_p"])
    @pytest.mark.parametrize(
        "point, message",
        [
            (point_json([[0.0, 0.0]], [[1.0, 0.0]]), "omega1 must be square"),
            (point_json([[0.0]], [[1.0, 0.0], [0.0, 1.0]]), "omega1 and omega2 must have the same shape"),
            (point_json([[0.0, 1.0], [0.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]), "omega1 is not symmetric"),
            (point_json([[0.0]], [[-1.0]]), "imaginary part must be positive definite"),
        ],
        ids=["not_square", "shapes_differ", "not_symmetric", "not_positive_definite"],
    )
    def test_rejected_point_exits_2_naming_its_field(self, command, field, point, message, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": _UNIT_POINT, field: point})
        code, out, err = run_cli([command], payload, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: {field} rejected: {message}")

    def test_non_finite_result_exits_1_without_a_report(self, capsys, monkeypatch):
        section = {"frame": _UNIT_POINT, "M": [[[0.0, 0.0]]], "b": [[1e200, 0.0]], "c": [0.0, 0.0]}
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]), "state": {"section": section}})
        with np.errstate(all="ignore"):
            code, out, err = run_cli(["transport"], payload, capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

    def test_report_holding_a_non_finite_number_is_not_written(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: ({}, [], {"value": float("inf")}))
        code, out, err = run_cli(["verify", "curvature"], "", capsys, monkeypatch)
        assert (code, out, err) == (1, "", "error: the result is not finite; no report written\n")

    def test_alpha_of_another_length_than_n_exits_2(self, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": _UNIT_POINT, "state": {"alpha": [[0.0, 0.0]] * 2}})
        code, out, err = run_cli(["transport"], payload, capsys, monkeypatch)
        assert (code, out, err) == (2, "", "input error: state.alpha must hold 1 [re, im] pairs\n")

    def test_closed_stdout_pipe_ends_quietly(self):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]])})
        read_end, write_end = os.pipe()
        os.close(read_end)  # nobody reads the report, as after `| head` has exited
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "siegelflow.cli", "transport", "--kernel", "holomorphic"],
                input=payload, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])},
            )
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr
        assert proc.returncode == 0

    def test_non_finite_point_exits_2(self, capsys, monkeypatch):
        payload = json.dumps({"omega": point_json([[float("nan")]], [[1.0]]), "omega_p": _UNIT_POINT})
        code, out, err = run_cli(["transport"], payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: omega.omega1 ")

    def test_holomorphic_kernel_takes_a_polynomial_section(self, capsys, monkeypatch):
        payload = json.dumps(
            {"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]), "state": {"section": _POLY_SECTION}}
        )
        code, out, err = run_cli(["transport", "--kernel", "holomorphic"], payload, capsys, monkeypatch)
        assert code == 0, err
        assert len(json.loads(out)["outputs"]["transport"]["section"]["poly"]) == 3

    def test_vacuum_with_ode_check(self, capsys, monkeypatch):
        payload = json.dumps(
            {
                "state": {"alpha": [[0.0, 0.0]]},
                "omega": point_json([[0.0]], [[1.0]]),
                "omega_p": point_json([[0.0]], [[float(np.e**2)]]),
            }
        )
        code, out, _ = run_cli(
            ["transport", "--ode-check", "--ode-steps", "2000"], payload, capsys, monkeypatch
        )
        assert code == 0
        report = json.loads(out)
        row = next(r for r in report["results"] if r["name"] == "transport/ode_vs_closed_form")
        assert row["residual"] < 1e-6
        assert "section" in report["outputs"]["transport"]

    def test_random_requests_pass_the_ode_check(self, capsys, monkeypatch):
        # at the starting basis of 128 states, requests 3, 4 and 7 leak into its top 10%
        rng = np.random.default_rng(7)
        for _ in range(10):
            om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
            alpha = rng.normal() + 1j * rng.normal()
            payload = json.dumps({"state": {"alpha": [[alpha.real, alpha.imag]]},
                                  "omega": point_json(om.omega1.tolist(), om.omega2.tolist()),
                                  "omega_p": point_json(omp.omega1.tolist(), omp.omega2.tolist())})
            argv = ["transport", "--corrected", "--ode-check", "--ode-steps", "2000"]
            code, out, err = run_cli(argv, payload, capsys, monkeypatch)
            assert code == 0, err
            report = json.loads(out)
            row = next(r for r in report["results"] if r["name"] == "transport/ode_vs_closed_form")
            assert row["residual"] <= 1e-13
            # the basis starts at max(4 trunc, 128) states and only doubles
            basis = report["outputs"]["ode_basis"]
            assert basis <= ODE_BASIS_MAX and basis % 128 == 0 and (basis // 128).bit_count() == 1

    def test_trunc_past_the_ode_basis_cap_exits_1(self, capsys, monkeypatch):
        # --trunc 300 starts the ODE at 4 * 300 = 1200 states, past ODE_BASIS_MAX
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]])})
        code, out, err = run_cli(["--trunc", "300", "transport", "--ode-check"], payload, capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and "300" in err and "1200" in err
        assert f"ODE_BASIS_MAX = {ODE_BASIS_MAX}" in err

    def test_ode_check_of_two_degrees_of_freedom_exits_1(self, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT_2, "omega_p": point_json([[0.3, 0.1], [0.1, -0.2]],
                                                                            [[2.0, 0.4], [0.4, 1.5]])})
        code, out, err = run_cli(["transport", "--ode-check"], payload, capsys, monkeypatch)
        assert (code, out, err) == (1, "", "error: --ode-check supports n = 1\n")

    def test_state_whose_amplitudes_underflow_exits_2(self, capsys, monkeypatch):
        # e^{-800} reads as 32 zero amplitudes: refused before the ODE, not a NaN residual
        section = {"frame": _UNIT_POINT, "M": [[[0.0, 0.0]]], "b": [[0.0, 0.0]], "c": [-800.0, 0.0]}
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.0]], [[2.0]]), "state": {"section": section}})
        code, out, err = run_cli(["transport", "--ode-check"], payload, capsys, monkeypatch)
        assert code == 2
        assert out == ""
        assert err.startswith("input error: amplitude vector c0 ")

    @pytest.mark.parametrize(
        "trunc, far, alpha, basis",
        [(32, 1.0, 8.0, 128),  # |c0| = 1.5e11: round-off alone is an absolute amplitude 6e-6 at 1024 states
         (32, float(np.exp(4.24)), 2.37, 1024)],  # lam = 2.12: 2.2e-6 at 1024 states, 1.3e-7 of the norm
    )
    def test_ode_check_leak_is_relative_to_the_norm(self, trunc, far, alpha, basis, capsys, monkeypatch):
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.0]], [[far]]),
                              "state": {"alpha": [[alpha, 0.0]]}})
        argv = ["--trunc", str(trunc), "transport", "--corrected", "--ode-check"]
        code, out, err = run_cli(argv, payload, capsys, monkeypatch)
        assert code == 0, err
        report = json.loads(out)
        row = next(r for r in report["results"] if r["name"] == "transport/ode_vs_closed_form")
        assert row["residual"] <= 1e-13
        assert report["outputs"]["ode_basis"] == basis

    def test_ode_check_imports_no_scipy(self):
        # scipy would add its import time and memory to every command
        payload = json.dumps({"state": {"alpha": [[0.3, 0.1]]}, "omega": _UNIT_POINT,
                              "omega_p": point_json([[0.3]], [[2.0]])})
        script = (
            "import io, sys\n"
            "import siegelflow\n"
            "from siegelflow.cli import main\n"
            "sys.stdin = io.StringIO(sys.argv[1])\n"
            "assert main(['transport', '--corrected', '--ode-check']) == 0\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, payload], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(_SRC), os.environ.get("PYTHONPATH", "")])},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["outputs"]["ode_basis"] >= 128

    def test_ode_check_works_on_amplitudes(self, capsys, monkeypatch):
        # two Fock expansions (the pulled state and the closed form), one monomial start for the closed form,
        # no metaplectic lift; the ODE starts from the amplitudes, and --ode-steps reaches its propagator
        calls = {"fock_coefficients": 0, "from_fock_coefficients": 0, "principal_lift": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fock_coefficients", "from_fock_coefficients"):
            wrapper = counted(name, getattr(sections, name))
            for module in (sections, cli):
                monkeypatch.setattr(module, name, wrapper)
        monkeypatch.setattr(MetaplecticElement, "principal_lift",
                            classmethod(counted("principal_lift", MetaplecticElement.principal_lift.__func__)))
        steps, propagate = [], transport.transport_ode_coeffs
        monkeypatch.setattr(transport, "transport_ode_coeffs",
                            lambda c0, lam, t_end, n: steps.append(n) or propagate(c0, lam, t_end, n))
        argv = ["transport", "--corrected", "--ode-check", "--ode-steps", "2000"]
        code, out, err = run_cli(argv, _TRANSPORT_REQUEST, capsys, monkeypatch)
        assert code == 0, err
        assert calls == {"fock_coefficients": 2, "from_fock_coefficients": 1, "principal_lift": 0}
        assert steps and set(steps) == {2000}

    @pytest.mark.parametrize(
        "argv", [["geodesic"], ["transport"], ["transport", "--corrected"], ["transport", "--ode-check"],
                 ["transport", "--kernel", "holomorphic"]]
    )
    @pytest.mark.parametrize("field", ["omega", "omega_p"])
    @pytest.mark.parametrize("entry", [1e160, 1e300])
    def test_frame_past_the_float_range_exits_1_without_a_warning(self, argv, field, entry, capsys, monkeypatch):
        # the frame's Gram matrix, or the check scale of the geodesic's map, leaves the float range
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]),
                              field: point_json([[entry]], [[1.0]])})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(argv, payload, capsys, monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")
        if argv[0] == "transport" and "holomorphic" not in argv:
            assert "not finite" in err

    @pytest.mark.parametrize(
        "argv", [["geodesic"], ["transport"], ["transport", "--corrected"], ["transport", "--ode-check"],
                 ["transport", "--kernel", "holomorphic"]]
    )
    def test_frame_with_a_tiny_imaginary_part_exits_1_naming_it(self, argv, capsys, monkeypatch):
        # Omega1 Omega2^{-1/2} overflows: the map of the geodesic and the frame's coordinates are not finite
        payload = json.dumps({"omega": point_json([[1e160]], [[1e-300]]), "omega_p": point_json([[0.3]], [[2.0]])})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(argv, payload, capsys, monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "SiegelPoint(omega=[[1.e+160+1.e-300j]])" in err and "not finite" in err

    def test_geodesic_pull_back_past_the_float_range_exits_1_naming_both(self, capsys, monkeypatch):
        # Omega2^{-1/2} (Omega' - Omega1) Omega2^{-1/2} overflows though the map taking i I to Omega does not
        payload = json.dumps({"omega": point_json([[0.0]], [[1e-300]]), "omega_p": point_json([[1e10]], [[1.0]])})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(["geodesic"], payload, capsys, monkeypatch)
        assert (code, out) == (1, "") and err.count("\n") == 1
        assert "SiegelPoint(omega=[[1.e+10+1.j]]) pulled back" in err and "SiegelPoint(omega=[[0.+1.e-300j]])" in err

    @pytest.mark.parametrize("kernel", ["bergman", "holomorphic"])
    @pytest.mark.parametrize("omega, omega_p", [(([[0]], [[1]]), ([[1e160]], [[1e-300]])),
                                                (([[0]], [[1e-300]]), ([[1e10]], [[1]]))],
                             ids=["far-target", "thin-source"])
    def test_kernel_push_that_fails_exits_1_naming_a_frame(self, kernel, omega, omega_p, capsys, monkeypatch):
        # the push leaves m non-integrable, or a frame's coordinates overflow, before any other guard runs
        payload = json.dumps({"omega": point_json(*omega), "omega_p": point_json(*omega_p)})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run_cli(["transport", "--kernel", kernel], payload, capsys, monkeypatch)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and "SiegelPoint(omega=" in err

    def test_identity_transport_echoes_input(self, capsys, monkeypatch):
        p = point_json([[0.0]], [[1.0]])
        payload = json.dumps({"state": {"alpha": [[0.5, -0.25]]}, "omega": p, "omega_p": p})
        code, out, _ = run_cli(["transport"], payload, capsys, monkeypatch)
        assert code == 0
        report = json.loads(out)
        sec = report["outputs"]["transport"]["section"]
        # the coherent-state data stores conj(alpha)
        assert abs(sec["b"][0][0] - 0.5) < 1e-12
        assert abs(sec["b"][0][1] - 0.25) < 1e-12
        assert abs(report["outputs"]["transport"]["scale"] - 1.0) < 1e-12

    def test_corrected_triangle_flag(self, capsys, monkeypatch):
        payload = json.dumps(
            {
                "state": {"alpha": [[1.0, 0.5]]},
                "omega": point_json([[0.0]], [[1.0]]),
                "omega_p": point_json([[0.3]], [[2.0]]),
                "omega_pp": point_json([[-0.5]], [[0.7]]),
            }
        )
        code, out, _ = run_cli(["transport", "--corrected", "--triangle"], payload, capsys, monkeypatch)
        assert code == 0
        report = json.loads(out)
        hol = report["outputs"]["triangle_holonomy"]
        assert abs(complex(hol[0], hol[1]) - 1.0) < 1e-8


    @pytest.mark.parametrize(
        "c, poly",
        [
            ([0.0, 0.0], [[0.0, 0.0]] * 171 + [[1.0, 0.0]]),  # 171! is past the largest float
            ([-373.0, 0.0], [[1.0, 0.0]]),  # the norm underflows to 0 and divides the residual
        ],
        ids=["z^171", "exp(-373)"],
    )
    def test_triangle_past_the_float_range_exits_1(self, c, poly, capsys, monkeypatch):
        section = {"frame": _UNIT_POINT, "M": [[[0.0, 0.0]]], "b": [[0.0, 0.0]], "c": c, "poly": poly}
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]),
                              "omega_pp": point_json([[-0.5]], [[0.7]]), "state": {"section": section}})
        with np.errstate(all="ignore"):
            code, out, err = run_cli(["transport", "--triangle"], payload, capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--triangle"], ["--corrected", "--triangle"]])
    def test_n3_triangle_exits_0(self, flags, capsys, monkeypatch):
        rng = np.random.default_rng(3)
        points = [random_siegel(rng, 3) for _ in range(3)]
        omega, omega_p, omega_pp = (point_json(p.omega1.tolist(), p.omega2.tolist()) for p in points)
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        payload = json.dumps({"state": {"alpha": [[a.real, a.imag] for a in alpha]},
                              "omega": omega, "omega_p": omega_p, "omega_pp": omega_pp})
        code, out, err = run_cli(["transport", *flags], payload, capsys, monkeypatch)
        assert code == 0, err
        report = json.loads(out)
        row = next(r for r in report["results"] if r["name"] == "transport/triangle_holonomy_identity")
        assert row["passed"] and row["residual"] < 1e-8
        hol = report["outputs"]["triangle_holonomy"]
        assert abs(complex(hol[0], hol[1]) - 1.0) < 1e-8


@pytest.mark.parametrize("flag", ["--trunc", "--nodes"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_non_positive_count_flags_exit_2_naming_the_flag(flag, value, capsys):
    with pytest.raises(SystemExit) as info:
        main([flag, value, "verify", "curvature"])
    assert info.value.code == 2
    assert f"argument {flag}: must be a positive integer, not {value}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_tol_outside_the_finite_non_negative_numbers_exits_2_before_the_command(value, capsys, monkeypatch):
    # written --tol=<x>: as a separate word, argparse reads "-inf" as an option
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: pytest.fail("the command ran"))
    with pytest.raises(SystemExit) as info:
        main([f"--tol={value}", "verify", "curvature"])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and f"argument --tol: must be a finite number >= 0, not {float(value)}" in out.err


@pytest.mark.parametrize("argv", [["--seed", "-1", "verify", "lemma21"], ["--seed=-3", "verify", "curvature"]])
def test_negative_seed_exits_2_at_parse_time_naming_the_flag(argv, capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: pytest.fail("the command ran"))
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --seed: must be a non-negative integer, not -" in out.err


def test_seed_that_is_not_an_integer_exits_2_naming_the_flag(capsys, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "verify", lambda args: pytest.fail("the command ran"))
    with pytest.raises(SystemExit) as info:
        main(["--seed", "abc", "verify", "curvature"])
    assert info.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "argument --seed: invalid int value: 'abc'" in out.err


def test_seed_zero_runs(capsys, monkeypatch):
    code, out, _ = run_cli(["--seed", "0", "verify", "bogoliubov"], "", capsys, monkeypatch)
    assert code == 0 and json.loads(out)["inputs"]["seed"] == 0


@pytest.mark.parametrize("suite, inputs", [("curvature", {}), ("limits", {}), ("unitarity", {"seed": 3, "nodes": 32})])
def test_verify_inputs_are_the_arguments_the_suite_got(suite, inputs, capsys, monkeypatch):
    # curvature and limits draw from a fixed generator: a --seed would name an input that shaped nothing
    code, out, _ = run_cli(["--seed", "3", "--nodes", "32", "verify", suite], "", capsys, monkeypatch)
    assert code == 0 and json.loads(out)["inputs"] == {"suite": suite, **inputs}


@pytest.mark.parametrize("value", ["0", "1e-30"])
def test_tol_takes_zero_and_tiny_values(value):
    assert cli._PARSER.parse_args(["--tol", value, "verify", "curvature"]).tol == float(value)


class TestVerifyCommand:
    def test_curvature_suite_passes(self, capsys, monkeypatch):
        code, out, _ = run_cli(["verify", "curvature"], "", capsys, monkeypatch)
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_reports_deterministic_modulo_wall_time(self, capsys, monkeypatch):
        code1, out1, _ = run_cli(["--seed", "7", "verify", "bogoliubov"], "", capsys, monkeypatch)
        code2, out2, _ = run_cli(["--seed", "7", "verify", "bogoliubov"], "", capsys, monkeypatch)
        assert code1 == code2 == 0
        r1, r2 = json.loads(out1), json.loads(out2)
        r1.pop("wall_time_s"), r2.pop("wall_time_s")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_limits_report_is_deterministic_with_no_outputs(self, capsys, monkeypatch):
        code1, out1, _ = run_cli(["verify", "limits"], "", capsys, monkeypatch)
        code2, out2, _ = run_cli(["verify", "limits"], "", capsys, monkeypatch)
        assert code1 == code2 == 0

        def without_wall_time(out):
            return [line for line in out.splitlines() if '"wall_time_s"' not in line]

        assert without_wall_time(out1) == without_wall_time(out2)
        assert json.loads(out1)["outputs"] == {}

    def test_failure_exits_1(self, capsys, monkeypatch):
        code, out, err = run_cli(["--tol", "1e-30", "verify", "curvature"], "", capsys, monkeypatch)
        assert code == 1
        assert "verification failed" in err


_TRANSPORT_REQUEST = json.dumps({"state": {"alpha": [[0.3, 0.1]]}, "omega": _UNIT_POINT,
                                 "omega_p": point_json([[0.3]], [[2.0]]), "omega_pp": point_json([[-0.5]], [[0.7]])})


class TestReportPath:
    """``main`` builds, writes and exits on the report of every command."""

    def test_every_command_reports_one_key_set(self, capsys, monkeypatch):
        geodesic = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]])})
        for argv, stdin in ((["geodesic"], geodesic), (["transport"], _TRANSPORT_REQUEST), (["verify", "curvature"], "")):
            code, out, _ = run_cli(argv, stdin, capsys, monkeypatch)
            assert code == 0
            assert set(json.loads(out)) == _REPORT_KEYS

    def test_report_has_one_line_per_key(self, capsys, monkeypatch):
        code, out, _ = run_cli(["transport", "--corrected", "--triangle"], _TRANSPORT_REQUEST, capsys, monkeypatch)
        assert code == 0
        report = json.loads(out)
        lines = [f'  "{key}": {json.dumps(report[key], sort_keys=True)}' for key in sorted(_REPORT_KEYS)]
        assert out == "{\n" + ",\n".join(lines) + "\n}\n"

    def test_two_runs_differ_only_on_the_wall_time_line(self, capsys, monkeypatch):
        runs = [run_cli(["transport", "--corrected"], _TRANSPORT_REQUEST, capsys, monkeypatch) for _ in range(2)]
        assert [code for code, _, _ in runs] == [0, 0]
        (first, second) = (out.splitlines() for _, out, _ in runs)
        assert len(first) == len(second) == len(_REPORT_KEYS) + 2
        differ = [a for a, b in zip(first, second) if a != b]
        assert all(line.startswith('  "wall_time_s": ') for line in differ)

    def test_tol_sets_the_transport_rows(self, capsys, monkeypatch):
        code, out, err = run_cli(["--tol", "1e-30", "transport", "--ode-check"], _TRANSPORT_REQUEST, capsys, monkeypatch)
        assert code == 1
        report = json.loads(out)
        row = next(r for r in report["results"] if r["name"] == "transport/ode_vs_closed_form")
        assert row["tolerance"] == 1e-30 and not row["passed"] and report["passed"] is False
        assert err.startswith("verification failed: transport/ode_vs_closed_form residual ")

    @pytest.mark.parametrize("kernel", ["bergman", "holomorphic"])
    @pytest.mark.parametrize("corrected", [[], ["--corrected"]])
    def test_scale_is_the_bogoliubov_scale(self, kernel, corrected, capsys, monkeypatch):
        code, out, _ = run_cli(["transport", *corrected, "--kernel", kernel], _TRANSPORT_REQUEST, capsys, monkeypatch)
        assert code == 0
        expected = bogoliubov_scale(SiegelPoint([[0.0]], [[1.0]]), SiegelPoint([[0.3]], [[2.0]]))
        assert json.loads(out)["outputs"]["transport"]["scale"] == expected

    @pytest.mark.parametrize("kernel", ["bergman", "holomorphic"])
    @pytest.mark.parametrize("corrected", [[], ["--corrected"]])
    def test_one_halfform_root_per_request(self, kernel, corrected, capsys, monkeypatch):
        calls = []
        root = transport._halfform_log
        for module in (transport, cli):  # every binding of the root, whichever module calls it
            monkeypatch.setattr(module, "_halfform_log", lambda *a: calls.append(1) or root(*a), raising=False)
        code, _, _ = run_cli(["transport", *corrected, "--kernel", kernel], _TRANSPORT_REQUEST, capsys, monkeypatch)
        assert code == 0 and len(calls) == 1

    def test_corrected_composes_with_the_holomorphic_kernel(self, capsys, monkeypatch):
        calls = []
        build = transport._xi_kernel
        monkeypatch.setattr(transport, "_xi_kernel", lambda *a: calls.append(1) or build(*a))
        reports = {}
        for kernel in ("bergman", "holomorphic"):
            code, out, _ = run_cli(["transport", "--corrected", "--kernel", kernel], _TRANSPORT_REQUEST, capsys, monkeypatch)
            assert code == 0
            reports[kernel] = json.loads(out)["outputs"]["transport"]
            assert len(calls) == (kernel == "holomorphic")
        bergman, holomorphic = reports["bergman"], reports["holomorphic"]
        assert holomorphic["halfform_phase"] == bergman["halfform_phase"]
        for key in ("M", "b", "c"):
            np.testing.assert_allclose(holomorphic["section"][key], bergman["section"][key], rtol=0, atol=1e-14)

    def test_closed_is_not_a_kernel(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["transport", "--kernel", "closed"])
        assert info.value.code == 2
        assert "invalid choice: 'closed'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing_dir", "a_directory"])
    def test_unwritable_out_exits_2(self, where, tmp_path, capsys, monkeypatch):
        path = tmp_path / "missing" / "r.json" if where == "missing_dir" else tmp_path
        code, out, err = run_cli(["--out", str(path), "transport"], _TRANSPORT_REQUEST, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err.startswith(f"input error: cannot write {path}: ")

    @pytest.mark.parametrize("command", ["geodesic", "transport"])
    def test_deeply_nested_input_exits_2(self, command, capsys, monkeypatch):
        code, out, err = run_cli([command], "[" * 100_000, capsys, monkeypatch)
        assert (code, out) == (2, "")
        assert err == "input error: the input is nested too deeply\n"
