import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siegelflow import random_siegel
from siegelflow.cli import main
from siegelflow.transport import ODE_BASIS_MAX

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
# well-shaped n = 1 sections with arbitrary numbers, so that most draws reach the transport
_SECTION_LIKE = st.fixed_dictionaries(
    {
        "frame": st.just(_UNIT_POINT) | st.builds(lambda a, b: point_json([[a]], [[b]]), _NUMBER, _NUMBER),
        "M": st.builds(lambda p: [[p]], _PAIR),
        "b": st.builds(lambda p: [p], _PAIR),
        "c": _PAIR,
    },
    optional={"poly": st.lists(_PAIR, max_size=5)},
)


@settings(max_examples=300, deadline=None)
@given(
    section=_JSON | _SECTION_LIKE,
    flags=st.sampled_from([[], ["--corrected"], ["--kernel", "bergman"], ["--kernel", "holomorphic"], ["--triangle"]]),
)
def test_any_section_json_exits_without_a_traceback(section, flags):
    payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]),
                          "omega_pp": point_json([[-0.5]], [[0.7]]), "state": {"section": section}})
    saved, sys.stdin = sys.stdin, io.StringIO(payload)
    try:
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            code = main(["transport", *flags])
    finally:
        sys.stdin = saved
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


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

    def test_non_finite_result_exits_1_without_a_report(self, capsys, monkeypatch):
        section = {"frame": _UNIT_POINT, "M": [[[0.0, 0.0]]], "b": [[1e200, 0.0]], "c": [0.0, 0.0]}
        payload = json.dumps({"omega": _UNIT_POINT, "omega_p": point_json([[0.3]], [[2.0]]), "state": {"section": section}})
        with np.errstate(all="ignore"):
            code, out, err = run_cli(["transport"], payload, capsys, monkeypatch)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "not finite" in err

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
        assert err.startswith("error: --trunc 300 ") and f"ODE_BASIS_MAX = {ODE_BASIS_MAX}" in err

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
