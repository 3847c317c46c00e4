"""Command-line interface: geodesics, transport, and verification suites.

All commands read JSON (from --in or stdin where input is required) and
emit a JSON report:

    {
      "schema_version": 1,
      "command": "...",
      "inputs": {...},            # echo of the parsed input and flags
      "results": [ {"name", "residual", "tolerance", "passed"}, ... ],
      "outputs": {...},           # command-specific payload
      "passed": true/false,
      "wall_time_s": ...
    }

Reports are deterministic for a fixed configuration and seed apart from
the wall_time_s field; randomized suites draw from numpy's PCG64
generator seeded with --seed.

Exit codes: 0 on success, 1 when a verification fails or a result could
not be computed, 2 on usage or parse errors.

Points are encoded as {"omega1": [[...]], "omega2": [[...]]} with real
matrices; complex scalars and arrays use [re, im] pairs.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from ._point import SiegelPoint, standard_point
from .errors import SiegelFlowError
from .sections import (
    CorrectedSection,
    _complex_to_json,
    _point_from_json,
    _real_array,
    coherent_state,
    difference_norm,
    fock_coefficients,
    from_fock_coefficients,
    inner_product,
    norm,
    section_from_json,
    section_to_json,
)
from .siegel import geodesic_between, geodesic_eval
from .suites import SUITES, _limits, _row
from .sympl import MetaplecticElement
from .transport import (
    bogoliubov_scale,
    metaplectic_act,
    transport_corrected,
    transport_kernel_apply,
    transport_ode,
    transport_poly_standard,
)

SCHEMA_VERSION = 1


def _point_json(p: SiegelPoint) -> dict:
    return {"omega1": p.omega1.tolist(), "omega2": p.omega2.tolist()}


def _load_input(args) -> dict:
    try:
        text = sys.stdin.read() if args.input in (None, "-") else Path(args.input).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc.strerror}") from exc
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _emit(report: dict, out_path: str | None) -> None:
    try:
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise SiegelFlowError("the result is not finite; no report written") from None
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe (say, `| head`): point stdout at devnull
            # so that the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def _report(command: str, inputs: dict, results: list[dict], outputs: dict, t0: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "results": results,
        "outputs": outputs,
        "passed": all(r["passed"] for r in results),
        "wall_time_s": round(time.time() - t0, 6),
    }


def cmd_geodesic(args) -> int:
    t0 = time.time()
    data = _load_input(args)
    omega = _point_from_json(data["omega"], "omega")
    omega_p = _point_from_json(data["omega_p"], "omega_p")
    spec = geodesic_between(omega, omega_p)
    residual = spec.endpoint_residual()
    samples = {
        f"{t:.2f}": _point_json(geodesic_eval(spec, t)) for t in (0.0, 0.25, 0.5, 0.75, 1.0)
    }
    tol = args.tol if args.tol is not None else 1e-8
    results = [_row("geodesic/endpoint_round_trip", residual, tol)]
    outputs = {
        "g": {k: getattr(spec.g, k).tolist() for k in "abcd"},
        "lambda": spec.lam.tolist(),
        "samples": samples,
    }
    report = _report("geodesic", data, results, outputs, t0)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def _parse_state(data: dict, omega: SiegelPoint):
    state = data.get("state", {"alpha": [[0.0, 0.0]] * omega.n})
    if not isinstance(state, dict):
        raise ValueError("state must be an object with alpha or section")
    if "alpha" in state:
        arr = _real_array(state["alpha"], "state.alpha", 2)
        if arr.shape != (omega.n, 2):
            raise ValueError(f"state.alpha must hold {omega.n} [re, im] pairs")
        return coherent_state(arr[:, 0] + 1j * arr[:, 1], omega)
    psi = section_from_json(state["section"])
    if not psi.frame.close_to(omega, tol=1e-12):
        raise ValueError("state.section.frame must equal omega")
    return psi


def cmd_transport(args) -> int:
    t0 = time.time()
    data = _load_input(args)
    omega = _point_from_json(data["omega"], "omega")
    omega_p = _point_from_json(data["omega_p"], "omega_p")
    psi = _parse_state(data, omega)
    results: list[dict] = []

    if args.corrected:
        moved = transport_corrected(CorrectedSection(psi), omega_p)
        transported = {"section": section_to_json(moved.section),
                       "halfform_phase": _complex_to_json(moved.halfform_phase)}
    else:
        # "closed" is the rescaled projection, the Bergman kernel
        kernel = "bergman" if args.kernel == "closed" else args.kernel
        transported = {"section": section_to_json(transport_kernel_apply(psi, omega, omega_p, kernel))}
    if args.corrected or args.kernel == "closed":
        transported["scale"] = bogoliubov_scale(psi.frame, omega_p)
    outputs = {"transport": transported}

    if args.ode_check:
        if omega.n != 1:
            raise SiegelFlowError("--ode-check supports n = 1")
        spec = geodesic_between(omega, omega_p)
        mp = MetaplecticElement.principal_lift(spec.g)
        pulled = metaplectic_act(mp.inverse(), psi)
        coeffs = fock_coefficients(pulled, args.trunc)
        start = from_fock_coefficients(coeffs, standard_point(1))
        lam = float(spec.lam[0])
        closed = transport_poly_standard(start, lam, 1.0)
        ode = transport_ode(start, lam, 1.0, args.ode_steps, n_basis=max(4 * args.trunc, 128))
        c_closed = fock_coefficients(closed, args.trunc)
        c_ode = fock_coefficients(ode, args.trunc)
        resid = np.linalg.norm(c_ode - c_closed) / np.linalg.norm(c_closed)
        results.append(_row("transport/ode_vs_closed_form", resid, 1e-6))

    if args.triangle:
        omega_pp = _point_from_json(data["omega_pp"], "omega_pp")
        start = CorrectedSection(psi)
        around = transport_corrected(transport_corrected(transport_corrected(start, omega_p), omega_pp), omega)
        resid = difference_norm(around, start) / norm(psi)
        hol = inner_product(psi, around.section) * around.halfform_phase / inner_product(psi, psi)
        results.append(_row("transport/triangle_holonomy_identity", resid, 1e-8))
        outputs["triangle_holonomy"] = _complex_to_json(hol)

    if not results:
        results.append(_row("transport/completed", 0.0, 1.0))
    report = _report("transport", {**data, "flags": {
        "corrected": bool(args.corrected), "kernel": args.kernel,
        "ode_check": bool(args.ode_check), "triangle": bool(args.triangle)}},
        results, outputs, t0)
    _emit(report, args.out)
    return 0 if report["passed"] else 1


def cmd_verify(args) -> int:
    t0 = time.time()
    outputs = {}
    if args.suite == "limits":
        rows, rep_b, rep_f = _limits()
        outputs = {"bargmann_limit": rep_b.to_json(), "fourier_limit": rep_f.to_json()}
    else:
        fn = SUITES[args.suite]
        params = inspect.signature(fn).parameters
        kwargs = {}
        if "seed" in params:
            kwargs["seed"] = args.seed
        if "nodes" in params:
            kwargs["nodes"] = args.nodes
        rows = fn(**kwargs)
    if args.tol is not None:
        rows = [_row(r["name"], r["residual"], args.tol) for r in rows]
    report = _report("verify", {"suite": args.suite, "seed": args.seed}, rows, outputs, t0)
    _emit(report, args.out)
    if not report["passed"]:
        first = next(r for r in rows if not r["passed"])
        print(
            f"verification failed: {first['name']} residual {first['residual']:.3e} "
            f"> {first['tolerance']:.1e}",
            file=sys.stderr,
        )
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelflow",
        description="Geodesic transport of Gaussian states and its boundary transforms.",
    )
    parser.add_argument("--seed", type=int, default=42, help="seed for randomized checks")
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument(
        "--nodes", type=int, default=64,
        help="starting quadrature nodes per dimension for the unitarity oracle, doubled until two grids agree",
    )
    parser.add_argument("--trunc", type=int, default=32, help="Fock truncation")
    parser.add_argument("--out", type=str, default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_geo = sub.add_parser("geodesic", help="normal form of the geodesic between two points")
    p_geo.add_argument("--in", dest="input", default=None, help="input JSON file (default stdin)")

    p_tr = sub.add_parser("transport", help="transport a state between two points")
    p_tr.add_argument("--in", dest="input", default=None)
    p_tr.add_argument("--corrected", action="store_true", help="include the half-form correction")
    p_tr.add_argument("--kernel", choices=("closed", "bergman", "holomorphic"), default="closed")
    p_tr.add_argument("--ode-check", action="store_true", help="cross-check against the Fock ODE")
    p_tr.add_argument("--ode-steps", type=int, default=10000)
    p_tr.add_argument("--triangle", action="store_true", help="run the flatness check (needs omega_pp)")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    return parser


# main dispatches through this dict at call time, so a wrapper put in it takes effect
_COMMANDS = {"geodesic": cmd_geodesic, "transport": cmd_transport, "verify": cmd_verify}
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SiegelFlowError, np.linalg.LinAlgError) as exc:
        # LinAlgError is a ValueError, but it marks a failed computation
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
