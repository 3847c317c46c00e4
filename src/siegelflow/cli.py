"""Command-line interface: geodesics, transport, and verification suites.

All commands read JSON (from --in or stdin where input is required) and
emit a JSON report, which ``main`` builds and writes for every command, one
line per top-level key in sorted order, each value compact with sorted keys:

    {
      "command": "...",
      "inputs": {...},            # echo of the parsed input and flags
      "outputs": {...},           # command-specific payload
      "passed": true/false,
      "results": [{"name": ..., "passed": ..., "residual": ..., "tolerance": ...}, ...],
      "schema_version": 4,
      "wall_time_s": ...
    }

--tol, a finite number >= 0, sets the tolerance of every row.  Reports are
deterministic for a fixed configuration and seed apart from the wall_time_s
field; randomized suites draw from numpy's PCG64 generator seeded with --seed.

Exit codes: 0 on success, 1 when a row fails (named on stderr) or a result
could not be computed, 2 on usage or parse errors, over-deep input or an unwritable --out.

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

from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import SiegelFlowError
from .sections import (
    QUAD_NODES_MAX,
    CorrectedSection,
    _complex_array_to_json,
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
from .suites import SUITES, _row
from .transport import (
    _act_on_section,
    transport_corrected,
    transport_kernel_apply,
    transport_ode,
    transport_uncorrected,
)

SCHEMA_VERSION = 4


def _load_input(args) -> dict:
    try:
        data = json.loads(sys.stdin.read() if args.input in (None, "-") else Path(args.input).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {args.input}: {exc.strerror}") from exc
    except RecursionError:
        raise ValueError("the input is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError(f"input must be a JSON object, not {type(data).__name__}")
    return data


def _emit(report: dict, out_path: str | None) -> None:
    # one line per top-level key: without an indent, json encodes each value in C
    try:
        lines = [f'  "{key}": {json.dumps(report[key], sort_keys=True, allow_nan=False)}' for key in sorted(report)]
    except ValueError:
        raise SiegelFlowError("the result is not finite; no report written") from None
    text = "{\n" + ",\n".join(lines) + "\n}"
    if out_path:
        try:
            Path(out_path).write_text(text + "\n")
        except OSError as exc:
            raise ValueError(f"cannot write {out_path}: {exc.strerror}") from exc
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed the pipe (say, `| head`): point stdout at devnull
            # so that the flush at exit cannot raise again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


def cmd_geodesic(args):
    data = _load_input(args)
    omega = _point_from_json(data["omega"], "omega")
    omega_p = _point_from_json(data["omega_p"], "omega_p")
    spec = geodesic_between(omega, omega_p)
    outputs = {
        "g": {k: getattr(spec.g, k).tolist() for k in "abcd"},
        "lambda": spec.lam.tolist(),
        "samples": {f"{t:.2f}": geodesic_eval(spec, t).to_json() for t in (0.0, 0.25, 0.5, 0.75, 1.0)},
    }
    return data, [_row("geodesic/endpoint_round_trip", spec.endpoint_residual(), 1e-8)], outputs


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


def cmd_transport(args):
    data = _load_input(args)
    omega = _point_from_json(data["omega"], "omega")
    omega_p = _point_from_json(data["omega_p"], "omega_p")
    psi = _parse_state(data, omega)
    results: list[dict] = []

    # one half-form root gives the Bogoliubov scale (its modulus) and the
    # correction phase (its argument), whichever kernel moves the section
    section, log_h = transport_kernel_apply(psi, omega, omega_p, args.kernel)
    transported = {"section": section_to_json(section), "scale": float(np.exp(log_h.real))}
    if args.corrected:
        transported["halfform_phase"] = _complex_array_to_json(np.exp(1j * log_h.imag))
    outputs = {"transport": transported}

    if args.ode_check:
        if omega.n != 1:
            raise SiegelFlowError("--ode-check supports n = 1")
        spec = geodesic_between(omega, omega_p)
        coeffs = fock_coefficients(_act_on_section(spec.g.inverse(), psi), args.trunc)
        lam = float(spec.lam[0])
        c_ode = transport_ode(coeffs, lam, 1.0, args.ode_steps)
        start, end = from_fock_coefficients(coeffs, standard_point(1)), diagonal_point([np.exp(2.0 * lam)])
        c_closed = fock_coefficients(transport_uncorrected(start, end), args.trunc)
        # both over the power of two above the largest amplitude, exactly, so that no square overflows
        scale = 2.0 ** np.frexp(np.abs(c_closed).max())[1]
        resid = np.linalg.norm((c_ode[: args.trunc] - c_closed) / scale) / np.linalg.norm(c_closed / scale)
        results.append(_row("transport/ode_vs_closed_form", resid, 1e-6))
        outputs["ode_basis"] = len(c_ode)

    if args.triangle:
        omega_pp = _point_from_json(data["omega_pp"], "omega_pp")
        start = CorrectedSection(psi)
        around = transport_corrected(transport_corrected(transport_corrected(start, omega_p), omega_pp), omega)
        resid = difference_norm(around, start) / norm(psi)
        hol = inner_product(psi, around.section) / inner_product(psi, psi)
        results.append(_row("transport/triangle_holonomy_identity", resid, 1e-8))
        outputs["triangle_holonomy"] = _complex_array_to_json(hol)

    flags = {"corrected": bool(args.corrected), "kernel": args.kernel,
             "ode_check": bool(args.ode_check), "triangle": bool(args.triangle)}
    return {**data, "flags": flags}, results or [_row("transport/completed", 0.0, 1.0)], outputs


def cmd_verify(args):
    fn = SUITES[args.suite]
    params = inspect.signature(fn).parameters
    kwargs = {k: v for k, v in {"seed": args.seed, "nodes": args.nodes}.items() if k in params}
    return {"suite": args.suite, "seed": args.seed}, fn(**kwargs), {}


def _bounded(kind, low, domain: str):
    """An argparse type: the text read as ``kind``, at least ``low`` and finite, or exit 2."""
    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None
        if not low <= value < np.inf:  # nan fails too; a report holds only finite JSON numbers
            raise argparse.ArgumentTypeError(f"must be {domain}, not {value}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelflow",
        description="Geodesic transport of Gaussian states and its boundary transforms.",
    )
    parser.add_argument("--seed", type=_bounded(int, 0, "a non-negative integer"), default=42,
                        help="seed for randomized checks")
    parser.add_argument("--tol", type=_bounded(float, 0.0, "a finite number >= 0"), default=None,
                        help="tolerance of every result row")
    parser.add_argument(
        "--nodes", type=_bounded(int, 1, "a positive integer"), default=64,
        help="starting quadrature nodes per dimension for the unitarity oracle, doubled until two grids "
        f"agree, up to {QUAD_NODES_MAX} (numpy's Gauss-Hermite weights underflow beyond)",
    )
    parser.add_argument("--trunc", type=_bounded(int, 1, "a positive integer"), default=32, help="Fock truncation")
    parser.add_argument("--out", type=str, default=None, help="write the report to a file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_geo = sub.add_parser("geodesic", help="normal form of the geodesic between two points")
    p_geo.add_argument("--in", dest="input", default=None, help="input JSON file (default stdin)")

    p_tr = sub.add_parser("transport", help="transport a state between two points")
    p_tr.add_argument("--in", dest="input", default=None)
    p_tr.add_argument("--corrected", action="store_true", help="include the half-form correction")
    p_tr.add_argument("--kernel", choices=("bergman", "holomorphic"), default="bergman",
                      help="the rescaled projection or the Xi kernel; either composes with --corrected")
    p_tr.add_argument("--ode-check", action="store_true", help="cross-check against the Fock ODE")
    p_tr.add_argument("--ode-steps", type=int, default=10000, help="ignored: the Fock ODE's propagator is exact")
    p_tr.add_argument("--triangle", action="store_true", help="run the flatness check (needs omega_pp)")

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    return parser


# each command returns (inputs, rows, outputs); main dispatches through this dict
# at call time, so a wrapper put in it takes effect
_COMMANDS = {"geodesic": cmd_geodesic, "transport": cmd_transport, "verify": cmd_verify}
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    t0 = time.time()
    try:
        inputs, rows, outputs = _COMMANDS[args.command](args)
        if args.tol is not None:
            rows = [_row(r["name"], r["residual"], args.tol) for r in rows]
        failed = [r for r in rows if not r["passed"]]
        _emit({"schema_version": SCHEMA_VERSION, "command": args.command, "inputs": inputs,
               "results": rows, "outputs": outputs, "passed": not failed,
               "wall_time_s": round(time.time() - t0, 6)}, args.out)
    except (SiegelFlowError, np.linalg.LinAlgError, ArithmeticError) as exc:
        # LinAlgError is a ValueError, but it marks a failed computation; an
        # ArithmeticError is a value past the range of a float, or a division
        # by a norm that underflowed to 0
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if failed:
        print(f"verification failed: {failed[0]['name']} residual {failed[0]['residual']:.3e} "
              f"> {failed[0]['tolerance']:.1e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
