"""Seeded workloads for the siegelflow benchmark.

A workload is a repeating *period* of ops.  Every op's inputs (suite seeds,
points, states, request JSON texts) are generated from the workload seed
before any op is timed; the op itself only calls the public API of
``siegelflow``: a verification suite, the in-process CLI ``main``, or the
Fock expansion functions.  A CLI op reads its request from stdin and writes
its report to stdout, both in memory, so that no op and no set-up waits for
the disk.

Each op has a timed ``call`` and an untimed ``check`` of what the call
returned.  Functions are looked up on their module at call time, so that a
tracer that rebinds module attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

import siegelflow
from siegelflow import cli, suites


@dataclass(frozen=True)
class SuiteOp:
    """``suites.suite_<name>(**kwargs)``; passes when every row passed."""

    name: str
    kwargs: dict = field(default_factory=dict)

    def call(self):
        return getattr(suites, f"suite_{self.name}")(**self.kwargs)

    def check(self, rows) -> bool:
        return bool(rows) and all(r["passed"] is True for r in rows)


class CliError(Exception):
    """``cli.main`` returned non-zero without printing a report: it caught an
    exception and printed it to stderr."""

    def __init__(self, rc: int, stderr: str):
        super().__init__(f"exit code {rc}: {stderr.strip()}")


@dataclass(frozen=True)
class CliOp:
    """In-process ``cli.main(argv)`` with ``stdin`` as the request; passes when
    it returns 0 and the report it printed has ``passed: true``.  Raises
    ``CliError`` when ``main`` fails without a report."""

    name: str
    argv: tuple
    stdin: str

    def call(self):
        saved, sys.stdin = sys.stdin, io.StringIO(self.stdin)
        try:
            with contextlib.redirect_stdout(io.StringIO()) as out, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                rc = cli.main(list(self.argv))
        finally:
            sys.stdin = saved
        if rc != 0 and not out.getvalue():
            raise CliError(rc, err.getvalue())
        return rc, out.getvalue()

    def check(self, result) -> bool:
        rc, report = result
        return rc == 0 and json.loads(report)["passed"] is True


@dataclass(frozen=True)
class FockRoundTripOp:
    """||s||^2 for s = from_fock_coefficients(fock_coefficients(c_alpha, n)),
    which must equal ||c_alpha||^2 = exp(|alpha|^2)."""

    omega: siegelflow.SiegelPoint
    alpha: complex
    n_trunc: int = 200
    name: str = "fock_round_trip"

    def call(self):
        c = siegelflow.coherent_state([self.alpha], self.omega)
        s = siegelflow.from_fock_coefficients(
            siegelflow.fock_coefficients(c, self.n_trunc), self.omega
        )
        return siegelflow.inner_product(s, s)

    def check(self, value) -> bool:
        expected = math.exp(abs(self.alpha) ** 2)
        return abs(complex(value) - expected) <= 1e-10 * expected


@dataclass(frozen=True)
class Workload:
    name: str
    why: str  # op mix and the reason for the workload, as in BENCHMARK.json
    period: int  # ops per period; runs stop on a period boundary
    period_est_s: float  # rough seconds per period; sizes the traced pass and the input pool
    # op_tail_ms percentile: the ten-beyond rule at the lowest op count seen in
    # 25 s runs, so that every run reports the same percentile
    tail_p: float
    make: object  # (rng, periods) -> list of ops


def _suite_seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


def _boundary(rng, periods):
    ops = []
    for _ in range(periods):
        ops += [SuiteOp("identities", {"seed": _suite_seed(rng), "trials": 1}) for _ in range(9)]
        ops.append(SuiteOp("limits"))
    return ops


def _oracle(rng, periods):
    # 24 nodes under-resolve rare squeezed draws (suite seed 1423475779: residual
    # 7.6e-4 against a 1e-5 tolerance); 32 nodes bring that draw to 6.4e-6
    ops = []
    for _ in range(periods):
        ops += [
            SuiteOp("unitarity", {"seed": _suite_seed(rng), "trials": 2, "oracle_trials": 3, "nodes": 32}),
            SuiteOp("bogoliubov", {"seed": _suite_seed(rng), "trials": 2}),
            SuiteOp("flatness", {"seed": _suite_seed(rng), "trials": 2}),
        ]
    return ops


def _point_json(rng, n: int) -> dict:
    """A point of the Siegel upper half-space with well-conditioned Im part."""
    o1 = rng.normal(scale=0.7, size=(n, n))
    m = rng.normal(scale=0.5, size=(n, n))
    return {"omega1": (0.5 * (o1 + o1.T)).tolist(), "omega2": (m @ m.T + 0.5 * np.eye(n)).tolist()}


def _alpha_json(rng, n: int) -> list:
    return (0.6 * rng.normal(size=(n, 2))).tolist()


def _geodesic_pair(rng, lam_max: float) -> tuple[dict, dict]:
    """Two points of the upper half-plane at distance 2*lambda, lambda in [0.2, lam_max]."""
    lam = rng.uniform(0.2, lam_max)
    theta = rng.uniform(0.0, np.pi)
    far = 1j * np.exp(2.0 * lam)
    far = (np.cos(theta) * far + np.sin(theta)) / (-np.sin(theta) * far + np.cos(theta))
    x, y = rng.normal(scale=0.5), np.exp(rng.uniform(-0.5, 0.5))
    start, end = complex(x, y), x + y * far
    return (
        {"omega1": [[start.real]], "omega2": [[start.imag]]},
        {"omega1": [[end.real]], "omega2": [[end.imag]]},
    )


def _ode(rng, periods):
    ops = []
    for _ in range(periods):
        # the 128-term basis of --trunc 32 trips the truncation guard above lambda ~ 0.85
        for trunc, lam_max in ((32, 0.8), (64, 1.0), (32, 0.8)):
            omega, omega_p = _geodesic_pair(rng, lam_max)
            alpha = rng.uniform(0.0, 0.7) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
            data = {"omega": omega, "omega_p": omega_p,
                    "state": {"alpha": [[alpha.real, alpha.imag]]}}
            argv = ("--trunc", str(trunc), "transport", "--corrected", "--ode-check",
                    "--ode-steps", "2000")
            ops.append(CliOp(f"transport_ode_trunc{trunc}", argv, json.dumps(data)))
    return ops


_REQUEST_FLAGS = {
    "geodesic": ("geodesic",),
    "transport": ("transport",),
    "transport_corrected": ("transport", "--corrected"),
    "transport_holomorphic": ("transport", "--kernel", "holomorphic"),
}


def _requests(rng, periods):
    seen = {kind: 0 for kind in _REQUEST_FLAGS}
    ops = []
    for _ in range(periods):
        for slot in range(20):
            if slot == 19:
                omega = siegelflow.SiegelPoint.from_complex(
                    [[complex(rng.normal(scale=0.5), np.exp(rng.uniform(-0.5, 0.5)))]]
                )
                alpha = complex(*(0.6 * rng.normal(size=2)))
                ops.append(FockRoundTripOp(omega, alpha))
            elif slot % 5 == 4:
                ops.append(SuiteOp("lemma21", {"seed": _suite_seed(rng), "trials": 3}))
            else:
                kind = tuple(_REQUEST_FLAGS)[slot % 5]
                n = 1 + seen[kind] % 3
                seen[kind] += 1
                data = {"omega": _point_json(rng, n), "omega_p": _point_json(rng, n)}
                if kind != "geodesic":
                    data["state"] = {"alpha": _alpha_json(rng, n)}
                ops.append(CliOp(f"{kind}_n{n}", _REQUEST_FLAGS[kind], json.dumps(data)))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "boundary",
            "per 10 ops: 9 suite_identities(trials=1), 1 suite_limits; sampled 64-point det^(1/2) "
            "continuations (phase_at, pairing maps) take ~77% of the time",
            10, 4.6, 75.0, _boundary,
        ),
        Workload(
            "oracle",
            "suite_unitarity(trials=2, oracle_trials=3, nodes=32), suite_bogoliubov(trials=2), "
            "suite_flatness(trials=2); quadrature and GaussianSection.value take 83-94%, no continuation",
            3, 1.0, 75.0, _oracle,
        ),
        Workload(
            "ode",
            "per 3 ops: cli transport --corrected --ode-check --ode-steps 2000, n=1 coherent states, "
            "--trunc 32, 64, 32; the Fock RK4 loop takes ~90% of each op",
            3, 1.6, 75.0, _ode,
        ),
        Workload(
            "requests",
            "per 20 ops: 16 cli geodesic/transport/--corrected/--kernel holomorphic (n=1..3), "
            "3 suite_lemma21(trials=3), 1 degree-199 Fock round trip; per-call overhead dominates",
            20, 0.18, 99.0, _requests,
        ),
    )
}


def make_ops(workload: Workload, seed, periods: int) -> list:
    """The first ``periods`` periods of the workload's op sequence for ``seed``."""
    return workload.make(np.random.default_rng(seed), periods)
