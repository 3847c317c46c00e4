"""Host-speed calibration for the timed metrics.

A shared machine runs the same single-threaded op up to twice as slow in
phases that last from a second to tens of minutes, and the process CPU time
slows with it (steal time stays near zero).  A fixed calibration kernel,
independent of ``siegelflow``, timed next to the ops measures that speed.
The timed metrics divide each measured time by the host's slowdown, i.e.
``kernel time now / REFERENCE_S``, so they read in seconds at the reference
speed: the speed at which the kernel takes ``REFERENCE_S``.

The kernel does the kinds of work the library does: small complex linear
algebra, a vectorised complex exponential, a matrix-vector product and a
Python loop over complex scalars.
"""

from __future__ import annotations

import math
import time

import numpy as np

# about the kernel's median time on the machine the benchmark was tuned on
# (2 shared vCPUs, one BLAS thread)
REFERENCE_S = 0.005

_rng = np.random.default_rng(20240917)
_MATS = _rng.normal(size=(12, 3, 3)) + 1j * _rng.normal(size=(12, 3, 3))
_EYE = np.eye(3)
_GRID = _rng.normal(size=2048)
_BIG = _rng.normal(size=(128, 128)) + 1j * _rng.normal(size=(128, 128))
_VEC = _rng.normal(size=128) + 0j


def kernel(reps: int = 10) -> complex:
    acc = 0j
    for _ in range(reps):
        for a in _MATS:
            acc += np.linalg.det(a @ a.T + _EYE) ** 0.5
            acc += np.linalg.solve(a + 3.0 * _EYE, _EYE[0]).sum()
        acc += np.exp(1j * _GRID).sum()
        acc += (_BIG @ _VEC).sum()
        acc += sum(complex(k, 1.0) * 1e-9 for k in range(200))
    return acc


def measure() -> float:
    """Seconds the kernel takes now: the best of two back-to-back runs."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def slowdown(*kernel_s: float) -> float:
    """The host's slowdown against the reference speed, from kernel times
    measured around an interval."""
    return sum(kernel_s) / len(kernel_s) / REFERENCE_S
