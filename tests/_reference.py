"""Independent references the tests check the library against.

None of these is on a library path: each is a second route to a value the
library computes another way (a sampled det^{1/2} continuation, the
standard-geodesic closed form of coherent transport, explicit ladder and
deformation matrices, a term-by-term Gaussian-polynomial pairing).
``test_branches`` asserts that no name defined here is also an attribute
of a ``siegelflow`` module.
"""

from math import factorial

import numpy as np

from siegelflow import GaussianSection, diagonal_point
from siegelflow._gaussint import gauss_log_integral


class BranchDiscontinuityError(Exception):
    """A sampled square-root continuation step would jump the argument by >= pi/2."""


def continue_sqrt_phase(values: np.ndarray, start_phase: complex) -> complex:
    """Continue a unit phase of sqrt(w/|w|) along sampled nonzero values w.

    start_phase is the chosen square root phase at values[0].  Raises if a
    step turns the argument by pi/2 or more, which signals that the path
    sampling is too coarse to track the branch.
    """
    values = np.asarray(values, dtype=complex)
    if np.abs(values).min() == 0:
        raise BranchDiscontinuityError("path crosses zero")
    ratios = values[1:] / values[:-1]
    dargs = np.angle(ratios)
    if dargs.size and np.abs(dargs).max() >= np.pi / 2:
        raise BranchDiscontinuityError(
            f"argument step {np.abs(dargs).max():.3f} >= pi/2; refine the path"
        )
    return start_phase * np.exp(0.5j * dargs.sum())


def transport_coherent_standard(alpha, lam, t: float) -> GaussianSection:
    """Transport of c_alpha from i*I along i exp(2 Lambda t), in closed form:

    (det sech)^{1/2} exp[ (1/2)(a|z)^T (tanh, sech; sech, -tanh)(a|z) - |z|^2/2 ],
    with a = conj(alpha) and the hyperbolic functions evaluated at Lambda t.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    n = lam.size
    alpha = np.asarray(alpha, dtype=complex).reshape(n)
    th = np.tanh(lam * t)
    sh = 1.0 / np.cosh(lam * t)
    ac = np.conj(alpha)
    target = diagonal_point(np.exp(2.0 * lam * t))
    return GaussianSection(
        target,
        np.diag(-th),
        sh * ac,
        0.5 * (ac @ (th * ac)) + 0.5 * float(np.sum(np.log(sh))),
    )


def bogoliubov_operator_deformation(t: float) -> np.ndarray:
    """Coefficient matrix (cosh t, sinh t; sinh t, cosh t) mixing (a, a^dagger)."""
    return np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])


def ladder_matrices(n_trunc: int):
    """Truncated annihilation/creation matrices in a Fock frame."""
    a = np.zeros((n_trunc, n_trunc))
    for k in range(1, n_trunc):
        a[k - 1, k] = np.sqrt(k)
    return a, a.T.copy()


def poly_gauss_pairing_loop(S, ell, k, a, b, p1, p2) -> complex:
    """Normalised integral of exp((1/2) v^T S v + ell^T v + k) p1(a . v) p2(b . v),
    one scalar at a time in Python.

    c[j, l] = [s^j t^l] exp(b1 s + b2 t + g11 s^2/2 + g12 s t + g22 t^2/2)
    comes from the recurrence in j for every column, and the moments
    j! l! c[j, l] are summed term by term.
    """
    log = gauss_log_integral(S, ell, k)
    x0, xa, xb = (np.linalg.solve(S, v) for v in (ell, a, b))
    b1, b2, g11, g12, g22 = -a @ x0, -b @ x0, -a @ xa, -a @ xb, -b @ xb
    c = np.zeros((len(p1), len(p2)), dtype=complex)
    c[0, 0] = 1.0
    for l in range(len(p2) - 1):
        c[0, l + 1] = (b2 * c[0, l] + (g22 * c[0, l - 1] if l else 0.0)) / (l + 1)
    for j in range(len(p1) - 1):
        for l in range(len(p2)):
            acc = b1 * c[j, l]
            if j:
                acc += g11 * c[j - 1, l]
            if l:
                acc += g12 * c[j, l - 1]
            c[j + 1, l] = acc / (j + 1)
    total = 0.0 + 0.0j
    for j in range(len(p1)):
        for l in range(len(p2)):
            total += p1[j] * p2[l] * float(factorial(j)) * float(factorial(l)) * c[j, l]
    return total * np.exp(log)
