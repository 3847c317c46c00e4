"""Independent references the tests check the library against.

None of these is on a library path: each is a second route to a value the
library computes another way (a sampled det^{1/2} continuation, the
standard-geodesic closed form of coherent transport, explicit ladder and
deformation matrices).  ``test_branches`` asserts that no name defined here
is also an attribute of a ``siegelflow`` module.
"""

import numpy as np

from siegelflow import GaussianSection, diagonal_point


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
