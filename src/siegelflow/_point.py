"""Points of the Siegel upper half-space.

A point is a symmetric complex n x n matrix Omega = Omega1 + i*Omega2 with
Omega2 positive definite.  Each point parameterizes a linear complex
structure on R^{2n} compatible with the standard symplectic form
omega = sum_i dx^i ^ dy^i.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SYMMETRY_TOL = 1e-12


def _as_real_symmetric(a, name: str, tol: float = SYMMETRY_TOL) -> np.ndarray:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    amax = float(np.abs(a).max())
    if not amax < np.inf:  # also false for NaN
        raise ValueError(f"{name} must be finite")
    if np.abs(a - a.T).max() > tol * max(1.0, amax):
        raise ValueError(f"{name} is not symmetric to tolerance {tol}")
    half = 0.5 * a  # halved first: a + a.T overflows for finite entries above ~9e307
    return half + half.T


@dataclass(frozen=True)
class SiegelPoint:
    """Omega = omega1 + i*omega2 with omega1 symmetric, omega2 SPD."""

    omega1: np.ndarray
    omega2: np.ndarray
    omega: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        o1 = _as_real_symmetric(self.omega1, "omega1")
        o2 = _as_real_symmetric(self.omega2, "omega2")
        if o1.shape != o2.shape:
            raise ValueError("omega1 and omega2 must have the same shape")
        if np.linalg.eigvalsh(o2).min() <= 0:
            raise ValueError("imaginary part must be positive definite")
        omega = o1 + 1j * o2
        for arr in (o1, o2, omega):
            arr.flags.writeable = False
        object.__setattr__(self, "omega1", o1)
        object.__setattr__(self, "omega2", o2)
        object.__setattr__(self, "omega", omega)

    @classmethod
    def from_complex(cls, omega) -> "SiegelPoint":
        omega = np.atleast_2d(np.asarray(omega, dtype=complex))
        return cls(omega.real, omega.imag)

    @property
    def n(self) -> int:
        return self.omega1.shape[0]

    def imag_sqrt(self) -> np.ndarray:
        """Symmetric positive square root of the imaginary part."""
        w, v = np.linalg.eigh(self.omega2)
        return (v * np.sqrt(w)) @ v.T

    def imag_inv_sqrt(self) -> np.ndarray:
        w, v = np.linalg.eigh(self.omega2)
        return (v / np.sqrt(w)) @ v.T

    def close_to(self, other: "SiegelPoint", tol: float = 1e-10) -> bool:
        return (
            np.abs(self.omega1 - other.omega1).max() <= tol
            and np.abs(self.omega2 - other.omega2).max() <= tol
        )

    def __repr__(self):
        return f"SiegelPoint(omega={np.array2string(self.omega, precision=6)})"


def standard_point(n: int) -> SiegelPoint:
    """The base point i*I_n."""
    return SiegelPoint(np.zeros((n, n)), np.eye(n))


def diagonal_point(diag) -> SiegelPoint:
    """The point i*diag(d) for positive d."""
    d = np.atleast_1d(np.asarray(diag, dtype=float))
    return SiegelPoint(np.zeros((d.size, d.size)), np.diag(d))
