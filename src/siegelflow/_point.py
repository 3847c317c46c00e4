"""Kaehler frames of the Gaussian sections: points of the Siegel upper half-space.

A point is a symmetric complex n x n matrix Omega = Omega1 + i*Omega2 with
Omega2 positive definite.  Each point parameterizes a linear complex
structure on R^{2n} compatible with the standard symplectic form
omega = sum_i dx^i ^ dy^i.  A frame, a point or a real polarization
(``siegel.BoundaryPolarization``), supplies the coordinates z = E v of its
sections (``coord_matrix``), the weight w of their factor exp(-w |z|^2 / 2)
with its real form w |z(v)|^2 = v^T G v (``gram_matrix``), and the
integrability test of their quadratic part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import NonFiniteError, NotIntegrableError

SYMMETRY_TOL = 1e-12
GAUSSIAN_NORM_MARGIN = 1e-9


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

    weight = 1.0  # sections carry exp(-|z|^2 / 2)
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

    def to_json(self) -> dict:
        return {"omega1": self.omega1.tolist(), "omega2": self.omega2.tolist()}

    @cached_property
    def _imag_eigh(self) -> tuple:
        """(sqrt(w), v) with omega2 = v diag(w) v^T, read-only."""
        w, v = np.linalg.eigh(self.omega2)
        root = np.sqrt(w)
        root.flags.writeable = v.flags.writeable = False
        return root, v

    def imag_sqrt(self) -> np.ndarray:
        """Symmetric positive square root of the imaginary part."""
        root, v = self._imag_eigh
        return (v * root) @ v.T

    def imag_inv_sqrt(self) -> np.ndarray:
        root, v = self._imag_eigh
        return (v / root) @ v.T

    @cached_property
    def coord_matrix(self) -> np.ndarray:
        """E with z(v) = E v for stacked real v = (x, y); shape (n, 2n), read-only."""
        half = self.imag_inv_sqrt() / np.sqrt(2.0)
        e = np.hstack([half, -half @ np.conj(self.omega)])
        e.flags.writeable = False
        return e

    @cached_property
    def gram_matrix(self) -> np.ndarray:
        """Real symmetric G with |z(v)|^2 = v^T G v, read-only; NonFiniteError naming the point past the float range."""
        total = sum(map(abs, self.coord_matrix.ravel().tolist()))  # n total^2 bounds each entry and partial sum of G
        if not self.n * total * total < np.inf:
            raise NonFiniteError(f"the Gram matrix of {self!r} is not finite: its coordinates sum to {total:.1e}")
        g = (self.coord_matrix.conj().T @ self.coord_matrix).real
        g.flags.writeable = False
        return g

    def check_integrable(self, m: np.ndarray) -> None:
        # ||m||_2 <= ||m||_F: svd (each entry's ||m||_2) runs only when the |m_ij|^2 summed over a stack near the bound
        if not np.vdot(m, m).real < (1.0 - 1e-12) * (1.0 - GAUSSIAN_NORM_MARGIN) ** 2:
            if not max(np.linalg.svd(m, compute_uv=False).ravel().tolist()) < 1.0 - GAUSSIAN_NORM_MARGIN:
                raise NotIntegrableError("||m|| must stay below 1 for square-integrability")

    def close_to(self, other, tol: float = 1e-10) -> bool:
        return (
            isinstance(other, SiegelPoint)
            and other.n == self.n
            and np.abs(self.omega1 - other.omega1).max() <= tol
            and np.abs(self.omega2 - other.omega2).max() <= tol
        )

    def __repr__(self):
        return f"SiegelPoint(omega={np.array2string(self.omega, precision=6)})"


@lru_cache(maxsize=8)
def standard_point(n: int) -> SiegelPoint:
    """The base point i*I_n, built once per n: a point is immutable, its arrays read-only."""
    return SiegelPoint(np.zeros((n, n)), np.eye(n))


def diagonal_point(diag) -> SiegelPoint:
    """The point i*diag(d) for positive d."""
    d = np.atleast_1d(np.asarray(diag, dtype=float))
    return SiegelPoint(np.zeros((d.size, d.size)), np.diag(d))
