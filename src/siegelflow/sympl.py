"""Real symplectic linear algebra and metaplectic branch tracking.

Elements of Sp(2n, R) are kept in block form g = (A, B; C, D) acting on
stacked coordinates (x, y).  The block relations are

    A^T C = C^T A,   B^T D = D^T B,   A^T D - C^T B = I_n,

equivalently g^T J0 g = J0 with J0 = (0, I; -I, 0).  The group acts on the
Siegel upper half-space by fractional linear transformations
g . Omega = (A Omega + B)(C Omega + D)^{-1}, and on the holomorphic
coordinates z_Omega by a unitary matrix.

A metaplectic element is a symplectic matrix together with a tracked branch
of det(conj(C Omega + D))^{1/2}, anchored at a reference point and continued
along the straight segment to any other point of the upper half-space; the
two lifts of any g differ exactly by a sign.  The continuation has a
closed form (Folland, Harmonic Analysis in Phase Space, ch. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._point import SiegelPoint, standard_point
from .errors import BranchDiscontinuityError, NonUnitaryError, SpRelationViolatedError

CONSTRUCTION_TOL = 1e-12
COMPOSE_TOL = 1e-9
UNITARITY_TOL = 1e-8


def _sp_residual(a, b, c, d) -> float:
    n = a.shape[0]
    r1 = np.abs(a.T @ c - c.T @ a).max()
    r2 = np.abs(b.T @ d - d.T @ b).max()
    r3 = np.abs(a.T @ d - c.T @ b - np.eye(n)).max()
    return max(r1, r2, r3)


@dataclass(frozen=True)
class SymplecticMap:
    """Element of Sp(2n, R) in block form (a, b; c, d)."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        blocks = []
        for name in ("a", "b", "c", "d"):
            m = np.atleast_2d(np.asarray(getattr(self, name), dtype=float)).copy()
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            blocks.append(m)
        scale = max(1.0, max(np.abs(m).max() for m in blocks) ** 2)
        res = _sp_residual(*blocks)
        if res > CONSTRUCTION_TOL * scale:
            raise SpRelationViolatedError(
                f"block relations violated: residual {res:.3e} (scale {scale:.1e})"
            )

    @classmethod
    def identity(cls, n: int) -> "SymplecticMap":
        i, z = np.eye(n), np.zeros((n, n))
        return cls(i, z, z, i)

    @classmethod
    def from_matrix(cls, m) -> "SymplecticMap":
        m = np.asarray(m, dtype=float)
        n = m.shape[0] // 2
        return cls(m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.a, self.b], [self.c, self.d]])

    def inverse(self) -> "SymplecticMap":
        return SymplecticMap(self.d.T, -self.b.T, -self.c.T, self.a.T)

    def cz_plus_d(self, omega: SiegelPoint) -> np.ndarray:
        return self.c @ omega.omega + self.d

    def __matmul__(self, other: "SymplecticMap") -> "SymplecticMap":
        return compose(self, other)


def compose(g1: SymplecticMap, g2: SymplecticMap) -> SymplecticMap:
    """Matrix product g1 g2, re-checked against the block relations."""
    a = g1.a @ g2.a + g1.b @ g2.c
    b = g1.a @ g2.b + g1.b @ g2.d
    c = g1.c @ g2.a + g1.d @ g2.c
    d = g1.c @ g2.b + g1.d @ g2.d
    scale = max(1.0, max(np.abs(m).max() for m in (a, b, c, d)) ** 2)
    res = _sp_residual(a, b, c, d)
    if res > COMPOSE_TOL * scale:
        raise SpRelationViolatedError(
            f"composition left the group: residual {res:.3e}"
        )
    # skip the (tighter) construction check; the product was just verified
    obj = object.__new__(SymplecticMap)
    for name, m in zip("abcd", (a, b, c, d)):
        m.flags.writeable = False
        object.__setattr__(obj, name, m)
    return obj


def act_on_siegel(g: SymplecticMap, omega: SiegelPoint) -> SiegelPoint:
    """Fractional linear action (A Omega + B)(C Omega + D)^{-1}."""
    num = g.a @ omega.omega + g.b
    den = g.cz_plus_d(omega)
    res = np.linalg.solve(den.T, num.T).T
    res = 0.5 * (res + res.T)
    return SiegelPoint(res.real, res.imag)


def xi_matrix(omega: SiegelPoint, omega_p: SiegelPoint) -> np.ndarray:
    """Xi_{Omega Omega'} = (Omega - conj(Omega')) / (2i); equals Im Omega on the diagonal."""
    return (omega.omega - np.conj(omega_p.omega)) / 2j


def transform_z_coords(g: SymplecticMap, omega: SiegelPoint) -> np.ndarray:
    """Unitary T with z_Omega o g^{-1} = T z_{g.Omega}.

    Computed as Omega_2^{-1/2} (C Omega + D)^dagger (g.Omega)_2^{1/2}; the
    equivalent expression Omega_2^{1/2} (C Omega + D)^{-1} (g.Omega)_2^{-1/2}
    is used as a cross-check in the test suite.
    """
    target = act_on_siegel(g, omega)
    t = omega.imag_inv_sqrt() @ g.cz_plus_d(omega).conj().T @ target.imag_sqrt()
    res = np.abs(t.conj().T @ t - np.eye(omega.n)).max()
    if res > UNITARITY_TOL:
        raise NonUnitaryError(f"coordinate change not unitary: residual {res:.3e}")
    return t


def continue_sqrt_phase(values: np.ndarray, start_phase: complex) -> complex:
    """Continue a unit phase of sqrt(w/|w|) along sampled nonzero values w.

    start_phase is the chosen square root phase at values[0].  Raises if a
    step turns the argument by pi/2 or more, which signals that the path
    sampling is too coarse to track the branch.  The library evaluates its
    branches in closed form; this sampled continuation is the independent
    reference the tests check them against.
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


@dataclass(frozen=True)
class MetaplecticElement:
    """A symplectic map with a tracked branch of det(conj(C Omega + D))^{1/2}.

    ``branch`` is the chosen unit value of the half-form phase at
    ``reference``; phases elsewhere are obtained by continuation along the
    straight segment from the reference (the segment stays in the upper
    half-space by convexity).
    """

    g: SymplecticMap
    branch: complex = 1.0 + 0.0j
    reference: SiegelPoint = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.reference is None:
            object.__setattr__(self, "reference", standard_point(self.g.n))
        if abs(abs(self.branch) - 1.0) > 1e-10:
            raise ValueError("branch must be a unit complex number")
        u = self._unit_det(self.reference)
        if min(abs(self.branch**2 - u), abs((-self.branch) ** 2 - u)) > 1e-8:
            raise ValueError("branch^2 does not match det(conj(C Omega + D))/|det| at the reference")

    @classmethod
    def principal_lift(cls, g: SymplecticMap, reference: SiegelPoint | None = None) -> "MetaplecticElement":
        """Lift with the principal square root at the reference point."""
        if reference is None:
            reference = standard_point(g.n)
        u = np.conj(np.linalg.det(g.cz_plus_d(reference)))
        return cls(g, np.exp(0.5j * np.angle(u)), reference)

    def _unit_det(self, omega: SiegelPoint) -> complex:
        w = np.conj(np.linalg.det(self.g.cz_plus_d(omega)))
        return w / abs(w)

    def other_lift(self) -> "MetaplecticElement":
        return MetaplecticElement(self.g, -self.branch, self.reference)

    def phase_at(self, omega: SiegelPoint, steps: int = 0) -> complex:
        """Half-form phase det(conj(C Omega + D))^{1/2} / |det(C Omega + D)|^{1/2}.

        Continued from the branch at the reference along the straight
        segment, in closed form.  With P = C Omega_ref + D, Q = C (Omega -
        Omega_ref) and mu = eig(P^{-1} Q), det(P + sQ) = det P prod(1 + s mu_k);
        each factor runs on a straight line from 1 and never meets 0, so it
        never crosses the cut of the principal square root.

        ``steps`` is ignored; ``perfbench/tracer.py`` counts evaluations from
        it (steps + 1, one per call) and it goes with that counter.
        """
        p = self.g.cz_plus_d(self.reference)
        mu = np.linalg.eigvals(np.linalg.solve(p, self.g.c @ (omega.omega - self.reference.omega)))
        phase = self.branch * np.prod(np.conj(np.sqrt(1.0 + mu)))
        return complex(phase / abs(phase))

    def inverse(self) -> "MetaplecticElement":
        ginv = self.g.inverse()
        pre = act_on_siegel(ginv, self.reference)
        branch = 1.0 / self.phase_at(pre)
        return MetaplecticElement(ginv, branch / abs(branch), self.reference)

    def compose(self, other: "MetaplecticElement") -> "MetaplecticElement":
        """Group law: (self * other) acts by other first, then self."""
        g = compose(self.g, other.g)
        mid = act_on_siegel(other.g, other.reference)
        branch = self.phase_at(mid) * other.branch
        return MetaplecticElement(g, branch / abs(branch), other.reference)


def random_symplectic(rng: np.random.Generator, n: int, factors: int = 2) -> SymplecticMap:
    """Random element built from exactly symplectic factors.

    Each factor is one of: a block-embedded unitary (A = Re u, B = Im u),
    a positive diagonal squeeze diag(d, 1/d), or an upper shear (I, S; 0, I)
    with S symmetric.  Products of these span the group.
    """
    g = SymplecticMap.identity(n)
    z = np.zeros((n, n))
    for _ in range(factors):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        g = compose(g, SymplecticMap(u.real, u.imag, -u.imag, u.real))
        d = np.exp(rng.uniform(-0.7, 0.7, size=n))
        g = compose(g, SymplecticMap(np.diag(d), z, z, np.diag(1.0 / d)))
        s = rng.normal(size=(n, n))
        s = 0.5 * (s + s.T)
        g = compose(g, SymplecticMap(np.eye(n), s, z, np.eye(n)))
    return g


def random_siegel(rng: np.random.Generator, n: int, spread: float = 1.0) -> SiegelPoint:
    """Random point with symmetric real part and well-conditioned imaginary part."""
    o1 = rng.normal(scale=spread, size=(n, n))
    o1 = 0.5 * (o1 + o1.T)
    m = rng.normal(scale=spread, size=(n, n))
    o2 = m @ m.T + 0.3 * np.eye(n)
    return SiegelPoint(o1, o2)
