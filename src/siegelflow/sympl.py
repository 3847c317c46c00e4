"""Real symplectic linear algebra and metaplectic branch tracking.

An element of Sp(2n, R) is kept as one read-only 2n x 2n matrix
g = (A, B; C, D) acting on stacked coordinates (x, y); the blocks are views
into it.  It is checked by g^T J0 g = J0 with J0 = (0, I; -I, 0), whose
blocks are A^T C = C^T A, B^T D = D^T B and A^T D - C^T B = I_n (twice).
The group acts on the Siegel upper half-space by fractional linear
transformations g . Omega = (A Omega + B)(C Omega + D)^{-1}, and on
the holomorphic coordinates z_Omega by a unitary matrix.

A metaplectic element is a symplectic matrix together with a tracked branch
of det(conj(C Omega + D))^{1/2}, anchored at i*I and carried to any other
point of the upper half-space by the library's one det^{1/2} rule,
``half_logdet``, through the transformation law of Xi; the two lifts of any g
differ exactly by a sign (Folland, Harmonic Analysis in Phase Space, ch. 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ._gaussint import half_logdet
from ._point import SiegelPoint, standard_point
from .errors import NonFiniteError, NonUnitaryError, SpRelationViolatedError

CONSTRUCTION_TOL = 1e-12
COMPOSE_TOL = 1e-9
UNITARITY_TOL = 1e-8


@lru_cache(maxsize=None)
def symplectic_form_matrix(n: int) -> np.ndarray:
    """J0 = (0, I; -I, 0) with omega(v, w) = v^T J0 w in stacked (x, y) coordinates, read-only."""
    j = np.kron([[0.0, 1.0], [-1.0, 0.0]], np.eye(n))
    j.flags.writeable = False
    return j


def _sp_residual(m: np.ndarray) -> float:
    """max |m^T J0 m - J0| / max(|m|^T |J0| |m|, 1), entry by entry: each relation to the size of its terms."""
    j, am = symplectic_form_matrix(m.shape[0] // 2), np.abs(m)
    return float((np.abs(m.T @ j @ m - j) / np.maximum(am.T @ np.abs(j) @ am, 1.0)).max())


@dataclass(frozen=True)
class SymplecticMap:
    """Element of Sp(2n, R): ``matrix`` = (a, b; c, d), the blocks views into it."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = [np.atleast_2d(np.asarray(x, dtype=float)) for x in (self.a, self.b, self.c, self.d)]
        n = blocks[0].shape[0]
        if any(x.shape != (n, n) for x in blocks):
            raise ValueError(f"blocks must all be {n} x {n}, got {[x.shape for x in blocks]}")
        m = np.empty((2 * n, 2 * n))
        m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:] = blocks
        self._store(m)

    def _store(self, m: np.ndarray, tol=CONSTRUCTION_TOL, what="block relations violated") -> "SymplecticMap":
        """Check ``m``, owned by this map, entry by entry to ``tol`` of its scale; freeze it and set the views."""
        amax = float(np.abs(m).max())
        # finite entries past 1.3e154 / sqrt(2n): a scale entry, a sum of 2n products, may leave the float range
        if amax < np.inf == m.shape[0] * amax * amax:
            raise NonFiniteError(f"symplectic map with an entry of {amax:.1e}: the check's scale is not finite")
        res = _sp_residual(m) if amax < np.inf else np.nan
        if not res <= tol:  # also NaN, as for any non-finite entry
            raise SpRelationViolatedError(f"{what}: residual {res:.3e} of the entrywise scale")
        m.flags.writeable = False
        n = m.shape[0] // 2
        for name, view in zip(("matrix", "a", "b", "c", "d"), (m, m[:n, :n], m[:n, n:], m[n:, :n], m[n:, n:])):
            object.__setattr__(self, name, view)
        return self

    @classmethod
    def identity(cls, n: int) -> "SymplecticMap":
        return object.__new__(cls)._store(np.eye(2 * n))

    @classmethod
    def from_matrix(cls, m) -> "SymplecticMap":
        return object.__new__(cls)._store(np.array(m, dtype=float))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    def inverse(self) -> "SymplecticMap":
        return SymplecticMap(self.d.T, -self.b.T, -self.c.T, self.a.T)

    def cz_plus_d(self, omega: SiegelPoint) -> np.ndarray:
        return self.c @ omega.omega + self.d


def compose(g1: SymplecticMap, g2: SymplecticMap) -> SymplecticMap:
    """Matrix product g1 g2, re-checked against the symplectic relation."""
    return object.__new__(SymplecticMap)._store(g1.matrix @ g2.matrix, COMPOSE_TOL, "composition left the group")


def _moebius(g: SymplecticMap, z: np.ndarray) -> np.ndarray:
    """(A Z + B)(C Z + D)^{-1} of a complex symmetric Z, symmetrized."""
    res = np.linalg.solve((g.c @ z + g.d).T, (g.a @ z + g.b).T).T
    return 0.5 * (res + res.T)


def act_on_siegel(g: SymplecticMap, omega: SiegelPoint) -> SiegelPoint:
    """Fractional linear action (A Omega + B)(C Omega + D)^{-1}."""
    return SiegelPoint.from_complex(_moebius(g, omega.omega))


def xi_matrix(omega: SiegelPoint, omega_p: SiegelPoint) -> np.ndarray:
    """Xi_{Omega Omega'} = (Omega - conj(Omega')) / (2i); equals Im Omega on the diagonal."""
    return (omega.omega - np.conj(omega_p.omega)) / 2j


def transform_z_coords(g: SymplecticMap, omega: SiegelPoint, target: SiegelPoint) -> np.ndarray:
    """Unitary T with z_Omega o g^{-1} = T z_{g.Omega}; ``target`` is g.Omega.

    Computed as Omega_2^{-1/2} (C Omega + D)^dagger (g.Omega)_2^{1/2}; the
    equivalent expression Omega_2^{1/2} (C Omega + D)^{-1} (g.Omega)_2^{-1/2}
    is used as a cross-check in the test suite.
    """
    t = omega.imag_inv_sqrt() @ g.cz_plus_d(omega).conj().T @ target.imag_sqrt()
    res = np.abs(t.conj().T @ t - np.eye(omega.n)).max()
    if res > UNITARITY_TOL:
        raise NonUnitaryError(f"coordinate change not unitary: residual {res:.3e}")
    return t


@dataclass(frozen=True)
class MetaplecticElement:
    """A symplectic map with a tracked branch of det(conj(C Omega + D))^{1/2}.

    ``branch`` is the chosen unit value of the half-form phase at i*I;
    ``phase_at`` carries it to every other point of the upper half-space
    through ``half_logdet``.  The two lifts of one g are +-``branch``.
    """

    g: SymplecticMap
    branch: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(abs(self.branch) - 1.0) > 1e-10:
            raise ValueError("branch must be a unit complex number")
        w = np.conj(np.linalg.det(self.g.cz_plus_d(standard_point(self.g.n))))
        if abs(self.branch**2 - w / abs(w)) > 1e-8:
            raise ValueError("branch^2 does not match det(conj(C Omega + D))/|det| at i*I")

    @classmethod
    def principal_lift(cls, g: SymplecticMap) -> "MetaplecticElement":
        """Lift with the principal square root at i*I."""
        u = np.conj(np.linalg.det(g.cz_plus_d(standard_point(g.n))))
        return cls(g, np.exp(0.5j * np.angle(u)))

    @cached_property
    def _moved_anchor_conj(self) -> np.ndarray:
        """conj(g . i*I), built once per element."""
        return np.conj(_moebius(self.g, standard_point(self.g.n).omega))

    def phase_at(self, omega: SiegelPoint, steps: int = 0) -> complex:
        """Half-form phase det(conj(C Omega + D))^{1/2} / |det(C Omega + D)|^{1/2}.

        Xi(a, b) = (a - conj b) / 2i obeys Xi(g Omega, g i*I) = (-i C + D)^{-T}
        Xi(Omega, i*I) (C Omega + D)^{-1}, so the phase is branch *
        exp(-i Im[half_logdet(Xi(Omega, i*I)) - half_logdet(Xi(g Omega, g i*I))]):
        both Xi have positive definite real part, where the root is continuous, and are real at i*I.

        ``steps`` is ignored; ``perfbench/tracer.py`` counts evaluations from
        it (steps + 1, one per call) and it goes with that counter.
        """
        here = half_logdet((omega.omega + 1j * np.eye(omega.n)) / 2j)
        moved = half_logdet((_moebius(self.g, omega.omega) - self._moved_anchor_conj) / 2j)
        phase = self.branch * np.exp(-1j * (here - moved).imag)
        return complex(phase / abs(phase))

    def inverse(self) -> "MetaplecticElement":
        return self._inverse

    @cached_property
    def _inverse(self) -> "MetaplecticElement":
        """The inverse lift, built once per element."""
        ginv = self.g.inverse()
        branch = 1.0 / self.phase_at(act_on_siegel(ginv, standard_point(self.g.n)))
        return MetaplecticElement(ginv, branch / abs(branch))

    def compose(self, other: "MetaplecticElement") -> "MetaplecticElement":
        """Group law: (self * other) acts by other first, then self."""
        g = compose(self.g, other.g)
        branch = self.phase_at(act_on_siegel(other.g, standard_point(g.n))) * other.branch
        return MetaplecticElement(g, branch / abs(branch))


def _unitary_embedding(u: np.ndarray) -> np.ndarray:
    """(Re u, Im u; -Im u, Re u): the symplectic matrix of a unitary u, which fixes i*I."""
    return np.concatenate([np.concatenate([u.real, u.imag], axis=1), np.concatenate([-u.imag, u.real], axis=1)])


def random_symplectic(rng: np.random.Generator, n: int) -> SymplecticMap:
    """Random element: a product of exactly symplectic factors, checked once.

    Two rounds of three 2n x 2n factors, multiplied in as plain arrays: a
    block-embedded unitary (A = Re u, B = Im u), a positive diagonal squeeze
    diag(d, 1/d) and an upper shear (I, S; 0, I) with S symmetric.  Products
    of these span the group.  The product is checked once, as ``compose``
    checks one.
    """
    m = np.eye(2 * n)
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        m = m @ _unitary_embedding(u)
        d = np.exp(rng.uniform(-0.7, 0.7, size=n))
        m = m @ np.diag(np.concatenate([d, 1.0 / d]))
        s = rng.normal(size=(n, n))
        shear = np.eye(2 * n)
        shear[:n, n:] = 0.5 * (s + s.T)
        m = m @ shear
    return object.__new__(SymplecticMap)._store(m, COMPOSE_TOL, "composition left the group")


def random_siegel(rng: np.random.Generator, n: int) -> SiegelPoint:
    """Random point with symmetric real part and well-conditioned imaginary part."""
    o1 = rng.normal(size=(n, n))
    o1 = 0.5 * (o1 + o1.T)
    m = rng.normal(size=(n, n))
    o2 = m @ m.T + 0.3 * np.eye(n)
    return SiegelPoint(o1, o2)
