"""Geometry of the Siegel upper half-space and of its real Lagrangian boundary.

The invariant Kaehler metric is ds^2 = Tr(Omega2^{-1} dOmega Omega2^{-1}
dconj(Omega)).  The curves t -> i exp(2 Lambda t) with Lambda >= 0 diagonal
are geodesics through i*I, and every geodesic is a symplectic translate of
one of them.  The normal form of a geodesic between two given points is
computed through the Cayley transform of the second endpoint and a Takagi
factorization: the Cayley image of i exp(2 lambda) is tanh(lambda), so the
singular values of the Cayley image are the hyperbolic tangents of the
geodesic rates.

A real polarization with a lifted reduction to L- (``BoundaryPolarization``)
is the other kind of frame of the Gaussian sections, beside the points, and
the one Lagrangian type: it carries the orthonormal span of its subspace.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._point import SiegelPoint
from .errors import NonFiniteError, NotIntegrableError
from .sympl import COMPOSE_TOL, MetaplecticElement, SymplecticMap, _moebius, _unitary_embedding, symplectic_form_matrix

TRANSVERSALITY_TOL = 1e-8
ENDPOINT_TOL = 1e-8
# a geodesic rate at or below this vanishes: the curve has no boundary limit
RATE_TOL = 1e-12


def complex_structure_of(omega: SiegelPoint) -> np.ndarray:
    """The compatible complex structure J on R^{2n} parameterized by Omega.

    J = ( Omega1 Omega2^{-1},  -Omega2 - Omega1 Omega2^{-1} Omega1 ;
          Omega2^{-1},         -Omega2^{-1} Omega1 ).
    """
    o1, o2 = omega.omega1, omega.omega2
    o2inv = np.linalg.inv(omega.omega2)
    return np.block([[o1 @ o2inv, -o2 - o1 @ o2inv @ o1], [o2inv, -o2inv @ o1]])


def takagi(w: np.ndarray):
    """Takagi factorization w = u diag(sigma) u^T of a complex symmetric matrix.

    Returns (sigma, u) with sigma >= 0 sorted descending and u unitary.
    Uses the real symmetric embedding T = (Re w, Im w; Im w, -Re w): real
    eigenpairs (s, (x, y)) of T with s > 0 give Takagi vectors v = x + i y,
    and v -> i v maps the +s eigenspace onto the -s one.  The columns of the
    (numerically) zero singular values only have to complete u to a unitary:
    they are the trailing columns of a QR factorization of (v_1 ... v_k | I),
    which runs only when some singular value is zero.
    """
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    n = w.shape[0]
    if np.abs(w - w.T).max() > 1e-10 * max(1.0, np.abs(w).max()):
        raise ValueError("matrix must be complex symmetric")
    w = 0.5 * (w + w.T)
    t = np.block([[w.real, w.imag], [w.imag, -w.real]])
    evals, evecs = np.linalg.eigh(t)
    # positive eigenvalues, largest first
    pos = np.argsort(-evals)
    pos = pos[evals[pos] > 1e-12 * max(1.0, np.abs(evals).max())]
    u = evecs[:n, pos] + 1j * evecs[n:, pos]
    if len(pos) < n:
        u = np.hstack([u, np.linalg.qr(np.hstack([u, np.eye(n)]))[0][:, len(pos) : n]])
    sigma = np.concatenate([evals[pos], np.zeros(n - len(pos))])
    if np.abs(u.conj().T @ u - np.eye(n)).max() > 1e-9:
        raise np.linalg.LinAlgError("Takagi factor lost unitarity")
    if np.abs(u * sigma @ u.T - w).max() > 1e-9 * max(1.0, np.abs(w).max()):
        raise np.linalg.LinAlgError("Takagi reconstruction failed")
    return sigma, u


@dataclass(frozen=True)
class GeodesicSpec:
    """Normal form gamma(t) = g . (i exp(2 Lambda t)) of a geodesic."""

    g: SymplecticMap
    lam: np.ndarray
    omega_start: SiegelPoint
    omega_end: SiegelPoint

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float)).copy()
        if lam.shape != (self.g.n,) or not (lam >= 0.0).all() or not (lam < np.inf).all():  # NaN fails both
            raise ValueError(f"geodesic rates {lam.tolist()} must be {self.g.n} finite numbers >= 0")
        if not all(isinstance(p, SiegelPoint) and p.n == self.g.n for p in (self.omega_start, self.omega_end)):
            raise ValueError(f"endpoints {self.omega_start!r} and {self.omega_end!r} must be points of n = {self.g.n}")
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    def endpoint_residual(self) -> float:
        return self._endpoint_residual

    @cached_property
    def _endpoint_residual(self) -> float:
        """max |gamma(0) - Omega|, |gamma(1) - Omega'|, computed once per spec."""
        r0 = np.abs(geodesic_eval(self, 0.0).omega - self.omega_start.omega).max()
        r1 = np.abs(geodesic_eval(self, 1.0).omega - self.omega_end.omega).max()
        return max(r0, r1)


def geodesic_eval(spec: GeodesicSpec, t: float) -> SiegelPoint:
    """The point g . (i exp(2 Lambda t)); NonFiniteError naming t where it or i exp(2 Lambda t) is not finite."""
    with np.errstate(all="ignore"):  # out of the float range raises below
        scale = np.exp(2.0 * spec.lam * t)
        omega = _moebius(spec.g, np.diag(1j * scale)) if 0.0 < scale.min() and scale.max() < np.inf else None
    if omega is None or not np.isfinite(omega).all():
        raise NonFiniteError(f"the geodesic point i exp(2 Lambda t) at t = {t} or its image leaves the float range")
    return SiegelPoint.from_complex(omega)


def _move_to_base(omega: SiegelPoint) -> np.ndarray:
    """The matrix of g with g . (i I) = Omega:  (Omega2^{1/2}, Omega1 Omega2^{-1/2}; 0, Omega2^{-1/2}).

    NonFiniteError naming the point when an entry's square, the scale of the
    symplectic check of g and of its products, leaves the float range."""
    n = omega.n
    rinv = omega.imag_inv_sqrt()
    m = np.zeros((2 * n, 2 * n))
    with np.errstate(all="ignore"):
        m[:n, :n], m[:n, n:], m[n:, n:] = omega.imag_sqrt(), omega.omega1 @ rinv, rinv
    amax = float(np.abs(m).max())
    if not amax * amax < np.inf:  # also false for NaN
        raise NonFiniteError(f"the map taking i I to {omega!r} has an entry of {amax:.1e}, whose square is not finite")
    return m


def geodesic_between(omega: SiegelPoint, omega_p: SiegelPoint) -> GeodesicSpec:
    """Normal form (g, Lambda) with g.(iI) = Omega and g.(i e^{2 Lambda}) = Omega'.

    Steps: pull Omega' back by g1 = ``_move_to_base(Omega)``, in closed form
    Z = R^{-1} (Omega' - Omega1) R^{-1} with R = Omega2^{1/2}; Cayley-transform Z
    to a symmetric strict contraction w = u diag(sigma) u^T (Takagi); the rates
    are the artanh of sigma.  g = g1 (Re u, Im u; -Im u, Re u), the second factor
    fixing i*I, is one product checked once against the symplectic relation.
    Lambda is sorted descending; for equal endpoints it is 0.
    """
    if bad := [p for p in (omega, omega_p) if not isinstance(p, SiegelPoint)]:
        raise ValueError(f"a geodesic joins two points of the upper half-space, not {bad[0]!r}")
    if omega.n != omega_p.n:
        raise ValueError(f"{omega!r} and {omega_p!r} are frames of different spaces")
    n = omega.n
    g1 = _move_to_base(omega)
    rinv = omega.imag_inv_sqrt()
    with np.errstate(all="ignore"):
        z = rinv @ (omega_p.omega - omega.omega1) @ rinv
    if not np.isfinite(z).all():
        raise NonFiniteError(f"{omega_p!r} pulled back to the base point by {omega!r} is not finite")
    eye = np.eye(n)
    w = np.linalg.solve((z + 1j * eye).T, (z - 1j * eye).T).T
    w = 0.5 * (w + w.T)
    sigma, u = takagi(w)
    lam = np.arctanh(np.clip(sigma, 0.0, 1.0 - 1e-15))
    g = object.__new__(SymplecticMap)._store(g1 @ _unitary_embedding(u), COMPOSE_TOL, "composition left the group")
    spec = GeodesicSpec(g, lam, omega, omega_p)
    res = spec.endpoint_residual()
    if res > ENDPOINT_TOL * max(1.0, np.abs(omega_p.omega).max()):
        raise np.linalg.LinAlgError(f"geodesic normal form failed: endpoint residual {res:.3e}")
    return spec


def exchange_map(n: int) -> SymplecticMap:
    """g0 = (0, I; -I, 0): swaps the two standard Lagrangians, fixes i*I."""
    i, z = np.eye(n), np.zeros((n, n))
    return SymplecticMap(z, i, -i, z)


@dataclass(frozen=True)
class BoundaryPolarization:
    """The polarization g . L- with the lifted reduction ``reference`` = g to
    L-: the frame of the sections polarized along it.

    A section over it is a profile phi of u = x0 on V/L- = R^n, v = g (x0, y0),
    with value phi(x0) exp((i/2) x0^T y0) on V and half-form on the pushed
    sqrt(d^n x o g^{-1}).  So E = I_n, the weight is 0 (G = 0) and Re m < 0;
    in Xi the frame enters as Omega = 0, in the normalisations as
    Omega2 = I/2.  Two sections pair only when they share the reference.
    """

    weight = 0.0
    reference: MetaplecticElement

    def __post_init__(self):
        eye, zero = np.eye(self.n), np.zeros((self.n, self.n))
        for name, value in (("coord_matrix", eye), ("gram_matrix", zero), ("omega", zero), ("omega2", 0.5 * eye)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    # the standard frames are immutable, so each n builds its pair once
    @classmethod
    @lru_cache(maxsize=8)
    def position(cls, n: int) -> "BoundaryPolarization":
        return cls(MetaplecticElement(SymplecticMap.identity(n), 1.0))

    @classmethod
    @lru_cache(maxsize=8)
    def momentum(cls, n: int) -> "BoundaryPolarization":
        # e^{i pi n / 4}: the continued i^{n/2} of ``fourier``; the principal lift has the other sign at n = 3
        return cls(MetaplecticElement(exchange_map(n), np.exp(0.25j * np.pi * n)))

    @classmethod
    def from_span(cls, span) -> "BoundaryPolarization":
        """The polarization along the column span of ``span``, with the
        canonical reference (J0 W | W), W an orthonormal basis of it; raises
        ``SpRelationViolatedError`` unless the span is Lagrangian."""
        w, _ = np.linalg.qr(np.asarray(span, dtype=float))
        g = SymplecticMap.from_matrix(np.hstack([symplectic_form_matrix(w.shape[1]) @ w, w]))
        return cls(MetaplecticElement.principal_lift(g))

    @property
    def n(self) -> int:
        return self.reference.g.n

    @cached_property
    def span(self) -> np.ndarray:
        """Orthonormal basis of the polarized subspace g . L-, read-only."""
        w, _ = np.linalg.qr(self.reference.g.matrix[:, self.n :])
        w.flags.writeable = False
        return w

    def transverse_to(self, other: "BoundaryPolarization") -> bool:
        """|det(W^T J0 W')| on the orthonormal spans, the product of the sines
        of the principal angles between the two subspaces, exceeds the tolerance."""
        if not isinstance(other, BoundaryPolarization) or other.n != self.n:
            raise ValueError(f"{self!r} and {other!r} are not polarizations of one space")
        d = np.linalg.det(self.span.T @ symplectic_form_matrix(self.n) @ other.span)
        return bool(abs(d) > TRANSVERSALITY_TOL)

    def imag_sqrt(self) -> np.ndarray:
        return np.sqrt(0.5) * np.eye(self.n)

    def check_integrable(self, m: np.ndarray) -> None:
        if not np.linalg.eigvalsh(m.real).max() < 0:
            raise NotIntegrableError("Re m must be negative definite for square-integrability on L-")

    def close_to(self, other, tol: float = 1e-10) -> bool:
        """Same n, the same reference g and the same lift of it: sections over
        the two compare directly.  The two lifts of one g are anchored at i*I
        with branches of opposite sign, so the branches tell them apart."""
        if other is self:
            return True
        same_n = isinstance(other, BoundaryPolarization) and other.n == self.n
        if not (same_n and np.abs(self.reference.g.matrix - other.reference.g.matrix).max() <= tol):
            return False
        return abs(self.reference.branch - other.reference.branch) < 1.0

    def __repr__(self):
        return f"BoundaryPolarization(g={np.array2string(self.reference.g.matrix, precision=6)})"


def geodesic_boundary_limits(spec: GeodesicSpec):
    """Boundary polarizations (g.L-, g.L+) of gamma at t -> -inf, +inf: the
    frames of the Segal-Bargmann and Fourier limits of transport.

    Present only when every rate is strictly positive; any vanishing rate
    leaves the curve inside the upper half-space in that direction.
    """
    if spec.lam.min() <= RATE_TOL:
        return None, None
    lift = MetaplecticElement.principal_lift(spec.g)
    # g g0 . L- = g . L+, g0 lifted as in fourier
    plus = lift.compose(BoundaryPolarization.momentum(spec.g.n).reference)
    return BoundaryPolarization(lift), BoundaryPolarization(plus)
