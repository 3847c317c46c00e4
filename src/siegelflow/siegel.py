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
is the other kind of frame of the Gaussian sections, beside the points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._point import SiegelPoint, diagonal_point
from .errors import NonTransverseError, NotIntegrableError
from .sympl import MetaplecticElement, SymplecticMap, act_on_siegel, compose

TRANSVERSALITY_TOL = 1e-8
ENDPOINT_TOL = 1e-8


def complex_structure_of(omega: SiegelPoint) -> np.ndarray:
    """The compatible complex structure J on R^{2n} parameterized by Omega.

    J = ( Omega1 Omega2^{-1},  -Omega2 - Omega1 Omega2^{-1} Omega1 ;
          Omega2^{-1},         -Omega2^{-1} Omega1 ).
    """
    o1, o2 = omega.omega1, omega.omega2
    o2inv = np.linalg.inv(omega.omega2)
    return np.block([[o1 @ o2inv, -o2 - o1 @ o2inv @ o1], [o2inv, -o2inv @ o1]])


def symplectic_form_matrix(n: int) -> np.ndarray:
    """J0 with omega(v, w) = v^T J0 w in stacked (x, y) coordinates."""
    i = np.eye(n)
    z = np.zeros((n, n))
    return np.block([[z, i], [-i, z]])


def takagi(w: np.ndarray, zero_tol: float = 1e-12):
    """Takagi factorization w = u diag(sigma) u^T of a complex symmetric matrix.

    Returns (sigma, u) with sigma >= 0 sorted descending and u unitary.
    Uses the real symmetric embedding T = (Re w, Im w; Im w, -Re w): real
    eigenpairs (s, (x, y)) of T with s >= 0 give Takagi vectors v = x + i y,
    and v -> i v maps the +s eigenspace onto the -s one.  For (numerically)
    zero singular values the eigenspace is closed under v -> i v, so a real
    form is extracted greedily.
    """
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    n = w.shape[0]
    if np.abs(w - w.T).max() > 1e-10 * max(1.0, np.abs(w).max()):
        raise ValueError("matrix must be complex symmetric")
    w = 0.5 * (w + w.T)
    t = np.block([[w.real, w.imag], [w.imag, -w.real]])
    evals, evecs = np.linalg.eigh(t)
    scale = max(1.0, np.abs(evals).max())

    cols = []
    sigmas = []
    # positive eigenvalues, largest first
    order = np.argsort(-evals)
    for idx in order:
        if evals[idx] > zero_tol * scale:
            v = evecs[:n, idx] + 1j * evecs[n:, idx]
            cols.append(v)
            sigmas.append(evals[idx])
    # real form of the (numerically) zero eigenspace
    null_idx = [i for i in range(2 * n) if abs(evals[i]) <= zero_tol * scale]
    chosen: list[np.ndarray] = []
    for idx in null_idx:
        r = evecs[:, idx].copy()
        for v in chosen:
            re = np.concatenate([v.real, v.imag])
            im = np.concatenate([-v.imag, v.real])  # embedding of i*v
            r -= (re @ r) * re + (im @ r) * im
        nrm = np.linalg.norm(r)
        if nrm > 1e-6:
            chosen.append((r[:n] + 1j * r[n:]) / nrm)
            sigmas.append(0.0)
        if len(cols) + len(chosen) == n:
            break
    cols.extend(chosen)
    if len(cols) != n:
        raise np.linalg.LinAlgError("Takagi vector extraction failed")
    u = np.array(cols).T
    sigma = np.array(sigmas)
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
        lam.flags.writeable = False
        object.__setattr__(self, "lam", lam)

    @property
    def n(self) -> int:
        return self.lam.size

    def endpoint_residual(self) -> float:
        r0 = np.abs(geodesic_eval(self, 0.0).omega - self.omega_start.omega).max()
        r1 = np.abs(geodesic_eval(self, 1.0).omega - self.omega_end.omega).max()
        return max(r0, r1)


def geodesic_eval(spec: GeodesicSpec, t: float) -> SiegelPoint:
    """The point g . (i exp(2 Lambda t)); in the upper half-space for all finite t."""
    return act_on_siegel(spec.g, diagonal_point(np.exp(2.0 * spec.lam * t)))


def _move_to_base(omega: SiegelPoint) -> SymplecticMap:
    """g with g . (i I) = Omega:  (Omega2^{1/2}, Omega1 Omega2^{-1/2}; 0, Omega2^{-1/2})."""
    r = omega.imag_sqrt()
    rinv = omega.imag_inv_sqrt()
    z = np.zeros((omega.n, omega.n))
    return SymplecticMap(r, omega.omega1 @ rinv, z, rinv)


def _unitary_stabilizer(u: np.ndarray) -> SymplecticMap:
    """Embedding of U(n): u = A + iB -> (A, B; -B, A), fixing i*I."""
    return SymplecticMap(u.real, u.imag, -u.imag, u.real)


def geodesic_between(omega: SiegelPoint, omega_p: SiegelPoint) -> GeodesicSpec:
    """Normal form (g, Lambda) with g.(iI) = Omega and g.(i e^{2 Lambda}) = Omega'.

    Steps: move Omega to i*I; Cayley-transform the image of Omega' to a
    symmetric strict contraction; Takagi-factor it; the rates are the
    artanh of the singular values.  Lambda is sorted descending.  For equal
    endpoints the degenerate output has Lambda = 0.
    """
    if omega.n != omega_p.n:
        raise ValueError("dimension mismatch")
    n = omega.n
    g1 = _move_to_base(omega)
    if omega.close_to(omega_p, tol=1e-13):
        return GeodesicSpec(g1, np.zeros(n), omega, omega_p)
    opp = act_on_siegel(g1.inverse(), omega_p)
    eye = np.eye(n)
    w = np.linalg.solve((opp.omega + 1j * eye).T, (opp.omega - 1j * eye).T).T
    w = 0.5 * (w + w.T)
    sigma, u = takagi(w)
    sigma = np.clip(sigma, 0.0, 1.0 - 1e-15)
    lam = np.arctanh(sigma)
    g = compose(g1, _unitary_stabilizer(u.conj().T).inverse())
    spec = GeodesicSpec(g, lam, omega, omega_p)
    res = spec.endpoint_residual()
    if res > ENDPOINT_TOL * max(1.0, np.abs(omega_p.omega).max()):
        raise np.linalg.LinAlgError(f"geodesic normal form failed: endpoint residual {res:.3e}")
    return spec


def metric_distance(omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """Geodesic distance; equals 2 ||Lambda||_F in the normal form.

    Along gamma(t) = i exp(2 Lambda t) the displayed metric gives
    ds = 2 sqrt(sum lambda_j^2) dt, so the normalization constant relating
    distance to the rates is exactly 2.
    """
    if omega.close_to(omega_p, tol=1e-14):
        return 0.0
    spec = geodesic_between(omega, omega_p)
    return 2.0 * float(np.linalg.norm(spec.lam))


@dataclass(frozen=True)
class LagrangianFrame:
    """A real Lagrangian subspace given as g . L- or g . L+.

    L- = {x = 0} carries the position-type polarization, L+ = {y = 0} the
    momentum-type one.  ``frame`` spans the subspace; dx-type covectors for
    the quotient V/L are the first n rows of g^{-1}.
    """

    g: SymplecticMap
    plus: bool = False

    @classmethod
    def minus(cls, n: int) -> "LagrangianFrame":
        return cls(SymplecticMap.identity(n), plus=False)

    @classmethod
    def plus_std(cls, n: int) -> "LagrangianFrame":
        return cls(SymplecticMap.identity(n), plus=True)

    @classmethod
    def graph_of_shear(cls, s: np.ndarray) -> "LagrangianFrame":
        """The graph {(x, Sx)} for symmetric S, realized as g . L+."""
        s = np.atleast_2d(np.asarray(s, dtype=float))
        n = s.shape[0]
        lower = SymplecticMap(np.eye(n), np.zeros((n, n)), 0.5 * (s + s.T), np.eye(n))
        return cls(lower, plus=True)

    @property
    def n(self) -> int:
        return self.g.n

    @property
    def frame(self) -> np.ndarray:
        """2n x n matrix whose columns span the subspace."""
        m = self.g.matrix
        n = self.n
        return m[:, :n] if self.plus else m[:, n:]

    def is_lagrangian(self, tol: float = 1e-10) -> bool:
        f = self.frame
        return bool(np.abs(f.T @ symplectic_form_matrix(self.n) @ f).max() <= tol)

    def transverse_to(self, other: "LagrangianFrame", tol: float = TRANSVERSALITY_TOL) -> bool:
        q, _ = np.linalg.qr(self.frame)
        q2, _ = np.linalg.qr(other.frame)
        return bool(abs(np.linalg.det(np.hstack([q, q2]))) > tol)

    def same_subspace(self, other: "LagrangianFrame", tol: float = 1e-10) -> bool:
        q, _ = np.linalg.qr(self.frame)
        f = other.frame
        return bool(np.abs(f - q @ (q.T @ f)).max() <= tol * max(1.0, np.abs(f).max()))


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

    @classmethod
    def position(cls, n: int) -> "BoundaryPolarization":
        return cls(MetaplecticElement(SymplecticMap.identity(n), 1.0))

    @classmethod
    def momentum(cls, n: int) -> "BoundaryPolarization":
        return cls(MetaplecticElement.principal_lift(exchange_map(n)))

    @classmethod
    def from_metaplectic(cls, mp: MetaplecticElement) -> "BoundaryPolarization":
        return cls(mp)

    @classmethod
    def from_frame(cls, frame: LagrangianFrame) -> "BoundaryPolarization":
        """Canonical reference: columns (J0 W | W) with W an orthonormal span."""
        w, _ = np.linalg.qr(frame.frame)
        g = SymplecticMap.from_matrix(np.hstack([symplectic_form_matrix(frame.n) @ w, w]))
        return cls(MetaplecticElement.principal_lift(g))

    @property
    def n(self) -> int:
        return self.reference.g.n

    @property
    def frame(self) -> LagrangianFrame:
        """The polarized subspace g . L-."""
        return LagrangianFrame(self.reference.g, plus=False)

    def imag_sqrt(self) -> np.ndarray:
        return np.sqrt(0.5) * np.eye(self.n)

    def check_integrable(self, m: np.ndarray) -> None:
        if not np.linalg.eigvalsh(m.real).max() < 0:
            raise NotIntegrableError("Re m must be negative definite for square-integrability on L-")

    def close_to(self, other, tol: float = 1e-10) -> bool:
        """Same n and the same reference g: sections over the two compare directly."""
        same_n = isinstance(other, BoundaryPolarization) and other.n == self.n
        return same_n and bool(np.abs(self.reference.g.matrix - other.reference.g.matrix).max() <= tol)

    def __repr__(self):
        return f"BoundaryPolarization(g={np.array2string(self.reference.g.matrix, precision=6)})"


def lagrangian_pair_map(l_from: LagrangianFrame, l_to: LagrangianFrame) -> SymplecticMap:
    """A symplectic g with g . L- = l_from and g . L+ = l_to.

    Exists iff the two subspaces are transverse: with W spanning l_from and
    U0 spanning l_to, normalizing U = U0 K^{-1} where K = U0^T J0 W makes
    (U | W) symplectic.
    """
    if not l_from.transverse_to(l_to):
        raise NonTransverseError("subspaces are not transverse")
    n = l_from.n
    j0 = symplectic_form_matrix(n)
    w, _ = np.linalg.qr(l_from.frame)
    u0, _ = np.linalg.qr(l_to.frame)
    k = u0.T @ j0 @ w
    u = u0 @ np.linalg.inv(k).T
    # columns: first n span l_to (image of L+), last n span l_from (image of L-)
    return SymplecticMap.from_matrix(np.hstack([u, w]))


def geodesic_boundary_limits(spec: GeodesicSpec, tol: float = 1e-12):
    """Boundary Lagrangians (g.L-, g.L+) of gamma at t -> -inf, +inf.

    Present only when every rate is strictly positive; any vanishing rate
    leaves the curve inside the upper half-space in that direction.
    """
    if spec.lam.min() <= tol:
        return None, None
    return LagrangianFrame(spec.g, plus=False), LagrangianFrame(spec.g, plus=True)
