"""Quantum Hilbert spaces on real Lagrangian polarizations and the
transform operators connecting them to the Kaehler family.

Sections polarized along a Lagrangian L are carried in a standard position
form: a profile phi on V/L- together with the trivializing factor
exp(+(i/2) x^T y), referred to an explicit metaplectic element mapping L- to
L.  A profile is a ``GaussianSection`` on the frame ``PositionBoundary(n)``,
p(u) exp((1/2) u^T m u + b^T u + c) with Re m < 0 (polynomial for n = 1),
normed against (2 pi)^{-n/2} du.  The pairing map to a Kaehler frame Omega
evaluates in closed form and is unitary; its boundary companions are

  * the position/momentum transform pair generalizing the classical
    Segal-Bargmann transform and its inverse,
  * the Fourier transform between transverse real polarizations, with the
    i^{n/2} normalization of the momentum-frame half-form.

Transport along a geodesic with strictly positive rates converges to these
operators at the two boundary ends; convergence reports on a fixed grid
quantify the heat-kernel width exp(2 Lambda t) of the deviation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussint import kernel_apply_poly
from ._point import PositionBoundary, SiegelPoint, diagonal_point, standard_point
from .errors import NoBoundaryLimitError, NonTransverseError, PolarizationMismatchError
from .sections import CorrectedSection, GaussianSection, difference_norm, inner_product, norm
from .siegel import GeodesicSpec, LagrangianFrame, symplectic_form_matrix
from .sympl import MetaplecticElement, SymplecticMap, act_on_siegel
from .transport import _xi_kernel_apply, metaplectic_act, transport_corrected

# Unit constant relating the pushed frame sqrt(d^n x o g0^{-1}) of the
# standard exchange element g0 = (0, I; -I, 0) (principal lift) to the
# momentum frame sqrt(d^n y).  Pinned so that reconstructing the Fourier
# operator from the Bargmann pair reproduces the direct formula with its
# principal i^{n/2}; validated by the composition tests.
def _momentum_frame_factor(n: int) -> complex:
    return 1j**n


def exchange_map(n: int) -> SymplecticMap:
    """g0 = (0, I; -I, 0): swaps the two standard Lagrangians, fixes i*I."""
    i, z = np.eye(n), np.zeros((n, n))
    return SymplecticMap(z, i, -i, z)


def _flipped(profile: GaussianSection) -> GaussianSection:
    """The composition of a profile with u -> -u."""
    signs = (-1.0) ** np.arange(len(profile.coeffs))
    return GaussianSection(profile.frame, profile.m, -profile.b, profile.c, profile.coeffs * signs)


# ---------------------------------------------------------------------------
# polarizations and corrected boundary sections


@dataclass(frozen=True)
class BoundaryPolarization:
    """A Lagrangian polarization with an explicit reduction to L-.

    ``reference`` is a lifted symplectic element whose action maps the
    standard position polarization onto ``frame``; all operators reduce
    through it, so two sections over the same subspace compare directly
    only when they share the reference.
    """

    frame: LagrangianFrame
    reference: MetaplecticElement

    def __post_init__(self):
        mapped = LagrangianFrame(self.reference.g, plus=False)
        if not mapped.same_subspace(self.frame, tol=1e-8):
            raise ValueError("reference does not map L- onto the polarization")

    @classmethod
    def position(cls, n: int) -> "BoundaryPolarization":
        g = SymplecticMap.identity(n)
        return cls(LagrangianFrame.minus(n), MetaplecticElement(g, 1.0))

    @classmethod
    def momentum(cls, n: int) -> "BoundaryPolarization":
        g0 = exchange_map(n)
        return cls(LagrangianFrame(g0, plus=False), MetaplecticElement.principal_lift(g0))

    @classmethod
    def from_metaplectic(cls, mp: MetaplecticElement) -> "BoundaryPolarization":
        return cls(LagrangianFrame(mp.g, plus=False), mp)

    @classmethod
    def from_frame(cls, frame: LagrangianFrame) -> "BoundaryPolarization":
        """Canonical reference: columns (J0 W | W) with W an orthonormal span."""
        w, _ = np.linalg.qr(frame.frame)
        j0 = symplectic_form_matrix(frame.n)
        g = SymplecticMap.from_matrix(np.hstack([j0 @ w, w]))
        return cls(frame, MetaplecticElement.principal_lift(g))

    @property
    def n(self) -> int:
        return self.frame.n

    def same_reference(self, other: "BoundaryPolarization") -> bool:
        return np.allclose(self.reference.g.matrix, other.reference.g.matrix, atol=1e-12)


@dataclass(frozen=True)
class CorrectedBoundarySection:
    """Profile in standard position form over a polarization, with half-form.

    The section as a function on V is phi(x0) exp((i/2) x0^T y0) composed
    with the reference inverse, times the half-form coefficient carried on
    the pushed frame sqrt(d^n x o g^{-1}).  The profile is a
    ``GaussianSection`` on ``PositionBoundary(n)``.
    """

    polarization: BoundaryPolarization
    profile: GaussianSection
    halfform_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if not self.profile.frame.close_to(PositionBoundary(self.polarization.n)):
            raise ValueError(f"profile over {self.profile.frame!r} does not match the polarization")
        object.__setattr__(self, "halfform_phase", complex(self.halfform_phase))

    @property
    def n(self) -> int:
        return self.polarization.n

    def value_on_V(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        n = self.n
        v0 = v @ self.polarization.reference.g.inverse().matrix.T
        x0, y0 = v0[..., :n], v0[..., n:]
        phase = np.exp(0.5j * np.einsum("...i,...i->...", x0, y0))
        return self.profile.value(x0) * phase * self.halfform_phase

    def momentum_profile(self) -> GaussianSection:
        """The chi(y) data of a momentum-type section: value = chi(y) e^{-i x.y/2}."""
        if not np.allclose(self.polarization.reference.g.matrix, exchange_map(self.n).matrix):
            raise PolarizationMismatchError("not a standard momentum-polarized section")
        return _flipped(self.profile).scaled(_momentum_frame_factor(self.n) * self.halfform_phase)


def from_position_profile(profile: GaussianSection) -> CorrectedBoundarySection:
    """phi(x) e^{(i/2) x.y} (x) sqrt(d^n x) on the standard position polarization."""
    return CorrectedBoundarySection(BoundaryPolarization.position(profile.n), profile)


def from_momentum_profile(profile: GaussianSection) -> CorrectedBoundarySection:
    """chi(y) e^{-(i/2) x.y} (x) sqrt(d^n y) on the standard momentum polarization."""
    kappa = _momentum_frame_factor(profile.n)
    return CorrectedBoundarySection(BoundaryPolarization.momentum(profile.n), _flipped(profile), np.conj(kappa))


def boundary_inner_product(s1: CorrectedBoundarySection, s2: CorrectedBoundarySection) -> complex:
    """Closed-form inner product over V/L with the (2 pi)^{n/2} normalization."""
    if not s1.polarization.frame.same_subspace(s2.polarization.frame):
        raise PolarizationMismatchError("sections live over different polarizations")
    if not s1.polarization.same_reference(s2.polarization):
        raise PolarizationMismatchError("sections use different reductions to L-")
    return np.conj(s1.halfform_phase) * s2.halfform_phase * inner_product(s1.profile, s2.profile)


def boundary_norm(s: CorrectedBoundarySection) -> float:
    return norm(s.profile)


def boundary_difference_norm(s1: CorrectedBoundarySection, s2: CorrectedBoundarySection) -> float:
    """|| s1 - s2 ||.  Polynomial profiles take 48 Gauss-Hermite nodes: about
    1e-11 relative, where the default 24 give 1e-7."""
    if not s1.polarization.same_reference(s2.polarization):
        raise PolarizationMismatchError("sections use different reductions to L-")
    return difference_norm(s1.profile.scaled(s1.halfform_phase), s2.profile.scaled(s2.halfform_phase), 48)


# ---------------------------------------------------------------------------
# the pairing maps: corrected transport with one end at L-


def segal_bargmann(shat: CorrectedBoundarySection, omega: SiegelPoint) -> CorrectedSection:
    """Unitary map into the corrected space over Omega, via the reference lift.

    In standard position it is the corrected Xi kernel from L- to Omega0."""
    ref = shat.polarization.reference
    om0 = act_on_siegel(ref.g.inverse(), omega)
    profile = shat.profile.scaled(shat.halfform_phase)
    poly, m, b, c, log_h = _xi_kernel_apply(profile, profile.frame, om0)
    core = GaussianSection(om0, m, b, c - np.conj(log_h), poly)
    return metaplectic_act(ref, CorrectedSection(core))


def segal_bargmann_inverse(
    psihat: CorrectedSection, polarization: BoundaryPolarization | None = None
) -> CorrectedBoundarySection:
    """Inverse pairing map; defaults to the standard position polarization.

    In standard position it is the corrected Xi kernel from Omega0 to L-."""
    if polarization is None:
        polarization = BoundaryPolarization.position(psihat.frame.n)
    pulled = metaplectic_act(polarization.reference.inverse(), psihat)
    u = PositionBoundary(pulled.frame.n)
    poly, m, b, c, log_h = _xi_kernel_apply(pulled.section, pulled.frame, u)
    profile = GaussianSection(u, m, b, c - np.conj(log_h), poly).scaled(pulled.halfform_phase)
    return CorrectedBoundarySection(polarization, profile, 1.0)


def fourier(shat: CorrectedBoundarySection) -> CorrectedBoundarySection:
    """Fourier transform from the standard position to the standard momentum
    polarization:  phi -> i^{n/2} (2 pi)^{-n/2} integral phi(x) e^{i x.y'} dx."""
    n = shat.n
    if not np.allclose(shat.polarization.reference.g.matrix, np.eye(2 * n)):
        raise PolarizationMismatchError("direct transform expects the standard position form")
    prof = shat.profile.scaled(shat.halfform_phase)
    q, r, sc, poly = kernel_apply_poly(prof.m, 1j * np.eye(n), prof.b, prof.c, prof.coeffs, np.eye(n)[0])
    c_out = sc + 0.25j * np.pi * n  # principal i^{n/2}
    return from_momentum_profile(GaussianSection(prof.frame, 0.5 * (q + q.T), r, c_out, poly))


def fourier_general(
    shat: CorrectedBoundarySection,
    target: BoundaryPolarization,
    reference_omega: SiegelPoint | None = None,
) -> CorrectedBoundarySection:
    """Fourier transform between transverse polarizations, as the
    composition of the pairing map into a Kaehler frame and its inverse.

    The result is independent of the chosen frame; the composition
    identity checks exercise exactly that independence."""
    if not shat.polarization.frame.transverse_to(target.frame):
        raise NonTransverseError("polarizations must be transverse")
    if reference_omega is None:
        reference_omega = standard_point(shat.n)
    return segal_bargmann_inverse(segal_bargmann(shat, reference_omega), target)


# ---------------------------------------------------------------------------
# boundary limits of transport


@dataclass(frozen=True)
class ConvergenceRow:
    t: float
    sup_error: float
    absorbed_factor: float

    def to_json(self) -> dict:
        return {"t": self.t, "sup_error": self.sup_error, "absorbed_factor": self.absorbed_factor}


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple
    slope: float
    predicted_slope: float
    grid_half: float
    grid_points: int

    def monotone_decreasing(self, burn_in: int = 0) -> bool:
        errs = [r.sup_error for r in self.rows[burn_in:]]
        return all(b < a for a, b in zip(errs, errs[1:]))

    def slope_within(self, rel: float = 0.2) -> bool:
        return abs(self.slope - self.predicted_slope) <= rel * abs(self.predicted_slope)

    def to_json(self) -> dict:
        return {
            "rows": [r.to_json() for r in self.rows],
            "slope": self.slope,
            "predicted_slope": self.predicted_slope,
            "grid_spec": {"half_width": self.grid_half, "points_per_axis": self.grid_points},
        }


def _grid(n: int, half: float, pts: int) -> np.ndarray:
    if n != 1:
        raise ValueError("pointwise convergence grids are one-dimensional configurations")
    axis = np.linspace(-half, half, pts)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([xx.ravel(), yy.ravel()], axis=-1)


def _reduce_to_standard(psihat: CorrectedSection, spec: GeodesicSpec):
    if spec.lam.min() <= 1e-12:
        raise NoBoundaryLimitError("a vanishing rate leaves the geodesic in the interior")
    if not psihat.frame.close_to(spec.omega_start, tol=1e-8):
        raise ValueError("section must live at the start of the geodesic")
    if np.allclose(spec.g.matrix, np.eye(2 * spec.n), atol=1e-13):
        return psihat
    mp = MetaplecticElement.principal_lift(spec.g)
    return metaplectic_act(mp.inverse(), psihat)


def _fit_slope(ts, errs) -> float:
    ts = np.asarray(ts, dtype=float)
    logs = np.log(np.asarray(errs, dtype=float))
    a = np.vstack([ts, np.ones_like(ts)]).T
    coef, *_ = np.linalg.lstsq(a, logs, rcond=None)
    return float(coef[0])


def limit_transport_to_bargmann(
    psihat: CorrectedSection,
    spec: GeodesicSpec,
    t_list,
    grid_half: float = 3.0,
    grid_points: int = 41,
) -> ConvergenceReport:
    """Grid deviation of transport toward t -> -infinity from the inverse
    pairing map.  The factor det(sqrt(2) e^{Lambda t})^{1/2}, which vanishes
    in the limit, is absorbed into the moving half-form frame and reported.
    """
    psi0 = _reduce_to_standard(psihat, spec)
    n = psi0.frame.n
    lam = spec.lam
    grid = _grid(n, grid_half, grid_points)
    target = segal_bargmann_inverse(psi0).value_on_V(grid)
    rows = []
    for t in sorted((float(t) for t in t_list), reverse=True):
        om_t = diagonal_point(np.exp(2.0 * lam * t))
        moved = transport_corrected(psi0, om_t)
        absorbed = float(2.0 ** (n / 4.0) * np.exp(0.5 * t * lam.sum()))
        err = float(np.abs(moved.combined_value(grid) / absorbed - target).max())
        rows.append(ConvergenceRow(t, err, absorbed))
    slope = _fit_slope([r.t for r in rows], [max(r.sup_error, 1e-300) for r in rows])
    return ConvergenceReport(tuple(rows), slope, 2.0 * float(lam.min()), grid_half, grid_points)


def limit_transport_to_fourier(
    psihat: CorrectedSection,
    spec: GeodesicSpec,
    t_list,
    grid_half: float = 3.0,
    grid_points: int = 41,
) -> ConvergenceReport:
    """Grid deviation of transport toward t -> +infinity from the Fourier
    transform of the t -> -infinity limit; the absorbed frame factor is
    det(sqrt(2) e^{-Lambda t})^{1/2} and the momentum frame contributes the
    continued i^{n/2}."""
    psi0 = _reduce_to_standard(psihat, spec)
    n = psi0.frame.n
    lam = spec.lam
    grid = _grid(n, grid_half, grid_points)
    kappa_half = np.exp(0.25j * np.pi * n)  # continued limit of the moving frame
    chi = fourier(segal_bargmann_inverse(psi0)).momentum_profile()
    xy = np.einsum("...i,...i->...", grid[..., :n], grid[..., n:])
    target = chi.value(grid[..., n:]) * np.exp(-0.5j * xy)  # relative to sqrt(d^n y)
    rows = []
    for t in sorted(float(t) for t in t_list):
        om_t = diagonal_point(np.exp(2.0 * lam * t))
        moved = transport_corrected(psi0, om_t)
        absorbed = float(2.0 ** (n / 4.0) * np.exp(-0.5 * t * lam.sum()))
        err = float(np.abs(kappa_half * moved.combined_value(grid) / absorbed - target).max())
        rows.append(ConvergenceRow(t, err, absorbed))
    slope = _fit_slope([r.t for r in rows], [max(r.sup_error, 1e-300) for r in rows])
    return ConvergenceReport(tuple(rows), slope, -2.0 * float(lam.min()), grid_half, grid_points)


# ---------------------------------------------------------------------------
# composition identities


def default_test_profiles() -> list[GaussianSection]:
    """Five square-integrable Gaussian-polynomial profiles (n = 1); the first
    is the unit-norm 2^{1/4} exp(-u^2 / 2)."""
    u = PositionBoundary(1)
    return [
        GaussianSection(u, [[-1.0]], [0.0], 0.25 * np.log(2.0)),
        GaussianSection(u, [[-1.0]], [0.0], 0.0, [0.0, 1.0]),
        GaussianSection(u, [[-0.6]], [0.0], 0.0, [-1.0, 0.0, 1.0]),
        GaussianSection(u, [[-1.0]], [0.3], 0.1),
        GaussianSection(u, [[-0.8]], [0.2j], 0.0, [1.0, 0.5j]),
    ]


@dataclass(frozen=True)
class IdentityReport:
    transport_vs_pairing: float
    fourier_vs_pairing_pair: float
    fourier_triple: float

    @property
    def max_residual(self) -> float:
        return max(self.transport_vs_pairing, self.fourier_vs_pairing_pair, self.fourier_triple)

    def to_json(self) -> dict:
        return {
            "transport_vs_pairing": self.transport_vs_pairing,
            "fourier_vs_pairing_pair": self.fourier_vs_pairing_pair,
            "fourier_triple": self.fourier_triple,
            "max_residual": self.max_residual,
        }


def composition_identities_check(
    omega: SiegelPoint,
    omega_p: SiegelPoint,
    pol_l: BoundaryPolarization,
    pol_lp: BoundaryPolarization,
    pol_lpp: BoundaryPolarization,
    profiles: list[GaussianSection] | None = None,
) -> IdentityReport:
    """Residuals of the three operator identities on a test family:

      1. pairing into Omega' equals transport after pairing into Omega;
      2. the Fourier operator equals the inverse pairing composed with the
         pairing at the given Omega;
      3. Fourier transforms compose along mutually transverse polarizations,
         with each factor built over a different Kaehler reference point.
    """
    for a, b in ((pol_l, pol_lp), (pol_lp, pol_lpp), (pol_l, pol_lpp)):
        if not a.frame.transverse_to(b.frame):
            raise NonTransverseError("test polarizations must be mutually transverse")
    if profiles is None:
        profiles = default_test_profiles()
    sections = [CorrectedBoundarySection(pol_l, p) for p in profiles]

    r1 = 0.0
    for s in sections:
        lhs = segal_bargmann(s, omega_p)
        rhs = transport_corrected(segal_bargmann(s, omega), omega_p)
        r1 = max(r1, difference_norm(lhs, rhs) / boundary_norm(s))

    r2 = 0.0
    for s in sections:
        lhs = fourier_general(s, pol_lp)  # reference i*I
        rhs = segal_bargmann_inverse(segal_bargmann(s, omega), pol_lp)
        r2 = max(r2, boundary_difference_norm(lhs, rhs) / boundary_norm(s))

    r3 = 0.0
    for s in sections:
        lhs = fourier_general(s, pol_lpp, omega)
        rhs = fourier_general(
            fourier_general(s, pol_lp, omega_p), pol_lpp, None
        )
        r3 = max(r3, boundary_difference_norm(lhs, rhs) / boundary_norm(s))

    return IdentityReport(r1, r2, r3)
