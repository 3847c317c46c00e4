"""Quantum Hilbert spaces on real Lagrangian polarizations and the
transform operators connecting them to the Kaehler family.

A section polarized along L = g . L- is a ``CorrectedSection`` over the
frame ``BoundaryPolarization(reference)``, reference a metaplectic lift of g,
and pairs like any corrected section.  Its section is the profile in
standard position, p(u) exp((1/2) u^T m u + b^T u + c) with Re m < 0
(polynomial for n = 1), normed against (2 pi)^{-n/2} du.  The pairing map
to a Kaehler frame Omega evaluates in closed form and is unitary; its
boundary companions are

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
from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import NoBoundaryLimitError, NonTransverseError, PolarizationMismatchError
from .sections import CorrectedSection, GaussianSection, difference_norm, norm
from .siegel import BoundaryPolarization, GeodesicSpec
from .sympl import MetaplecticElement, act_on_siegel
from .transport import _xi_kernel_apply, metaplectic_act, transport_corrected

# Unit constant relating the pushed frame sqrt(d^n x o g0^{-1}) of the
# standard exchange element g0 = (0, I; -I, 0) (principal lift) to the
# momentum frame sqrt(d^n y).  Pinned so that reconstructing the Fourier
# operator from the Bargmann pair reproduces the direct formula with its
# principal i^{n/2}; validated by the composition tests.
def _momentum_frame_factor(n: int) -> complex:
    return 1j**n


def _flipped(profile: GaussianSection, frame: BoundaryPolarization) -> GaussianSection:
    """The composition of a profile with u -> -u, over ``frame``."""
    signs = (-1.0) ** np.arange(len(profile.coeffs))
    return GaussianSection(frame, profile.m, -profile.b, profile.c, profile.coeffs * signs)


def value_on_V(s: CorrectedSection, v) -> np.ndarray:
    """A polarized section as a function on V: phi(x0) exp((i/2) x0^T y0)
    times its half-form coefficient, with v = g (x0, y0) for the reference g."""
    v = np.asarray(v, dtype=float)
    n = s.frame.n
    v0 = v @ s.frame.reference.g.inverse().matrix.T
    x0, y0 = v0[..., :n], v0[..., n:]
    phase = np.exp(0.5j * np.einsum("...i,...i->...", x0, y0))
    return s.section.value(x0) * phase * s.halfform_phase


def momentum_profile(s: CorrectedSection) -> GaussianSection:
    """The chi(y) data of a section over the standard momentum polarization,
    whose value is chi(y) e^{-i x.y/2}; chi is a profile over the position
    polarization, a function of y."""
    n = s.frame.n
    if not s.frame.close_to(BoundaryPolarization.momentum(n)):
        raise PolarizationMismatchError("not a standard momentum-polarized section")
    return _flipped(s.section, BoundaryPolarization.position(n)).scaled(_momentum_frame_factor(n) * s.halfform_phase)


def from_momentum_profile(profile: GaussianSection) -> CorrectedSection:
    """chi(y) e^{-(i/2) x.y} (x) sqrt(d^n y) on the standard momentum polarization."""
    kappa = _momentum_frame_factor(profile.n)
    return CorrectedSection(_flipped(profile, BoundaryPolarization.momentum(profile.n)), np.conj(kappa))


# ---------------------------------------------------------------------------
# the pairing maps: corrected transport with one end at L-


def segal_bargmann(shat: CorrectedSection, omega: SiegelPoint) -> CorrectedSection:
    """Unitary map of a polarized section into the corrected space over
    Omega, via the reference lift.

    In standard position it is the corrected Xi kernel from L- to Omega0."""
    ref = shat.frame.reference
    om0 = act_on_siegel(ref.g.inverse(), omega)
    profile = shat.section.scaled(shat.halfform_phase)
    poly, m, b, c, log_h = _xi_kernel_apply(profile, profile.frame, om0)
    core = GaussianSection(om0, m, b, c - np.conj(log_h), poly)
    return metaplectic_act(ref, CorrectedSection(core))


def segal_bargmann_inverse(
    psihat: CorrectedSection, polarization: BoundaryPolarization | None = None
) -> CorrectedSection:
    """Inverse pairing map; defaults to the standard position polarization.

    In standard position it is the corrected Xi kernel from Omega0 to L-."""
    if polarization is None:
        polarization = BoundaryPolarization.position(psihat.frame.n)
    pulled = metaplectic_act(polarization.reference.inverse(), psihat)
    poly, m, b, c, log_h = _xi_kernel_apply(pulled.section, pulled.frame, polarization)
    profile = GaussianSection(polarization, m, b, c - np.conj(log_h), poly)
    return CorrectedSection(profile.scaled(pulled.halfform_phase))


def fourier(shat: CorrectedSection) -> CorrectedSection:
    """Fourier transform from the standard position to the standard momentum
    polarization:  phi -> i^{n/2} (2 pi)^{-n/2} integral phi(x) e^{i x.y'} dx."""
    n = shat.frame.n
    if not shat.frame.close_to(BoundaryPolarization.position(n)):
        raise PolarizationMismatchError("direct transform expects the standard position form")
    prof = shat.section.scaled(shat.halfform_phase)
    q, r, sc, poly = kernel_apply_poly(prof.m, 1j * np.eye(n), prof.b, prof.c, prof.coeffs, np.eye(n)[0])
    c_out = sc + 0.25j * np.pi * n  # principal i^{n/2}
    return from_momentum_profile(GaussianSection(prof.frame, 0.5 * (q + q.T), r, c_out, poly))


def fourier_general(
    shat: CorrectedSection,
    target: BoundaryPolarization,
    reference_omega: SiegelPoint | None = None,
) -> CorrectedSection:
    """Fourier transform between transverse polarizations, as the
    composition of the pairing map into a Kaehler frame and its inverse.

    The result is independent of the chosen frame; the composition
    identity checks exercise exactly that independence."""
    if not shat.frame.frame.transverse_to(target.frame):
        raise NonTransverseError("polarizations must be transverse")
    if reference_omega is None:
        reference_omega = standard_point(shat.frame.n)
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


def _limit_report(psihat, spec, t_list, grid_half, grid_points, sign: float) -> ConvergenceReport:
    """Grid deviation of transport toward t -> sign * infinity from its limit.

    The factor det(sqrt(2) e^{-sign Lambda t})^{1/2}, which vanishes in the
    limit, is absorbed into the moving half-form frame and reported.  Toward
    +infinity the target is relative to sqrt(d^n y) and the moving frame
    contributes the continued i^{n/2}."""
    psi0 = _reduce_to_standard(psihat, spec)
    n = psi0.frame.n
    lam = spec.lam
    grid = _grid(n, grid_half, grid_points)
    limit = segal_bargmann_inverse(psi0)
    if sign < 0:
        unit, target = 1.0, value_on_V(limit, grid)
    else:
        unit, target = np.exp(0.25j * np.pi * n), 1j**n * value_on_V(fourier(limit), grid)
    rows = []
    for t in sorted((float(t) for t in t_list), reverse=sign < 0):
        moved = transport_corrected(psi0, diagonal_point(np.exp(2.0 * lam * t)))
        absorbed = float(2.0 ** (n / 4.0) * np.exp(-0.5 * sign * t * lam.sum()))
        err = float(np.abs(unit * moved.combined_value(grid) / absorbed - target).max())
        rows.append(ConvergenceRow(t, err, absorbed))
    slope = _fit_slope([r.t for r in rows], [max(r.sup_error, 1e-300) for r in rows])
    return ConvergenceReport(tuple(rows), slope, -2.0 * sign * float(lam.min()), grid_half, grid_points)


def limit_transport_to_bargmann(
    psihat: CorrectedSection, spec: GeodesicSpec, t_list, grid_half: float = 3.0, grid_points: int = 41
) -> ConvergenceReport:
    """Grid deviation of transport toward t -> -infinity from the inverse
    pairing map, with the absorbed factor det(sqrt(2) e^{Lambda t})^{1/2}."""
    return _limit_report(psihat, spec, t_list, grid_half, grid_points, -1.0)


def limit_transport_to_fourier(
    psihat: CorrectedSection, spec: GeodesicSpec, t_list, grid_half: float = 3.0, grid_points: int = 41
) -> ConvergenceReport:
    """Grid deviation of transport toward t -> +infinity from the Fourier
    transform of the t -> -infinity limit, with the absorbed factor
    det(sqrt(2) e^{-Lambda t})^{1/2}."""
    return _limit_report(psihat, spec, t_list, grid_half, grid_points, 1.0)


# ---------------------------------------------------------------------------
# composition identities


def default_test_profiles() -> list[GaussianSection]:
    """Five square-integrable Gaussian-polynomial profiles (n = 1); the first
    is the unit-norm 2^{1/4} exp(-u^2 / 2)."""
    u = BoundaryPolarization.position(1)
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
    # each profile's data, in standard position over pol_l
    sections = [CorrectedSection(GaussianSection(pol_l, p.m, p.b, p.c, p.coeffs)) for p in profiles]

    r1 = 0.0
    for s in sections:
        lhs = segal_bargmann(s, omega_p)
        rhs = transport_corrected(segal_bargmann(s, omega), omega_p)
        r1 = max(r1, difference_norm(lhs, rhs) / norm(s.section))

    r2 = 0.0
    for s in sections:
        lhs = fourier_general(s, pol_lp)  # reference i*I
        rhs = segal_bargmann_inverse(segal_bargmann(s, omega), pol_lp)
        # 48 nodes keep polynomial profiles near 1e-11, where the default 24 give 1e-7
        r2 = max(r2, difference_norm(lhs, rhs, 48) / norm(s.section))

    r3 = 0.0
    for s in sections:
        lhs = fourier_general(s, pol_lpp, omega)
        rhs = fourier_general(fourier_general(s, pol_lp, omega_p), pol_lpp)
        r3 = max(r3, difference_norm(lhs, rhs, 48) / norm(s.section))

    return IdentityReport(r1, r2, r3)
