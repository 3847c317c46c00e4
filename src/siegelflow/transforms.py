"""Quantum Hilbert spaces on real Lagrangian polarizations and the
transform operators connecting them to the Kaehler family.

A section polarized along L = g . L- is a ``CorrectedSection`` over the
frame ``BoundaryPolarization(reference)``, reference a metaplectic lift of g,
and pairs like any corrected section.  Its section is the profile in
standard position, p(u) exp((1/2) u^T m u + b^T u + c) with Re m < 0
(polynomial for n = 1), normed against (2 pi)^{-n/2} du.  The pairing map
between a polarization and a Kaehler frame, either way, is the corrected Xi
kernel with one end at L- moved by the reference lift: unitary, in closed form,
its result carrying the map's unit branch phase.  Its companions are

  * the position/momentum transform pair generalizing the classical
    Segal-Bargmann transform and its inverse, its two directions,
  * the Fourier transform between transverse real polarizations, with the
    i^{n/2} normalization of the momentum-frame half-form: one ``_Kernel``
    from the standard position, like the pairing map's ``transport._xi_kernel``.

Transport along a geodesic with strictly positive rates converges to these
operators at the two boundary ends, and ``transport_limits`` reports both.
Both sides of each limit are Gaussians on V, so convergence reports compare
their log-quadratic data (S, l, k), with no grid; the distance decays at
least like the heat-kernel width exp(-2 lambda_min |t|).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import NoBoundaryLimitError, NonTransverseError, PolarizationMismatchError
from .sections import (CorrectedSection, GaussianSection, _as_stack, _Kernel, _require_frame, _sections, _stack,
                       difference_norm, norm)
from .siegel import RATE_TOL, BoundaryPolarization, GeodesicSpec
from .sympl import MetaplecticElement, act_on_siegel, transform_z_coords
from .transport import _xi_kernel, metaplectic_act, transport_corrected

# Unit constant relating the pushed frame sqrt(d^n x o g0^{-1}) of the exchange
# element g0 = (0, I; -I, 0), with the branch e^{i pi n / 4} of
# ``BoundaryPolarization.momentum``, to the momentum frame sqrt(d^n y).  Pinned
# so that the Fourier operator rebuilt from the Bargmann pair is the direct
# formula with its continued i^{n/2}; the tests check this for n = 1, 2 and 3.
def _momentum_frame_factor(n: int) -> complex:
    return 1j**n


def _flipped(frame: BoundaryPolarization, m, b, c: complex, coeffs) -> GaussianSection:
    """The profile p(u) exp((1/2) u^T m u + b^T u + c) composed with u -> -u, over ``frame``."""
    return GaussianSection(frame, m, -b, c, coeffs * (-1.0) ** np.arange(len(coeffs)))


def momentum_profile(s: CorrectedSection) -> GaussianSection:
    """The chi(y) data of a section over the standard momentum polarization,
    whose value is chi(y) e^{-i x.y/2}; chi is a profile over the position
    polarization, a function of y."""
    n = s.frame.n
    if not s.frame.close_to(BoundaryPolarization.momentum(n)):
        raise PolarizationMismatchError("not a standard momentum-polarized section")
    p, log_unit = s.section, np.log(_momentum_frame_factor(n) * s.halfform_phase)
    return _flipped(BoundaryPolarization.position(n), p.m, p.b, p.c + log_unit, p.coeffs)


def from_momentum_profile(profile: GaussianSection) -> CorrectedSection:
    """chi(y) e^{-(i/2) x.y} (x) sqrt(d^n y) on the standard momentum polarization."""
    flipped = _flipped(BoundaryPolarization.momentum(profile.n), profile.m, profile.b, profile.c, profile.coeffs)
    return CorrectedSection(flipped, np.conj(_momentum_frame_factor(profile.n)))


# ---------------------------------------------------------------------------
# the pairing map: corrected transport with one end at L-, either way


def _pair(shats, target) -> list[CorrectedSection]:
    """The corrected Xi kernel from the frame of ``shats``, sections over one frame object, to ``target``, one of
    the two a polarization with reference R: from it, the kernel from L- to Omega0 = R^{-1} . Omega and then R, onto
    R . Omega0; onto it, R^{-1} and then the kernel to L-.  The map is built once for the stack; each input's
    half-form phase folds into its prefactor, and each result carries the map's unit branch phase."""
    source = shats[0].frame
    if isinstance(source, BoundaryPolarization) == isinstance(target, BoundaryPolarization) or source.n != target.n:
        raise ValueError(f"a pairing map needs a polarization and a point of one space, not {source!r}, {target!r}")
    if isinstance(source, BoundaryPolarization):
        ref = source.reference
        om0 = act_on_siegel(ref.g.inverse(), target)
        target, phase = act_on_siegel(ref.g, om0), ref.phase_at(om0)
        # the push to Omega0 and the change to the target's coordinates, in one kernel
        kernel, log_h = _xi_kernel(source, om0, out=(target, transform_z_coords(ref.g, om0, target)))
    else:
        back = target.reference.inverse()
        pulled, phase = act_on_siegel(back.g, source), back.phase_at(source)
        # the change to the pulled point's coordinates and the push, in one kernel
        kernel, log_h = _xi_kernel(pulled, target, t_in=transform_z_coords(back.g, source, pulled))
    log_prefs = [np.conj(log_h) - np.log(s.halfform_phase) for s in shats]
    return [CorrectedSection(x, phase / abs(phase)) for x in kernel.apply_all([s.section for s in shats], log_prefs)]


def segal_bargmann(shat, omega: SiegelPoint):
    """Unitary map of a polarized section into the corrected space over
    Omega, via the reference lift; a sequence of sections over one frame
    object goes through one map, as a list.

    In standard position it is the corrected Xi kernel from L- to Omega0."""
    shats, one = _as_stack(shat)
    _require_frame("segal_bargmann", BoundaryPolarization, shats[0])
    out = _pair(shats, omega)
    return out[0] if one else out


def segal_bargmann_inverse(psihat, polarization: BoundaryPolarization | None = None):
    """Inverse pairing map; defaults to the standard position polarization.
    A sequence of sections over one frame object goes through one map, as a list.

    In standard position it is the corrected Xi kernel from Omega0 to L-."""
    psihats, one = _as_stack(psihat)
    _require_frame("segal_bargmann_inverse", SiegelPoint, psihats[0])
    target = BoundaryPolarization.position(psihats[0].frame.n) if polarization is None else polarization
    out = _pair(psihats, target)
    return out[0] if one else out


def fourier(shat: CorrectedSection) -> CorrectedSection:
    """Fourier transform from the standard position to the standard momentum
    polarization:  phi -> i^{n/2} (2 pi)^{-n/2} integral phi(x) e^{i x.y'} dx."""
    n = shat.frame.n
    if not shat.frame.close_to(BoundaryPolarization.position(n)):
        raise PolarizationMismatchError("direct transform expects the standard position form")
    # the -i coupling integrates phi(x) e^{-i x.u}, the momentum profile at y = -u
    kernel = _Kernel(np.eye(n), 0.0, 0.0, -1j * np.eye(n), BoundaryPolarization.momentum(n))
    log_pref = -np.log(complex(shat.halfform_phase)) - 0.25j * np.pi * n  # continued i^{n/2}
    return CorrectedSection(kernel.apply(shat.section, log_pref), np.conj(_momentum_frame_factor(n)))


def fourier_general(shat, target: BoundaryPolarization):
    """Fourier transform between transverse polarizations, as the
    composition of the pairing map into the Kaehler frame i I and its inverse;
    a sequence of sections over one frame object goes through both maps, as a list.

    The result is independent of the chosen frame; the composition
    identity checks exercise exactly that independence."""
    shats, one = _as_stack(shat)
    _require_frame("fourier_general", BoundaryPolarization, shats[0])
    if not shats[0].frame.transverse_to(target):
        raise NonTransverseError("polarizations must be transverse")
    out = _pair(_pair(shats, standard_point(shats[0].frame.n)), target)
    return out[0] if one else out


# ---------------------------------------------------------------------------
# boundary limits of transport


@dataclass(frozen=True)
class ConvergenceRow:
    t: float
    distance: float
    absorbed_factor: float


@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple  # shallowest |t| first
    predicted_rate: float  # 2 lambda_min, the decay rate of the heat-kernel width


def _log_quadratic(s: CorrectedSection):
    """(S, l, k) with the Gaussian ``s`` on V, its half-form coefficient
    included, equal to exp((1/2) v^T S v + l^T v + k).  Over a polarization
    with reference R it is the value on V, phi(x0) exp((i/2) x0^T y0) at
    v = R (x0, y0), in closed form: S = R^{-T} [[m, (i/2) I], [(i/2) I, 0]] R^{-1} and l = R^{-T} (b, 0)."""
    s_v, l_v, k = s.section.real_quadratic()
    if isinstance(s.frame, BoundaryPolarization):
        n, r_inv = s.frame.n, s.frame.reference.g.inverse().matrix
        s_v = r_inv.T @ np.block([[s_v, 0.5j * np.eye(n)], [0.5j * np.eye(n), np.zeros((n, n))]]) @ r_inv
        l_v = r_inv.T @ np.concatenate([l_v, np.zeros(n)])
    return s_v, l_v, k + np.log(s.halfform_phase)


def _absorbed_factor(lam: np.ndarray, t: float, sign: float) -> float:
    """det(sqrt(2) e^{-sign Lambda t})^{1/2}, which vanishes toward t -> sign * infinity."""
    return float(2.0 ** (lam.size / 4.0) * np.exp(-0.5 * sign * t * lam.sum()))


def _limit_report(psi0: CorrectedSection, limit: CorrectedSection, lam, depths, sign: float) -> ConvergenceReport:
    """Distance of the transport of the Gaussian psi0 over i I along i exp(2 Lambda t),
    at t = sign * d for each depth d, from its limit toward t -> sign * infinity.

    Both are Gaussians on V, so the distance is that of their ``_log_quadratic``
    data, max(|dS|, |dl|, |expm1(dk)|), blind to 2 pi i in k.  The absorbed
    factor is divided out of the moving half-form frame and reported.  Toward
    +infinity the target is relative to sqrt(d^n y), times i^n, and the moving
    frame contributes the continued i^{n/2}: their quotient is i^{n/2}."""
    s_lim, l_lim, k_lim = _log_quadratic(limit)
    if sign > 0:
        k_lim = k_lim + 0.25j * np.pi * psi0.frame.n
    rows = []
    for t in (sign * float(d) for d in sorted(depths)):
        absorbed = _absorbed_factor(lam, t, sign)
        s_t, l_t, k_t = _log_quadratic(transport_corrected(psi0, diagonal_point(np.exp(2.0 * lam * t))))
        dk = k_t - np.log(absorbed) - k_lim
        dist = max(np.abs(s_t - s_lim).max(), np.abs(l_t - l_lim).max(), abs(np.expm1(dk)))
        rows.append(ConvergenceRow(t, float(dist), absorbed))
    return ConvergenceReport(tuple(rows), 2.0 * float(lam.min()))


def transport_limits(psihat: CorrectedSection, spec: GeodesicSpec, depths) -> tuple[ConvergenceReport, ...]:
    """(to_bargmann, to_fourier): distances of the transport of the Gaussian
    ``psihat``, at the start of ``spec``, at t = -d and t = +d for each depth
    d > 0, from its two boundary limits.  The section is first moved to i I by
    the inverse of the principal lift of g.  Toward t -> -infinity the limit is the
    inverse pairing map, with the absorbed factor det(sqrt(2) e^{Lambda t})^{1/2};
    toward +infinity it is the ``fourier`` transform of that one map's result,
    with det(sqrt(2) e^{-Lambda t})^{1/2}."""
    if psihat.section.degree:
        raise ValueError(f"boundary limits compare Gaussians, not sections of degree {psihat.section.degree}")
    if spec.lam.min() <= RATE_TOL:
        raise NoBoundaryLimitError("a vanishing rate leaves the geodesic in the interior")
    if not psihat.frame.close_to(spec.omega_start, tol=1e-8):
        raise ValueError("section must live at the start of the geodesic")
    psi0 = psihat
    if not np.allclose(spec.g.matrix, np.eye(2 * spec.n), atol=1e-13):
        psi0 = metaplectic_act(MetaplecticElement.principal_lift(spec.g).inverse(), psihat)
    limit = segal_bargmann_inverse(psi0)
    to_bargmann = _limit_report(psi0, limit, spec.lam, depths, -1.0)
    return to_bargmann, _limit_report(psi0, fourier(limit), spec.lam, depths, 1.0)


# ---------------------------------------------------------------------------
# composition identities


@lru_cache(maxsize=1)
def default_test_profiles() -> tuple[GaussianSection, ...]:
    """Five square-integrable Gaussian-polynomial profiles (n = 1), built once: the sections are
    frozen and their arrays read-only.  The first is the unit-norm 2^{1/4} exp(-u^2 / 2)."""
    u = BoundaryPolarization.position(1)
    return (
        GaussianSection(u, [[-1.0]], [0.0], 0.25 * np.log(2.0)),
        GaussianSection(u, [[-1.0]], [0.0], 0.0, [0.0, 1.0]),
        GaussianSection(u, [[-0.6]], [0.0], 0.0, [-1.0, 0.0, 1.0]),
        GaussianSection(u, [[-1.0]], [0.3], 0.1),
        GaussianSection(u, [[-0.8]], [0.2j], 0.0, [1.0, 0.5j]),
    )


@lru_cache(maxsize=1)
def _profile_scales() -> tuple[float, ...]:
    """The ``norm`` of each default test profile, over any polarization:
    each has E = I and G = 0, so the norm depends on the data alone."""
    return tuple(map(norm, default_test_profiles()))


@dataclass(frozen=True)
class IdentityReport:
    transport_vs_pairing: float
    fourier_vs_pairing_pair: float
    fourier_triple: float


def composition_identities_check(
    omega: SiegelPoint,
    omega_p: SiegelPoint,
    pol_l: BoundaryPolarization,
    pol_lp: BoundaryPolarization,
    pol_lpp: BoundaryPolarization,
) -> IdentityReport:
    """Residuals of the three operator identities on ``default_test_profiles``:

      1. pairing into Omega' equals transport after pairing into Omega;
      2. the Fourier operator equals the inverse pairing composed with the
         pairing at the given Omega;
      3. Fourier transforms compose along mutually transverse polarizations,
         with each factor built over a different Kaehler reference point.
    """
    profiles = default_test_profiles()
    if any(f.n != profiles[0].n for f in (omega, omega_p, pol_l, pol_lp, pol_lpp)):
        raise ValueError(f"the test profiles are n = {profiles[0].n}; the frames must be too")
    for a, b in ((pol_l, pol_lp), (pol_lp, pol_lpp), (pol_l, pol_lpp)):
        if not a.transverse_to(b):
            raise NonTransverseError("test polarizations must be mutually transverse")
    # each profile's data, in standard position over pol_l, checked once as a stack
    stack = _stack(profiles)[0]
    sections = [CorrectedSection(s) for s in _sections(pol_l, stack.m, stack.b, stack.c, stack.coeffs, profiles)]
    # the profiles go through each public map together: 9 pairing maps and 1 projection per check
    paired, moved = segal_bargmann(sections, omega), segal_bargmann(sections, omega_p)
    sides = (
        (moved, transport_corrected(paired, omega_p)),
        # the Fourier operator L -> L' through i I
        (fourier_general(sections, pol_lp), segal_bargmann_inverse(paired, pol_lp)),
        # L -> L' via Omega', then L' -> L''
        (segal_bargmann_inverse(paired, pol_lpp), fourier_general(segal_bargmann_inverse(moved, pol_lp), pol_lpp)),
    )
    scales = _profile_scales()
    return IdentityReport(*(max(d / w for d, w in zip(difference_norm(a, b), scales)) for a, b in sides))
