"""Parallel transport of polarized sections along geodesics.

Transport in the uncorrected bundle is a rescaled Bergman projection: the
unitary U from Omega to Omega' equals alpha(Omega, Omega') P, where P is the
orthogonal projection onto the holomorphic sections of Omega' and

    alpha = |det Xi'|^{1/2} / (det Omega2 det Omega2')^{1/4},
    Xi'   = (Omega' - conj(Omega)) / 2i.

Coherent states transport in closed form; the half-form correction
contributes the unit phase (det Xi')^{1/2} / |det Xi'|^{1/2}, after which
transport composes flatly.  A moving-frame Fock ODE provides an independent
numerical route for n = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._gaussint import generating_poly, half_logdet, integrate_out
from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import TruncationOverflowError
from .sections import (
    LOG2PI,
    CorrectedSection,
    GaussianSection,
    HalfFormFrame,
    PolyFockSection,
    Section,
    bergman_project,
    coord_matrix,
    fock_coefficients,
    from_fock_coefficients,
    gram_matrix,
    pair_halfforms,
)
from .siegel import complex_structure_of
from .sympl import (
    MetaplecticElement,
    act_on_siegel,
    transform_z_coords,
    xi_matrix,
)

TRUNCATION_LEAK_TOL = 1e-6


# ---------------------------------------------------------------------------
# closed-form transport


def _xi_blocks(omega: SiegelPoint, omega_p: SiegelPoint):
    """Kernel blocks built from Xi = (Omega - conj(Omega'))/2i.

    Returns (K11, K12, K22, log_pref) for the quadratic form on stacked
    (conj(alpha) | z') with prefactor exp(log_pref)."""
    n = omega.n
    xi = xi_matrix(omega, omega_p)
    r = omega.imag_sqrt()
    rp = omega_p.imag_sqrt()
    xi_inv = np.linalg.inv(xi)
    k11 = np.eye(n) - r @ xi_inv @ r
    k12 = r @ xi_inv @ rp
    k22 = np.eye(n) - rp @ xi_inv @ rp
    sign, logdet2 = np.linalg.slogdet(omega.omega2)
    sign_p, logdet2p = np.linalg.slogdet(omega_p.omega2)
    log_abs_det_xi = float(np.log(np.abs(np.linalg.det(xi))))
    log_pref = 0.25 * (logdet2 + logdet2p) - 0.5 * log_abs_det_xi
    return k11, k12, k22, log_pref


def transport_coherent(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> GaussianSection:
    """Parallel transport of the coherent state c_alpha along the geodesic."""
    n = omega.n
    alpha = np.asarray(alpha, dtype=complex).reshape(n)
    k11, k12, k22, log_pref = _xi_blocks(omega, omega_p)
    ac = np.conj(alpha)
    return GaussianSection(
        omega_p,
        k22,
        k12.T @ ac,
        0.5 * (ac @ k11 @ ac) + log_pref,
    )


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


def transport_halfform(omega: SiegelPoint, omega_p: SiegelPoint) -> HalfFormFrame:
    """Transport of sqrt(d^n z): unit phase det(Xi')^{1/2}/|det Xi'|^{1/2}.

    The square root is the one continued along the connecting geodesic from
    the start, where det Xi = det Omega2 is positive.  Xi(gamma(t), Omega)
    has real part (Im gamma(t) + Omega2)/2, positive definite along the
    whole path, so that continuation is half_logdet in closed form.
    """
    phase = np.exp(half_logdet(xi_matrix(omega_p, omega)))
    return HalfFormFrame(omega_p, phase / abs(phase))


def bogoliubov_scale(omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """alpha(J, J') = |det Xi'|^{1/2} / (det Omega2 det Omega2')^{1/4}."""
    xi = xi_matrix(omega_p, omega)
    _, logdet2 = np.linalg.slogdet(omega.omega2)
    _, logdet2p = np.linalg.slogdet(omega_p.omega2)
    return float(
        np.exp(0.5 * np.log(np.abs(np.linalg.det(xi))) - 0.25 * (logdet2 + logdet2p))
    )


def bogoliubov_scale_via_structures(omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """Cross-check route: (det (J + J')/2)^{1/4} from the complex structures."""
    j = complex_structure_of(omega)
    jp = complex_structure_of(omega_p)
    det = np.linalg.det(0.5 * (j + jp))
    return float(det ** 0.25)


def transport_uncorrected(psi: Section, omega_p: SiegelPoint) -> Section:
    """U psi = alpha(Omega, Omega') P psi for any Gaussian(-polynomial) section."""
    scale = bogoliubov_scale(psi.frame, omega_p)
    proj = bergman_project(psi, omega_p)
    return _scale_section(proj, scale)


def _scale_section(psi: Section, factor: complex) -> Section:
    shift = np.log(complex(factor))
    if isinstance(psi, PolyFockSection):
        return PolyFockSection(psi.frame, psi.coeffs, psi.m, psi.b, psi.c + shift)
    return GaussianSection(psi.frame, psi.m, psi.b, psi.c + shift)


@dataclass(frozen=True)
class TransportResult:
    """Transported section with the half-form bookkeeping made explicit."""

    section: Section
    halfform: HalfFormFrame
    scale_used: float
    phase_used: complex

    def corrected(self) -> CorrectedSection:
        return CorrectedSection(self.section, self.halfform)

    def to_json(self) -> dict:
        from .sections import _complex_to_json, section_to_json

        return {
            "section": section_to_json(self.section),
            "halfform_phase": _complex_to_json(self.halfform.phase),
            "scale": self.scale_used,
        }


def transport_corrected(psihat: CorrectedSection, omega_p: SiegelPoint) -> TransportResult:
    """Flat transport: psi (x) sqrt(d^n z) -> <sqrt(d^n z'), sqrt(d^n z)> P psi (x) sqrt(d^n z').

    The half-form pairing supplies both the Bogoliubov scale (its modulus)
    and the correction phase (its argument)."""
    omega = psihat.frame
    pairing = pair_halfforms(HalfFormFrame(omega_p), HalfFormFrame(omega))
    pairing *= psihat.halfform.phase
    scale = abs(pairing)
    phase = pairing / scale
    section = _scale_section(bergman_project(psihat.section, omega_p), scale)
    return TransportResult(section, HalfFormFrame(omega_p, phase), bogoliubov_scale(omega, omega_p), phase)


def transport_corrected_coherent(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> TransportResult:
    """Closed-form corrected transport of a coherent state: (3-term route)
    coherent closed form tensored with the continued half-form phase."""
    section = transport_coherent(alpha, omega, omega_p)
    half = transport_halfform(omega, omega_p)
    return TransportResult(section, half, bogoliubov_scale(omega, omega_p), half.phase)


def transport_equals_scaled_projection_check(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """Relative residual || U c_alpha - alpha(J,J') P c_alpha || / ||c_alpha||.

    Both sides are closed-form Gaussians; the difference norm is evaluated
    pointwise to stay below the Gram-cancellation floor."""
    from .sections import coherent_state, difference_norm, norm

    c = coherent_state(alpha, omega)
    u = transport_coherent(alpha, omega, omega_p)
    ap = transport_uncorrected(c, omega_p)
    return difference_norm(u, ap) / norm(c)


def transport_kernel_apply(
    phi: GaussianSection, omega: SiegelPoint, omega_p: SiegelPoint, kernel: str = "bergman"
) -> GaussianSection:
    """Transport via one of the two integral kernels.

    'bergman': rescaled reproducing-kernel projection (acts on the full
    section).  'holomorphic': the kernel acting on the holomorphic part
    only, with the Xi blocks inside the integral.  Both agree with the
    closed-form coherent transport.
    """
    if kernel == "bergman":
        return transport_uncorrected(phi, omega_p)
    if kernel != "holomorphic":
        raise ValueError(f"unknown kernel {kernel!r}")
    if phi.frame.n != omega.n or not phi.frame.close_to(omega, tol=1e-12):
        raise ValueError("section must live at the source point")
    n = omega.n
    e = coord_matrix(omega)
    ep_rows = np.conj(e)
    k11, k12, k22, log_pref = _xi_blocks(omega, omega_p)
    # v-quadratic: (1/2) z^T M z + conj-side (1/2) zbar K11 zbar - |z|^2 (full weight)
    s = e.T @ phi.m @ e + ep_rows.T @ k11 @ ep_rows - 2.0 * gram_matrix(omega)
    s = 0.5 * (s + s.T)
    lmat = ep_rows.T @ k12
    q, r, sc = integrate_out(s, lmat, e.T @ phi.b, phi.c)
    m_out = q + k22
    return GaussianSection(omega_p, 0.5 * (m_out + m_out.T), r, sc - n * LOG2PI + log_pref)


# ---------------------------------------------------------------------------
# metaplectic action on sections


def metaplectic_act(mp: MetaplecticElement, obj):
    """Lifted symplectic action on (corrected) sections.

    Gaussian data transforms through the unitary coordinate change; the
    half-form coefficient picks up the tracked branch phase at the source
    point."""
    if isinstance(obj, CorrectedSection):
        section = metaplectic_act(mp, obj.section)
        phase = mp.phase_at(obj.frame) * obj.halfform.phase
        return CorrectedSection(section, HalfFormFrame(section.frame, phase / abs(phase)))
    omega = obj.frame
    target = act_on_siegel(mp.g, omega)
    t = transform_z_coords(mp.g, omega)
    if isinstance(obj, PolyFockSection):
        tt = complex(t[0, 0])
        coeffs = obj.coeffs * tt ** np.arange(len(obj.coeffs))
        return PolyFockSection(target, coeffs, tt * obj.m * tt, tt * obj.b, obj.c)
    m = t.T @ obj.m @ t
    return GaussianSection(target, 0.5 * (m + m.T), t.T @ obj.b, obj.c)


# ---------------------------------------------------------------------------
# Fock-basis connection and the transport ODE (n = 1)


from functools import lru_cache


@lru_cache(maxsize=16)
def _fock_connection_patterns(n_trunc: int):
    """tau-independent matrix patterns of the Fock-frame connection."""
    k = np.arange(n_trunc)
    p_tau = np.diag(k.astype(complex))
    p_taubar = np.diag(k.astype(complex))
    for kk in range(2, n_trunc):
        p_tau[kk, kk - 2] = -np.sqrt(kk * (kk - 1))
        p_taubar[kk - 2, kk] = -np.sqrt(kk * (kk - 1))
    p_tau.flags.writeable = False
    p_taubar.flags.writeable = False
    return p_tau, p_taubar


def fock_connection_matrix(tau: complex, n_trunc: int):
    """Connection 1-form in the Fock frame over the upper half-plane.

    Returns (A_tau, A_taubar) with A = A_tau dtau + A_taubar dconj(tau):

        A_tau[k, l]    = (i / 4 tau2) (k delta_{kl} - sqrt(k(k-1)) delta_{k, l+2})
        A_taubar[k, l] = (i / 4 tau2) (l delta_{kl} - sqrt(l(l-1)) delta_{k+2, l})
    """
    tau = complex(tau)
    tau2 = tau.imag
    if tau2 <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    p_tau, p_taubar = _fock_connection_patterns(n_trunc)
    pref = 0.25j / tau2
    return pref * p_tau, pref * p_taubar


@dataclass(frozen=True)
class ConnectionForm:
    """The transport 1-form at a base point.

    In matrix coordinates the form sends a tangent direction dOmega to the
    operator -(i/2) grad_z^T Omega2^{-1/2} dconj(Omega) Omega2^{-1/2} grad_z;
    for n = 1 its Fock-frame matrix is exposed directly.
    """

    base: SiegelPoint

    def quadratic_coefficient(self, d_omega: np.ndarray) -> np.ndarray:
        """B(dOmega) with the operator -(i/2) grad_z^T B grad_z."""
        rinv = self.base.imag_inv_sqrt()
        d = np.atleast_2d(np.asarray(d_omega, dtype=complex))
        return rinv @ np.conj(d) @ rinv

    def fock_matrix(self, d_tau: complex, n_trunc: int) -> np.ndarray:
        """A(dtau) on the truncated Fock frame, n = 1 (real tangent direction)."""
        if self.base.n != 1:
            raise ValueError("Fock-frame matrix is available for n = 1")
        tau = complex(self.base.omega[0, 0])
        a_tau, a_taubar = fock_connection_matrix(tau, n_trunc)
        return a_tau * d_tau + a_taubar * np.conj(d_tau)


def transport_ode_coeffs(
    c0: np.ndarray,
    tau_of_t,
    t_end: float,
    steps: int,
    progress=None,
) -> np.ndarray:
    """Integrate dc/dt = -A(gamma'(t)) c with classical RK4.

    ``tau_of_t`` maps t to the path point in the upper half-plane; the
    connection matrix is re-evaluated (with the path velocity by central
    differences of the supplied map) at every stage.  ``progress``, when
    given, is called as progress(step, steps) roughly a hundred times over
    the run; it must not mutate the state.
    """
    c = np.asarray(c0, dtype=complex).copy()
    n_basis = c.size
    h = t_end / steps
    eps = 1e-6 * max(abs(t_end), 1.0)
    p_tau, p_taubar = _fock_connection_patterns(n_basis)
    report_every = max(1, steps // 100)

    def rhs(t, c):
        tau = complex(tau_of_t(t))
        if tau.imag <= 0:
            raise ValueError("path left the upper half-plane")
        dtau = (complex(tau_of_t(t + eps)) - complex(tau_of_t(t - eps))) / (2 * eps)
        pref = 0.25j / tau.imag
        return -pref * ((p_tau @ c) * dtau + (p_taubar @ c) * np.conj(dtau))

    t = 0.0
    for step in range(steps):
        k1 = rhs(t, c)
        k2 = rhs(t + 0.5 * h, c + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, c + 0.5 * h * k2)
        k4 = rhs(t + h, c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        if progress is not None and (step + 1) % report_every == 0:
            progress(step + 1, steps)
    return c


def transport_ode(
    psi0: PolyFockSection,
    lam: float,
    t_end: float,
    steps: int,
    n_basis: int | None = None,
    progress=None,
) -> PolyFockSection:
    """Numerical transport of a truncated Fock state along i exp(2 lambda t).

    The state is expanded in the moving Fock frame and integrated with RK4.
    Raises when more than ``TRUNCATION_LEAK_TOL`` of amplitude reaches the
    top 10% of the basis, which signals that ``n_basis`` is too small for
    the requested time.
    """
    if psi0.n != 1:
        raise ValueError("the transport ODE is one-dimensional")
    if not psi0.frame.close_to(standard_point(1), tol=1e-12):
        raise ValueError("initial state must be expressed at the base point i")
    lam = float(np.atleast_1d(lam)[0])
    if n_basis is None:
        n_basis = max(len(psi0.coeffs), 32)
    c = fock_coefficients(psi0, n_basis)

    if lam == 0.0 or t_end == 0.0:
        return from_fock_coefficients(c, psi0.frame)

    tau_of_t = lambda t: 1j * np.exp(2.0 * lam * t)
    c = transport_ode_coeffs(c, tau_of_t, t_end, steps, progress=progress)

    guard = int(np.ceil(0.9 * n_basis))
    leak = float(np.abs(c[guard:]).max(initial=0.0))
    if leak > TRUNCATION_LEAK_TOL:
        raise TruncationOverflowError(
            f"amplitude {leak:.2e} in the top 10% of a basis of {n_basis}; enlarge n_basis"
        )
    return from_fock_coefficients(c, diagonal_point([np.exp(2.0 * lam * t_end)]))


def transport_poly_standard(psi0: PolyFockSection, lam: float, t: float) -> PolyFockSection:
    """Closed-form transport of a polynomial state along the standard geodesic.

    Obtained by differentiating the coherent-state formula in the parameter:
    z^k maps to k! [s^k] of the transported exp(s z) family.
    """
    if abs(psi0.m) > 0 or abs(psi0.b) > 0:
        # reduce a general state to pure-polynomial data first
        coeffs = fock_coefficients(psi0, max(len(psi0.coeffs), 32))
        psi0 = from_fock_coefficients(coeffs, psi0.frame)
    if not psi0.frame.close_to(standard_point(1), tol=1e-12):
        raise ValueError("initial state must be expressed at the base point i")
    lam = float(np.atleast_1d(lam)[0])
    th = np.tanh(lam * t)
    sh = 1.0 / np.cosh(lam * t)
    out = np.zeros(len(psi0.coeffs), dtype=complex)
    # transported exp(s z0) family: [s^k] exp((th/2) s^2 + (sh z) s) gaussian
    for k, pk in enumerate(psi0.coeffs):
        if pk != 0:
            out[: k + 1] += pk * generating_poly(0.0, th, sh, k)
    return PolyFockSection(
        diagonal_point([np.exp(2.0 * lam * t)]),
        out,
        -th,
        0.0,
        psi0.c + 0.5 * np.log(sh),
    )


# ---------------------------------------------------------------------------
# ladder operators


def bogoliubov_operator_deformation(t: float) -> np.ndarray:
    """Coefficient matrix (cosh t, sinh t; sinh t, cosh t) mixing (a, a^dagger)."""
    return np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])


def ladder_matrices(n_trunc: int):
    """Truncated annihilation/creation matrices in a Fock frame."""
    a = np.zeros((n_trunc, n_trunc))
    for k in range(1, n_trunc):
        a[k - 1, k] = np.sqrt(k)
    return a, a.T.copy()
