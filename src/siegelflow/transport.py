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

from ._gaussint import half_logdet, kernel_apply_poly
from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import TruncationOverflowError
from .sections import (
    CorrectedSection,
    GaussianSection,
    HalfFormFrame,
    bergman_project,
    coherent_state,
    difference_norm,
    fock_coefficients,
    from_fock_coefficients,
    norm,
)
from .siegel import BoundaryPolarization, complex_structure_of
from .sympl import (
    MetaplecticElement,
    act_on_siegel,
    transform_z_coords,
    xi_matrix,
)

TRUNCATION_LEAK_TOL = 1e-6


# ---------------------------------------------------------------------------
# closed-form transport


def _halfform_log(omega, omega_p) -> complex:
    """half_logdet(Xi(Omega', Omega)) - (1/4) log det(Omega2 Omega2').

    The one det^{1/2} rule: the real part is log alpha(Omega, Omega'), the
    imaginary part the transported half-form phase.  The root is continued
    along the connecting geodesic from the start, where Xi = Omega2 is
    positive; Xi(gamma(t), Omega) has real part (Im gamma(t) + Omega2)/2,
    positive definite along the whole path, so the continued root is
    half_logdet's.  Either end may be a ``BoundaryPolarization``.
    """
    logdet2 = np.linalg.slogdet(omega.omega2 @ omega_p.omega2)[1]
    return half_logdet(xi_matrix(omega_p, omega)) - 0.25 * logdet2


def _xi_blocks(omega, omega_p):
    """Kernel blocks built from Xi = (Omega - conj(Omega'))/2i.

    Returns (K11, K12, K22, log_h) for the quadratic form on stacked
    (conj(z) | z'), K11 = w I - r Xi^{-1} r, K12 = r Xi^{-1} r' and
    K22 = w' I - r' Xi^{-1} r' with r = Omega2^{1/2} and w the frame's
    weight; log_h is ``_halfform_log(Omega, Omega')``.  The kernel's
    prefactor is exp(-Re log_h) = 1 / alpha(Omega, Omega'), and
    exp(-conj(log_h)) with the half-form phase.  Either end may be a
    ``BoundaryPolarization``, of weight 0: the pairing maps are these kernels.
    """
    eye = np.eye(omega.n)
    r, rp = omega.imag_sqrt(), omega_p.imag_sqrt()
    xi_inv = np.linalg.inv(xi_matrix(omega, omega_p))
    k11 = -r @ xi_inv @ r + omega.weight * eye
    k12 = r @ xi_inv @ rp
    k22 = -rp @ xi_inv @ rp + omega_p.weight * eye
    return k11, k12, k22, _halfform_log(omega, omega_p)


def _xi_kernel_apply(psi, omega, omega_p):
    """Push psi, a section over Omega, through the Xi kernel to Omega', prefactor aside.

    Either end may be a ``BoundaryPolarization``.  Returns (poly, m, b, c,
    log_h): the result is p(w) exp((1/2) w^T m w + b^T w + c) in the
    coordinates w of Omega', times the prefactor of ``_xi_blocks``.
    """
    k11, k12, k22, log_h = _xi_blocks(omega, omega_p)
    # integrate over v, z = E v, against the frame's full weight exp(-v^T G v)
    e = omega.coord_matrix
    ebar = np.conj(e)
    s = e.T @ psi.m @ e + ebar.T @ k11 @ ebar - 2.0 * omega.gram_matrix
    s = 0.5 * (s + s.T)
    q, r, c, poly = kernel_apply_poly(s, ebar.T @ k12, e.T @ psi.b, psi.c, psi.coeffs, e[0])
    m_out = q + k22
    return poly, 0.5 * (m_out + m_out.T), r, c, log_h


def transport_coherent(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> GaussianSection:
    """Parallel transport of the coherent state c_alpha along the geodesic."""
    n = omega.n
    alpha = np.asarray(alpha, dtype=complex).reshape(n)
    k11, k12, k22, log_h = _xi_blocks(omega, omega_p)
    ac = np.conj(alpha)
    return GaussianSection(
        omega_p,
        k22,
        k12.T @ ac,
        0.5 * (ac @ k11 @ ac) - log_h.real,
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
    """Transport of sqrt(d^n z): unit phase det(Xi')^{1/2}/|det Xi'|^{1/2},
    with the root continued along the connecting geodesic."""
    return HalfFormFrame(omega_p, np.exp(1j * _halfform_log(omega, omega_p).imag))


def bogoliubov_scale(omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """alpha(J, J') = |det Xi'|^{1/2} / (det Omega2 det Omega2')^{1/4}."""
    return float(np.exp(_halfform_log(omega, omega_p).real))


def bogoliubov_scale_via_structures(omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """Cross-check route: (det (J + J')/2)^{1/4} from the complex structures."""
    j = complex_structure_of(omega)
    jp = complex_structure_of(omega_p)
    det = np.linalg.det(0.5 * (j + jp))
    return float(det ** 0.25)


def transport_uncorrected(psi: GaussianSection, omega_p: SiegelPoint) -> GaussianSection:
    """U psi = alpha(Omega, Omega') P psi for any Gaussian(-polynomial) section."""
    return bergman_project(psi, omega_p).scaled(bogoliubov_scale(psi.frame, omega_p))


def transport_corrected(psihat: CorrectedSection, omega_p: SiegelPoint) -> CorrectedSection:
    """Flat transport: psi (x) sqrt(d^n z) -> <sqrt(d^n z'), sqrt(d^n z)> P psi (x) sqrt(d^n z').

    The transported half-form pairing, with its root continued along the
    geodesic, supplies both the Bogoliubov scale (its modulus) and the
    correction phase (its argument)."""
    log_h = _halfform_log(psihat.frame, omega_p)
    section = bergman_project(psihat.section, omega_p).scaled(float(np.exp(log_h.real)))
    return CorrectedSection(section, np.exp(1j * log_h.imag) * psihat.halfform_phase)


def transport_corrected_coherent(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> CorrectedSection:
    """Closed-form corrected transport of a coherent state: (3-term route)
    coherent closed form tensored with the continued half-form phase."""
    return CorrectedSection(transport_coherent(alpha, omega, omega_p), transport_halfform(omega, omega_p).phase)


def transport_equals_scaled_projection_check(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> float:
    """Relative residual || U c_alpha - alpha(J,J') P c_alpha || / ||c_alpha||.

    Both sides are closed-form Gaussians; ``difference_norm`` works with their
    differences, so it stays below the Gram-cancellation floor."""
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
    closed-form coherent transport, and both take polynomial sections.
    """
    if kernel == "bergman":
        return transport_uncorrected(phi, omega_p)
    if kernel != "holomorphic":
        raise ValueError(f"unknown kernel {kernel!r}")
    if not phi.frame.close_to(omega, tol=1e-12):
        raise ValueError("section must live at the source point")
    poly, m, b, c, log_h = _xi_kernel_apply(phi, omega, omega_p)
    return GaussianSection(omega_p, m, b, c - log_h.real, poly)


# ---------------------------------------------------------------------------
# metaplectic action on sections


def metaplectic_act(mp: MetaplecticElement, obj):
    """Lifted symplectic action on (corrected) sections.

    A section transforms through the unitary coordinate change z = t z' to
    the image frame: m -> t^T m t, b -> t^T b and coeffs[k] -> coeffs[k] t^k
    (a polynomial has n = 1).  The half-form coefficient picks up the
    tracked branch phase at the source point.  A section over a polarization
    with reference R keeps its profile data and half-form coefficient and
    moves to the polarization with reference mp R."""
    if isinstance(obj, CorrectedSection):
        phase = obj.halfform_phase
        if isinstance(obj.frame, SiegelPoint):
            phase = mp.phase_at(obj.frame) * phase
            phase = phase / abs(phase)
        return CorrectedSection(metaplectic_act(mp, obj.section), phase)
    if isinstance(obj.frame, BoundaryPolarization):
        pol = BoundaryPolarization(mp.compose(obj.frame.reference))
        return GaussianSection(pol, obj.m, obj.b, obj.c, obj.coeffs)
    omega = obj.frame
    target = act_on_siegel(mp.g, omega)
    t = transform_z_coords(mp.g, omega)
    m = t.T @ obj.m @ t
    coeffs = obj.coeffs * complex(t[0, 0]) ** np.arange(obj.degree + 1)
    return GaussianSection(target, 0.5 * (m + m.T), t.T @ obj.b, obj.c, coeffs)


# ---------------------------------------------------------------------------
# Fock-basis connection and the transport ODE (n = 1)


def _fock_connection_bands(n_trunc: int):
    """(diag, off) with diag[k] = k and off[j] = sqrt((j + 2)(j + 1)): P_tau
    is diag on the diagonal and -off at (j + 2, j); P_taubar is its transpose."""
    diag = np.arange(n_trunc, dtype=float)
    return diag, np.sqrt(diag[2:] * diag[1:-1])


def _fock_connection_patterns(n_trunc: int):
    """Dense tau-independent patterns (P_tau, P_taubar) of the connection."""
    diag, off = _fock_connection_bands(n_trunc)
    p_tau = np.diag(diag).astype(complex)
    p_tau[np.arange(2, n_trunc), np.arange(n_trunc - 2)] = -off
    return p_tau, p_tau.T


def fock_connection_matrix(tau: complex, n_trunc: int):
    """Connection 1-form in the Fock frame over the upper half-plane.

    Returns (A_tau, A_taubar) with A = A_tau dtau + A_taubar dconj(tau):

        A_tau[k, l]    = (i / 4 tau2) (k delta_{kl} - sqrt(k(k-1)) delta_{k, l+2})
        A_taubar[k, l] = (i / 4 tau2) (l delta_{kl} - sqrt(l(l-1)) delta_{k+2, l})
    """
    tau2 = complex(tau).imag
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
    connection (path velocity by central differences of the supplied map)
    is re-evaluated at t, t + h/2 and t + h of every step and applied band
    by band, O(len(c0)) per stage.  ``progress``, when given, is called as
    progress(step, steps) about a hundred times; it must not mutate the state.
    """
    c = np.asarray(c0, dtype=complex).copy()
    h = t_end / steps
    eps = 1e-6 * max(abs(t_end), 1.0)
    diag, off = _fock_connection_bands(c.size)
    report_every = max(1, steps // 100)

    def connection(t):
        # (a, b) = (i / 4 tau2) (dtau, conj(dtau)) at t; rhs is -(a P_tau + b P_taubar) c
        tau = complex(tau_of_t(t))
        if tau.imag <= 0:
            raise ValueError("path left the upper half-plane")
        dtau = (complex(tau_of_t(t + eps)) - complex(tau_of_t(t - eps))) / (2 * eps)
        pref = 0.25j / tau.imag
        return pref * dtau, pref * dtau.conjugate()

    def rhs(a, b, c):
        out = -(a + b) * diag * c
        out[2:] += a * off * c[:-2]
        out[:-2] += b * off * c[2:]
        return out

    t, at_t = 0.0, connection(0.0)
    for step in range(steps):
        at_mid = connection(t + 0.5 * h)
        at_end = connection(t + h)
        k1 = rhs(*at_t, c)
        k2 = rhs(*at_mid, c + 0.5 * h * k1)
        k3 = rhs(*at_mid, c + 0.5 * h * k2)
        k4 = rhs(*at_end, c + h * k3)
        c = c + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t, at_t = t + h, at_end
        if progress is not None and (step + 1) % report_every == 0:
            progress(step + 1, steps)
    return c


def transport_ode(
    psi0: GaussianSection,
    lam: float,
    t_end: float,
    steps: int,
    n_basis: int | None = None,
    progress=None,
) -> GaussianSection:
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


def transport_poly_standard(psi0: GaussianSection, lam: float, t: float) -> GaussianSection:
    """Closed-form transport of a Gaussian-polynomial state along the
    standard geodesic i exp(2 lambda t) from i.

    This is the rescaled projection alpha P of ``transport_uncorrected``,
    exact for any polynomial degree and any Gaussian part (m, b, c).
    """
    if not psi0.frame.close_to(standard_point(1), tol=1e-12):
        raise ValueError("initial state must be expressed at the base point i")
    lam = float(np.atleast_1d(lam)[0])
    return transport_uncorrected(psi0, diagonal_point([np.exp(2.0 * lam * t)]))


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
