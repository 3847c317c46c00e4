"""Parallel transport of polarized sections along geodesics.

Transport in the uncorrected bundle is a rescaled Bergman projection: the
unitary U from Omega to Omega' equals alpha(Omega, Omega') P, where P is the
orthogonal projection onto the holomorphic sections of Omega' and

    alpha = |det Xi'|^{1/2} / (det Omega2 det Omega2')^{1/4},
    Xi'   = (Omega' - conj(Omega)) / 2i.

P and the Xi kernel (``_xi_kernel``) are ``sections._Kernel`` values; coherent
states transport in closed form.  The half-form correction contributes the
unit phase (det Xi')^{1/2} / |det Xi'|^{1/2}, after which transport composes
flatly.  A moving-frame Fock ODE provides an independent numerical route for
n = 1: on the normal-form geodesic i exp(2 lambda t) the connection 1-form has
constant coefficients, so the truncated ODE is solved exactly by the
exponential of its constant squeeze generator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._gaussint import half_logdet
from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import TruncationOverflowError
from .sections import (
    CorrectedSection,
    GaussianSection,
    _bergman,
    _Kernel,
    bergman_project,  # noqa: F401  unused here, but perfbench/tracer.py wraps it under this name
    coherent_state,
    difference_norm,
    fock_coefficients,
    from_fock_coefficients,
    norm,
)
from .siegel import BoundaryPolarization, complex_structure_of
from .sympl import MetaplecticElement, SymplecticMap, act_on_siegel, transform_z_coords, xi_matrix

TRUNCATION_LEAK_TOL = 1e-6
ODE_BASIS_MAX = 1024


# ---------------------------------------------------------------------------
# closed-form transport


def _halfform_log(omega, omega_p) -> complex:
    """half_logdet(Xi(Omega', Omega)) - (1/4) log det(Omega2 Omega2').

    The one det^{1/2} rule: the real part is log alpha(Omega, Omega'), the
    imaginary part the transported half-form phase.  The root is continued
    along the connecting geodesic from the start, where Xi = Omega2 is
    positive; Xi(gamma(t), Omega) has real part (Im gamma(t) + Omega2)/2,
    positive definite along the whole path, so the continued root is
    half_logdet's.  Either end may be a ``BoundaryPolarization``; frames of
    two n raise ValueError naming both.
    """
    if omega.n != omega_p.n:
        raise ValueError(f"{omega!r} and {omega_p!r} are frames of different spaces")
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
    The root is taken first, so frames of two n raise its ValueError.
    """
    log_h = _halfform_log(omega, omega_p)
    eye = np.eye(omega.n)
    r, rp = omega.imag_sqrt(), omega_p.imag_sqrt()
    xi_inv = np.linalg.inv(xi_matrix(omega, omega_p))
    k11 = -r @ xi_inv @ r + omega.weight * eye
    k12 = r @ xi_inv @ rp
    k22 = -rp @ xi_inv @ rp + omega_p.weight * eye
    return k11, k12, k22, log_h


def _xi_kernel(omega, omega_p, t_in=None, out=None) -> tuple[_Kernel, complex]:
    """(the Xi kernel from Omega to Omega', reading the coordinates of ``omega``, and ``_xi_blocks``'s log_h); either
    end may be a ``BoundaryPolarization``, and frames of two n raise ValueError naming both.  Two unitary coordinate
    changes fold in exactly: ``t_in`` for psi over a frame with z = t_in z_Omega (E -> t_in E), and ``out = (target,
    t)`` for a result over ``target`` with z_Omega' = t z'' (K12 -> K12 t, K22 -> t^T K22 t, as t^T (-L^T S^{-1} L) t
    = -(L t)^T S^{-1} (L t); for n = 1 the push gives a polynomial its t^k factors)."""
    k11, k12, k22, log_h = _xi_blocks(omega, omega_p)
    target, t = (omega_p, np.eye(omega.n)) if out is None else out
    # integrate over v, z = E v, against the frame's full weight exp(-v^T G v)
    ebar = np.conj(omega.coord_matrix)
    e = omega.coord_matrix if t_in is None else t_in @ omega.coord_matrix
    kernel = _Kernel(e, 2.0 * omega.gram_matrix - ebar.T @ k11 @ ebar, 0.0, ebar.T @ k12 @ t, target, t.T @ k22 @ t)
    return kernel, log_h


def transport_coherent(alpha, omega: SiegelPoint, omega_p: SiegelPoint) -> GaussianSection:
    """Parallel transport of the coherent state c_alpha along the geodesic."""
    alpha = np.asarray(alpha, dtype=complex).reshape(omega.n)
    k11, k12, k22, log_h = _xi_blocks(omega, omega_p)
    ac = np.conj(alpha)
    return GaussianSection(omega_p, k22, k12.T @ ac, 0.5 * (ac @ k11 @ ac) - log_h.real)


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
    return _transport_uncorrected_all([psi], omega_p)[0]


def _transport_uncorrected_all(psis, omega_p: SiegelPoint) -> list[GaussianSection]:
    """``transport_uncorrected`` of sections over one frame object: one Bergman kernel, which checks the two frames,
    then one half-form root and one stacked projection."""
    kernel = _bergman(psis[0].frame, omega_p)
    return kernel.apply_all(psis, [-_halfform_log(psis[0].frame, omega_p).real] * len(psis))


def transport_corrected(psihat: CorrectedSection, omega_p: SiegelPoint) -> CorrectedSection:
    """Flat transport: psi (x) sqrt(d^n z) -> <sqrt(d^n z'), sqrt(d^n z)> P psi (x) sqrt(d^n z').

    The transported half-form pairing, with its root continued along the
    geodesic, supplies both the Bogoliubov scale (its modulus) and the
    correction phase (its argument)."""
    return _transport_corrected_all([psihat], omega_p)[0]


def _transport_corrected_all(psihats, omega_p: SiegelPoint) -> list[CorrectedSection]:
    """``transport_corrected`` of sections over one frame object: one half-form root, one stacked projection."""
    log_h = _halfform_log(psihats[0].frame, omega_p)
    sections = _bergman(psihats[0].frame, omega_p).apply_all([p.section for p in psihats], [-log_h.real] * len(psihats))
    return [CorrectedSection(s, np.exp(1j * log_h.imag) * p.halfform_phase) for s, p in zip(sections, psihats)]


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
    return _kernel_transport(phi, omega, omega_p, kernel)[0]


def _kernel_transport(phi: GaussianSection, omega: SiegelPoint, omega_p: SiegelPoint, kernel: str) -> tuple:
    """(``transport_kernel_apply``'s section, the half-form root log_h whose modulus scaled it), one root taken."""
    if not phi.frame.close_to(omega, tol=1e-12):
        raise ValueError("section must live at the source point")
    if kernel == "bergman":
        log_h = _halfform_log(phi.frame, omega_p)
        return _bergman(phi.frame, omega_p).apply(phi, -log_h.real), log_h
    if kernel != "holomorphic":
        raise ValueError(f"unknown kernel {kernel!r}")
    xi, log_h = _xi_kernel(omega, omega_p)
    return xi.apply(phi, log_h.real), log_h


# ---------------------------------------------------------------------------
# metaplectic action on sections


def metaplectic_act(mp: MetaplecticElement, obj):
    """Lifted symplectic action on (corrected) sections.

    A section changes to the coordinates z' of the image frame, z = t z' with
    t unitary: m -> t^T m t, b -> t^T b and coeffs[k] -> coeffs[k] t^k (a
    polynomial has n = 1); its half-form coefficient picks up the tracked
    branch phase at the source point.  A section over a polarization with
    reference R keeps its profile data and half-form coefficient and moves to
    the polarization with reference mp R."""
    if isinstance(obj, CorrectedSection):
        phase = obj.halfform_phase
        if isinstance(obj.frame, SiegelPoint):
            phase = mp.phase_at(obj.frame) * phase
            phase = phase / abs(phase)
        return CorrectedSection(metaplectic_act(mp, obj.section), phase)
    if isinstance(obj.frame, BoundaryPolarization):
        pol = BoundaryPolarization(mp.compose(obj.frame.reference))
        return GaussianSection(pol, obj.m, obj.b, obj.c, obj.coeffs)
    return _act_on_section(mp.g, obj)


def _act_on_section(g: SymplecticMap, psi: GaussianSection) -> GaussianSection:
    """``metaplectic_act`` on a plain section over a ``SiegelPoint``, which reads only the lift's map g."""
    target = act_on_siegel(g, psi.frame)
    t = transform_z_coords(g, psi.frame, target)
    coeffs = psi.coeffs * complex(t[0, 0]) ** np.arange(psi.degree + 1)
    return GaussianSection(target, t.T @ psi.m @ t, t.T @ psi.b, psi.c, coeffs)


# ---------------------------------------------------------------------------
# Fock-basis connection and the transport ODE (n = 1)


def _fock_connection_bands(n_trunc: int):
    """(diag, off) with diag[k] = k and off[j] = sqrt((j + 2)(j + 1)): P_tau
    is diag on the diagonal and -off at (j + 2, j); P_taubar is its transpose."""
    diag = np.arange(n_trunc, dtype=float)
    return diag, np.sqrt(diag[2:] * diag[1:-1])


def fock_connection_matrix(tau: complex, n_trunc: int):
    """Connection 1-form in the Fock frame over the upper half-plane.

    Returns (A_tau, A_taubar) with A = A_tau dtau + A_taubar dconj(tau):

        A_tau[k, l]    = (i / 4 tau2) (k delta_{kl} - sqrt(k(k-1)) delta_{k, l+2})
        A_taubar[k, l] = (i / 4 tau2) (l delta_{kl} - sqrt(l(l-1)) delta_{k+2, l})
    """
    tau2 = complex(tau).imag
    if tau2 <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    diag, off = _fock_connection_bands(n_trunc)
    pref = 0.25j / tau2
    a_tau = np.diag(pref * diag)
    a_tau[np.arange(2, n_trunc), np.arange(n_trunc - 2)] = -pref * off
    return a_tau, a_tau.T.copy()


@lru_cache(maxsize=16)
def _squeeze_modes(n_basis: int):
    """(evals, V, d) of the even, then the odd chain of ``transport_ode_coeffs``, read-only."""
    off, modes = _fock_connection_bands(n_basis)[1], []
    for parity in (0, 1):
        size, w = len(range(parity, n_basis, 2)), off[parity::2]
        evals, vecs = np.linalg.eigh((np.diag(w, 1) + np.diag(w, -1))[:size, :size])
        modes.append((evals, vecs, 1j ** np.arange(size)))
        for arr in modes[-1]:
            arr.flags.writeable = False
    return tuple(modes)


def _real_matvec(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for real a and complex x, without a complex copy of a."""
    return (a @ np.column_stack((x.real, x.imag))) @ np.array([1.0, 1.0j])


def transport_ode_coeffs(c0: np.ndarray, lam: float, t_end: float, steps: int) -> np.ndarray:
    """exp(t_end K) c0, the exact solution of dc/dt = -A(gamma'(t)) c on gamma(t) = i exp(2 lambda t).

    With gamma' = 2 lambda gamma, K = -A(gamma') = (lambda / 2)(P_taubar - P_tau)
    is constant: w[j] = (lambda / 2) sqrt((j + 2)(j + 1)) at (j, j + 2), -w[j]
    at (j + 2, j).  On the chain of each parity d^{-1} K d = i (lambda / 2) S1,
    d = i^m along the chain and S1 = (2 / lambda) w on both off-diagonals, so
    exp(t K) = d V exp(i (lambda t / 2) evals) V^T d^{-1}, (evals, V) = eigh(S1),
    is orthogonal.  ``steps`` is ignored; it stays for ``perfbench/tracer.py``'s counter.
    """
    c0 = np.asarray(c0, dtype=complex)
    c = np.empty_like(c0)
    for parity, (evals, vecs, d) in enumerate(_squeeze_modes(c0.size)):
        y = np.exp(0.5j * lam * t_end * evals) * _real_matvec(vecs.T, np.conj(d) * c0[parity::2])
        c[parity::2] = d * _real_matvec(vecs, y)
    return c


def transport_ode(
    psi0: GaussianSection, lam: float, t_end: float, steps: int, n_basis: int | None = None
) -> GaussianSection:
    """Numerical transport of a truncated Fock state along i exp(2 lambda t).

    The state is expanded in the moving Fock frame and carried by the exact,
    orthogonal propagator of the geodesic's constant generator, built from
    the connection 1-form, not from the closed-form transport; ``steps`` is
    ignored.  The basis starts at ``n_basis`` states (32 by default), or at
    the state's length if that is more (past ``ODE_BASIS_MAX``,
    ``TruncationOverflowError`` before any expansion), and grows as in
    ``_transport_amplitudes``.  The result is a monomial section, c_k / sqrt(k!),
    that cannot be normed past about 170 states: ``transport --ode-check``
    compares the amplitudes instead.
    """
    if psi0.n != 1:
        raise ValueError("the transport ODE is one-dimensional")
    if not psi0.frame.close_to(standard_point(1), tol=1e-12):
        raise ValueError("initial state must be expressed at the base point i")
    lam = float(np.atleast_1d(lam)[0])
    n_basis = max(32 if n_basis is None else n_basis, len(psi0.coeffs))
    if n_basis > ODE_BASIS_MAX:
        raise TruncationOverflowError(f"a starting basis of {n_basis} states exceeds ODE_BASIS_MAX = {ODE_BASIS_MAX}")
    c = _transport_amplitudes(lambda n: fock_coefficients(psi0, n), lam, t_end, steps, n_basis)
    return from_fock_coefficients(c, diagonal_point([np.exp(2.0 * lam * t_end)]))


def _transport_amplitudes(amplitudes, lam: float, t_end: float, steps: int, n_basis: int) -> np.ndarray:
    """``transport_ode_coeffs`` of ``amplitudes(n)`` on n = ``n_basis`` states, doubled while more than
    ``TRUNCATION_LEAK_TOL`` of amplitude, or a non-finite one, reaches the top 10% (the last state, for n <= 9),
    up to ``ODE_BASIS_MAX`` states, where a leak raises ``TruncationOverflowError``; n is the result's length."""
    while True:
        c = transport_ode_coeffs(amplitudes(n_basis), lam, t_end, steps)
        leak = float(np.abs(c[min(int(np.ceil(0.9 * n_basis)), n_basis - 1) :]).max())
        if leak <= TRUNCATION_LEAK_TOL:
            return c
        if n_basis >= ODE_BASIS_MAX:
            raise TruncationOverflowError(f"amplitude {leak:.2e} in the top 10% of a basis of {n_basis} states; "
                                          f"the basis stops doubling at ODE_BASIS_MAX = {ODE_BASIS_MAX}")
        n_basis = min(2 * n_basis, ODE_BASIS_MAX)
