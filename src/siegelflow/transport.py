"""Parallel transport of polarized sections along geodesics.

Transport in the uncorrected bundle is a rescaled Bergman projection: the
unitary U from Omega to Omega' equals alpha(Omega, Omega') P, where P is the
orthogonal projection onto the holomorphic sections of Omega' and

    alpha = |det Xi'|^{1/2} / (det Omega2 det Omega2')^{1/4},
    Xi'   = (Omega' - conj(Omega)) / 2i.

P and the Xi kernel (``_xi_kernel``) are ``sections._Kernel`` values; coherent
states transport in closed form.  The half-form correction contributes the
unit phase (det Xi')^{1/2} / |det Xi'|^{1/2}, which corrected transport adds
to the section's constant c, after which transport composes flatly.  So both
bundles share one route, ``_transport``, and differ only in that scalar.  A
moving-frame Fock ODE on amplitudes, ``transport_ode``, provides an
independent numerical route for n = 1: on the normal-form geodesic
i exp(2 lambda t) the connection 1-form has constant coefficients, so the
truncated ODE is solved exactly by the exponential of its squeeze generator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._gaussint import half_logdet
from ._point import SiegelPoint
from .errors import NonFiniteError, TruncationOverflowError
from .sections import (
    CorrectedSection,
    GaussianSection,
    _as_stack,
    _bergman,
    _Kernel,
    bergman_project,  # noqa: F401  unused here, but perfbench/tests/test_harness.py:83-84 pins this binding
    coherent_state,
    difference_norm,
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


def _transport(psis, omega_p: SiegelPoint) -> list:
    """Plain and corrected sections over one frame object, in any mix, moved to Omega' by one half-form root, one
    Bergman kernel and one stacked push, less -Re log_h for a plain section (alpha(Omega, Omega') P psi) and less
    -log_h for a corrected one (the half-form phase too).  Each result comes back in its input's kind."""
    log_h, corrected = _halfform_log(psis[0].frame, omega_p), [isinstance(p, CorrectedSection) for p in psis]
    out = _bergman(psis[0].frame, omega_p).apply_all([p.section if c else p for p, c in zip(psis, corrected)],
                                                     [-log_h if c else -log_h.real for c in corrected])
    return [CorrectedSection(s) if c else s for s, c in zip(out, corrected)]


def transport_uncorrected(psi, omega_p: SiegelPoint):
    """U psi = alpha(Omega, Omega') P psi for any Gaussian(-polynomial) section, or the list of U psi for a sequence
    of sections over one frame object: one ``_transport``."""
    psis, one = _as_stack(psi, GaussianSection, "transport_uncorrected")
    out = _transport(psis, omega_p)
    return out[0] if one else out


def transport_corrected(psihat, omega_p: SiegelPoint):
    """Flat transport: psi (x) sqrt(d^n z) -> <sqrt(d^n z'), sqrt(d^n z)> P psi (x) sqrt(d^n z').

    The transported half-form pairing, with its root continued along the
    geodesic, supplies both the Bogoliubov scale (its modulus) and the
    correction phase (its argument), both folded into the section's c.  A
    sequence of sections over one frame object gives a list: one
    ``_transport``."""
    psihats, one = _as_stack(psihat, CorrectedSection, "transport_corrected")
    out = _transport(psihats, omega_p)
    return out[0] if one else out


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
) -> tuple[GaussianSection, complex]:
    """Transport via one of the two integral kernels, and the half-form root
    log_h (``_halfform_log``) whose modulus scaled it: one root per call.

    'bergman': rescaled reproducing-kernel projection (acts on the full
    section).  'holomorphic': the kernel acting on the holomorphic part
    only, with the Xi blocks inside the integral.  Both agree with the
    closed-form coherent transport, and both take polynomial sections.
    """
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
    polynomial has n = 1); a corrected section's c picks up the log of the
    tracked branch phase at the source point.  A section over a polarization
    with reference R keeps its profile data and moves to the polarization with
    reference mp R."""
    if isinstance(obj, CorrectedSection):
        psi = obj.section
        if isinstance(psi.frame, SiegelPoint):
            psi = GaussianSection(psi.frame, psi.m, psi.b, psi.c + np.log(mp.phase_at(psi.frame)), psi.coeffs)
        return CorrectedSection(metaplectic_act(mp, psi))
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
# the transport ODE in the Fock frame (n = 1)


@lru_cache(maxsize=16)
def _squeeze_modes(n_basis: int):
    """(evals, V, d) of the even, then the odd chain of ``transport_ode_coeffs``, read-only: S1 has off[j] =
    sqrt((j + 2)(j + 1)) at (j, j + 2) and (j + 2, j), and each chain takes every other off[j]."""
    off, modes = np.sqrt(np.arange(2.0, n_basis) * np.arange(1.0, n_basis - 1)), []
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

    The Fock-frame connection 1-form is A = (i / 4 tau2)(P_tau dtau + P_taubar dconj(tau)), P_tau with k on the
    diagonal and -sqrt(k (k - 1)) at (k, k - 2), P_taubar its transpose.  With gamma' = 2 lambda gamma,
    K = -A(gamma') = (lambda / 2)(P_taubar - P_tau) is constant: w[j] = (lambda / 2) sqrt((j + 2)(j + 1)) at
    (j, j + 2), -w[j] at (j + 2, j).  On the chain of each parity d^{-1} K d = i (lambda / 2) S1, d = i^m along the
    chain and S1 = (2 / lambda) w on both off-diagonals, so exp(t K) = d V exp(i (lambda t / 2) evals) V^T d^{-1},
    (evals, V) = eigh(S1), is orthogonal.  ``steps`` is ignored; it stays for ``perfbench/tracer.py``'s counter.
    """
    c0 = np.asarray(c0, dtype=complex)
    c = np.empty_like(c0)
    for parity, (evals, vecs, d) in enumerate(_squeeze_modes(c0.size)):
        y = np.exp(0.5j * lam * t_end * evals) * _real_matvec(vecs.T, np.conj(d) * c0[parity::2])
        c[parity::2] = d * _real_matvec(vecs, y)
    return c


def transport_ode(c0, lam: float, t_end: float, steps: int) -> np.ndarray:
    """The Fock amplitudes c0 of a truncated state at i, transported along i exp(2 lambda t) to t_end.

    The exact, orthogonal propagator of the geodesic's constant generator
    (``transport_ode_coeffs``, from the connection 1-form, not the closed
    forms; ``steps`` is ignored) carries c0, zero past its length, on
    max(4 len(c0), 128) states, doubled up to ``ODE_BASIS_MAX`` while an
    amplitude in the top 10% exceeds ``TRUNCATION_LEAK_TOL`` ||c0||; one
    amplitude per state of the final basis comes back.  A bad c0, lam or t_end
    raises before any propagation, a start past the cap or a leak at it
    ``TruncationOverflowError``.
    """
    c0 = np.asarray(c0, dtype=complex)
    # hypot accumulates without squaring, so a finite c0 has a finite norm and no overflow warning
    norm0 = float(np.hypot.reduce(np.abs(c0), axis=None, initial=0.0))
    if not np.isfinite(norm0):
        raise NonFiniteError(f"amplitude vector c0 has norm {norm0}")
    if c0.ndim != 1 or norm0 == 0.0:
        raise ValueError(f"amplitude vector c0 of shape {c0.shape} must be one-dimensional and non-zero")
    if not np.isfinite([lam, t_end]).all():
        raise NonFiniteError(f"lam = {lam} and t_end = {t_end} must be finite")
    n_basis = max(4 * c0.size, 128)
    if n_basis > ODE_BASIS_MAX:
        raise TruncationOverflowError(f"amplitude vector of {c0.size} states needs a starting basis of {n_basis} "
                                      f"states, past ODE_BASIS_MAX = {ODE_BASIS_MAX}")
    while True:
        c = transport_ode_coeffs(np.pad(c0, (0, n_basis - c0.size)), lam, t_end, steps)
        leak = float(np.abs(c[int(np.ceil(0.9 * n_basis)) :]).max()) / norm0
        if leak <= TRUNCATION_LEAK_TOL:
            return c
        if n_basis >= ODE_BASIS_MAX:
            raise TruncationOverflowError(f"amplitude {leak:.2e} of the norm in the top 10% of a basis of {n_basis} "
                                          f"states at lam * t_end = {lam * t_end:.4g}; the basis stops doubling at "
                                          f"ODE_BASIS_MAX = {ODE_BASIS_MAX}")
        n_basis = min(2 * n_basis, ODE_BASIS_MAX)
