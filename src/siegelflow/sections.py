"""Polarized sections and their closed-form Gaussian calculus.

In the holomorphic coordinates z = (2 Omega2)^{-1/2} (x - conj(Omega) y) a
polarized section is phi(z) exp(-|z|^2 / 2) with phi entire.  One type,
``GaussianSection``, carries the family phi = p(z) exp((1/2) z^T M z +
b^T z + c), ||M|| < 1, which is closed under every operation in this
library.  Over a real polarization, a ``BoundaryPolarization`` frame, the
same type is the profile in standard position p(u) exp((1/2) u^T M u +
b^T u + c) on V/L- = R^n, Re M < 0, with no |z|^2 weight.  The polynomial
p is stored in ascending ``coeffs`` and has a ``degree``; Gaussians are
p = 1, and p of degree >= 1 (n = 1 only) covers the Fock basis
|k> = z^k / sqrt(k!) exp(-|z|^2 / 2).

All inner products are taken in the ambient space of square-integrable
functions on R^{2n} against the Liouville form, normalized so that the
vacuum of every frame has unit norm:

    <psi1, psi2> = (2 pi)^{-n} integral conj(psi1) psi2 dx dy,

and profiles against (2 pi)^{-n/2} du.

Closed forms reduce to one complex Gaussian integral, pushed by one kernel type,
``_Kernel`` (``_bergman``, ``transport._xi_kernel``, ``transforms.fourier``); an
independent Gauss-Hermite quadrature oracle guards every frozen formula.
"""

from __future__ import annotations

from cmath import isfinite
from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._gaussint import _finite, _poly_gauss_pairing, kernel_apply_poly, taylor
from ._point import SiegelPoint
from .errors import NonFiniteError, NotIntegrableError, PolarizationMismatchError
from .siegel import BoundaryPolarization

N_TRUNC_DEFAULT = 32
QUAD_NODES_DEFAULT = 64
# numpy's hermgauss weights underflow to 0 from 371 nodes and overflow from 372
QUAD_NODES_MAX = 370

Frame = SiegelPoint | BoundaryPolarization


def _same_space(f1: Frame, f2: Frame) -> None:
    """Sections pair only over two Kaehler frames of one n or over one polarization."""
    if type(f1) is not type(f2) or f1.n != f2.n:
        raise ValueError(f"sections over {f1!r} and {f2!r} are functions on different spaces")
    if isinstance(f1, BoundaryPolarization) and not f1.close_to(f2):
        raise PolarizationMismatchError(f"sections over {f1!r} and {f2!r} use different reductions to L-")


def _require_frame(what: str, kind: type, *sections) -> None:
    """ValueError naming the frame unless every section lives over a ``kind`` frame."""
    for psi in sections:
        if not isinstance(psi.frame, kind):
            kinds = "Kaehler frames" if kind is SiegelPoint else "polarizations"
            raise ValueError(f"{what} takes sections over {kinds}, not over {psi.frame!r}")


@dataclass(frozen=True)
class GaussianSection:
    """p(z) exp((1/2) z^T m z + b^T z + c) exp(-w |z|^2/2) in the frame's
    coordinates, w the frame's ``weight``: 1 on a Kaehler frame, 0 on a polarization.

    ``coeffs`` lists p in ascending powers of z; degree >= 1 needs n = 1.
    A constant p is folded into c, so a section of degree 0 has coeffs == [1].
    """

    frame: Frame
    m: np.ndarray
    b: np.ndarray
    c: complex
    coeffs: np.ndarray = (1.0,)

    def __post_init__(self):
        n = self.frame.n
        coeffs = np.array(self.coeffs, dtype=complex, ndmin=1)
        if coeffs.size == 0:
            raise ValueError("coeffs must hold at least one coefficient")
        if coeffs.size > 1 and n != 1:
            raise ValueError("polynomial sections are supported for n = 1 only")
        m = np.array(self.m, dtype=complex, ndmin=2)
        b = np.array(self.b, dtype=complex).reshape(n)
        if m.shape != (n, n):
            raise ValueError(f"m must be {n} x {n}")
        _checked(self.frame, m, b, self.c, coeffs, coeffs.size - 1, [self])

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def degree(self) -> int:
        return self.coeffs.shape[-1] - 1

    def real_quadratic(self):
        """(S, l, k) with value(v) = p(z(v)) exp((1/2) v^T S v + l^T v + k)."""
        e = self.frame.coord_matrix
        s = e.T @ self.m @ e - self.frame.gram_matrix
        return 0.5 * (s + s.swapaxes(-1, -2)), self.b @ e, self.c

    def _exponent(self, v) -> tuple:
        """(z, (1/2) z^T m z + b^T z + c - w |z|^2 / 2) at z = E v; a ``_stack`` meets v (k, N, 2n) entry by entry."""
        m, c = (self.m[:, None], self.c[:, None]) if self.m.ndim > 2 else (self.m, self.c)
        z = np.asarray(v, dtype=float) @ self.frame.coord_matrix.T
        quad = 0.5 * np.einsum("...i,...ij,...j->...", z, m, z)
        lin = (z @ self.b[..., None])[..., 0]
        norm2 = 0.5 * self.frame.weight * np.einsum("...i,...i->...", np.conj(z), z).real
        return z, quad + lin + c - norm2

    def log_value(self, v) -> np.ndarray:
        """log value(v), evaluated pointwise; log p takes numpy's principal branch."""
        z, out = self._exponent(v)
        if self.degree:
            with np.errstate(divide="ignore"):  # log 0 = -inf at a zero of p
                out = out + np.log(np.polynomial.polynomial.polyval(z[..., 0], self.coeffs))
        return out

    def value(self, v) -> np.ndarray:
        # p times exp, not exp(log_value): a complex log of p would double the cost
        z, out = self._exponent(v)
        out = np.exp(out)
        if self.degree:
            coeffs = self.coeffs.T[..., None] if self.m.ndim > 2 else self.coeffs
            out = np.polynomial.polynomial.polyval(z[..., 0], coeffs, tensor=False) * out
        return out


def _checked(frame: Frame, m: np.ndarray, b: np.ndarray, c, coeffs: np.ndarray, degree, out: list) -> None:
    """Fills ``out`` over ``frame`` with m, b, c and coeffs as checked (non-finite data, asymmetric m, the frame's
    ``check_integrable``, a constant p of 0) and normalised (m symmetrised, a constant p folded into c, read-only);
    stacked, coeffs are zero-padded past each ``degree``, and the first check failed by any entry raises its error."""
    one = m.ndim == 2
    axes = None if one else (-2, -1)  # per entry; reducing a single m over an axis tuple costs it ~0.3 us
    amax = np.abs(m).max(axes).tolist()
    amax, c, degree = ([amax], [complex(c)], [degree]) if one else (amax, c.tolist(), degree)
    for name, ok in (("m", all(map(np.inf.__gt__, amax))), ("b", _finite(b)), ("c", all(map(isfinite, c))),
                     ("coeffs", _finite(coeffs))):
        if not ok:
            raise NonFiniteError(f"section {name} is not finite")
    asym = np.abs(m - m.swapaxes(-1, -2)).max(axes).tolist()
    if any(d > 1e-12 * max(1.0, a) for d, a in zip([asym] if one else asym, amax)):
        raise ValueError("m must be symmetric")
    half = 0.5 * m  # halved first: m + m.T overflows for entries above ~9e307
    m = half + half.swapaxes(-1, -2)
    frame.check_integrable(m)
    for arr in (m, b, coeffs):
        arr.setflags(write=False)
    polys = [coeffs] if one else [row[: d + 1] for row, d in zip(coeffs, degree)]
    for i, d in enumerate(degree):
        if d == 0 and polys[i][0] != 1.0:
            with np.errstate(divide="ignore"):  # log 0 raises below
                c[i], polys[i] = c[i] + complex(np.log(polys[i][0])), np.ones(1, dtype=complex)
            if not np.isfinite(c[i]):
                raise NonFiniteError("section coeffs fold to log 0")
            polys[i].setflags(write=False)
    for psi, fields in zip(out, [(m, b, c[0], polys[0])] if one else zip(m, b, c, polys)):
        vars(psi).update(zip(("frame", "m", "b", "c", "coeffs"), (frame, *fields)))


def _sections(frame: Frame, m, b, c, coeffs, psis) -> list[GaussianSection]:
    """Sections over ``frame`` of the degrees of ``psis`` from fields with or without the stack axis of ``_stack``."""
    out = [object.__new__(GaussianSection) for _ in psis]
    _checked(frame, m, b, c, coeffs, psis[0].degree if m.ndim == 2 else [p.degree for p in psis], out)
    return out


def _stack(xs) -> tuple:
    """(section, half-form phase) of one plain or corrected section; of several over one frame object (else
    ValueError), one section whose fields carry a leading stack axis, coeffs zero-padded, and their phases.  Only
    ``real_quadratic``, ``degree``, ``value`` and the kernels take a stack."""
    if len(xs) == 1:
        return _with_phase(xs[0])
    psis, phases = zip(*map(_with_phase, xs))
    if any(psi.frame is not psis[0].frame for psi in psis):
        raise ValueError(f"a stack takes sections over one frame object, not {[psi.frame for psi in psis]!r}")
    coeffs = np.zeros((len(psis), 1 + max(psi.degree for psi in psis)), dtype=complex)
    for row, psi in zip(coeffs, psis):
        row[: psi.degree + 1] = psi.coeffs
    out = object.__new__(GaussianSection)
    vars(out).update({x: np.array([getattr(p, x) for p in psis]) for x in "mbc"}, frame=psis[0].frame, coeffs=coeffs)
    return out, np.array(phases)


def _as_stack(x) -> tuple[list, bool]:
    """(sections, whether ``x`` is one): one plain or corrected section as a list of one, or a non-empty sequence
    of them as a list, for the entries that take either and give back the shape they were given."""
    if isinstance(x, (GaussianSection, CorrectedSection)):
        return [x], True
    xs = list(x)
    if not xs:
        raise ValueError("a stack takes at least one section")
    return xs, False


def vacuum(omega: SiegelPoint) -> GaussianSection:
    n = omega.n
    return GaussianSection(omega, np.zeros((n, n)), np.zeros(n), 0.0)


def coherent_state(alpha, omega: SiegelPoint) -> GaussianSection:
    """c_alpha = exp(conj(alpha)^T z - |z|^2/2); the reproducing family."""
    n = omega.n
    alpha = np.asarray(alpha, dtype=complex).reshape(n)
    return GaussianSection(omega, np.zeros((n, n)), np.conj(alpha), 0.0)


def fock_state(k: int, omega: SiegelPoint) -> GaussianSection:
    """|k> = z^k / sqrt(k!) exp(-|z|^2/2), orthonormal under the inner product."""
    if k < 0:
        raise ValueError(f"k must be >= 0, not {k}")
    return from_fock_coefficients(np.eye(1, k + 1, k)[0], omega)


def inner_product(psi1: GaussianSection, psi2: GaussianSection) -> complex:
    """<psi1, psi2> for sections sharing a frame; conjugate-linear on the left."""
    if not psi1.frame.close_to(psi2.frame, tol=1e-13):
        raise ValueError("sections live in different frames; use inner_product_cross_frame")
    return _pairing(psi1, psi2)


def inner_product_cross_frame(psi1: GaussianSection, psi2: GaussianSection) -> complex:
    """<psi1, psi2> with each section evaluated on V (or V/L-) in its own coordinates."""
    _same_space(psi1.frame, psi2.frame)
    return _pairing(psi1, psi2)


def _pairing(psi1: GaussianSection, psi2: GaussianSection) -> complex:
    """<psi1, psi2> once the caller has checked that the frames pair."""
    s1, l1, k1 = psi1.real_quadratic()
    s2, l2, k2 = psi2.real_quadratic()
    a = b = None
    if psi1.degree or psi2.degree:
        # polynomial factors are functions of z1 (conjugated) and z2 (n = 1)
        a, b = np.conj(psi1.frame.coord_matrix)[0], psi2.frame.coord_matrix[0]
    return _poly_gauss_pairing(
        np.conj(s1) + s2, np.conj(l1) + l2, np.conj(k1) + k2,
        a, b, np.conj(psi1.coeffs), psi2.coeffs,
    )


def norm(psi: GaussianSection) -> float:
    return float(np.sqrt(max(inner_product_cross_frame(psi, psi).real, 0.0)))


def bergman_project(psi: GaussianSection, omega_p: SiegelPoint) -> GaussianSection:
    """Orthogonal projection of a section onto the holomorphic space of Omega'.

    Applies the reproducing kernel exp(z'^T conj(z') - |z'|^2/2 - |z|^2/2) of
    the target frame; idempotent, and the identity on sections already
    holomorphic for Omega'.  A polynomial factor is pushed through the
    kernel along the source z-direction.
    """
    return _bergman(psi.frame, omega_p).apply(psi)


class _Kernel:
    """A Gaussian integral operator: p(z) exp((1/2) z^T m z + b^T z + c) over a frame with z = E v goes to the section
    exp((1/2) w^T k22 w - log_pref) (normalised) integral p(z) exp((1/2) v^T S v + (cross w + E^T b)^T v + c) dv
    over ``target`` in its coordinates w, S = sym(E^T m E - inner) - outer (one matrix for both moves the floors)."""

    def __init__(self, e, inner, outer, cross, target, k22=0.0):
        self.e, self.inner, self.outer, self.cross, self.target, self.k22 = e, inner, outer, cross, target, k22

    def apply(self, psi: GaussianSection, log_pref: complex = 0.0) -> GaussianSection:
        return self.apply_all([psi], [log_pref])[0]

    def apply_all(self, psis, log_prefs) -> list[GaussianSection]:
        """Sections over one frame object (else ValueError), each less its log_pref, through one ``kernel_apply_poly``
        and one check; several go as one ``_stack``, cut back to each input's degree (the rows are lower-triangular)."""
        e, st = self.e, _stack(psis)[0]
        with np.errstate(over="ignore", invalid="ignore"):  # finite data can overflow; kernel_apply_poly raises on it
            s, b = e.T @ st.m @ e - self.inner, st.b @ e
        s = 0.5 * (s + s.swapaxes(-1, -2)) - self.outer
        q, r, c, poly = kernel_apply_poly(s, self.cross, b, st.c, st.coeffs, e[0])
        return _sections(self.target, q + self.k22, r, c - np.reshape(log_prefs, np.shape(c)), poly, psis)


def _bergman(frame: Frame, omega_p: SiegelPoint) -> _Kernel:
    """The reproducing kernel of Omega' on sections over ``frame``: ``bergman_project``'s kernel."""
    _same_space(frame, omega_p)
    return _Kernel(frame.coord_matrix, frame.gram_matrix, omega_p.gram_matrix, omega_p.coord_matrix.conj().T, omega_p)


@dataclass(frozen=True)
class CorrectedSection:
    """A section tensored with the half-form of its frame, carried with a unit
    phase: sqrt(d^n z) over a point, the pushed sqrt(d^n x o g^{-1}) over a polarization."""

    section: GaussianSection
    halfform_phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(abs(self.halfform_phase) - 1.0) > 1e-12:
            raise ValueError("half-form coefficient must have unit modulus")
        object.__setattr__(self, "halfform_phase", complex(self.halfform_phase))

    @property
    def frame(self) -> Frame:
        return self.section.frame


def corrected_inner_product(a: CorrectedSection, b: CorrectedSection) -> complex:
    return np.conj(a.halfform_phase) * b.halfform_phase * inner_product_cross_frame(a.section, b.section)


# ---------------------------------------------------------------------------
# Fock expansion (n = 1)


@lru_cache(maxsize=16)
def _half_log_factorials(n: int) -> np.ndarray:
    """log sqrt(k!) for k < n, read-only, the Fock normalisation: k! overflows floats past k = 170."""
    out = 0.5 * np.array([lgamma(k + 1) for k in range(n)])
    out.flags.writeable = False
    return out


def fock_coefficients(psi: GaussianSection, n_trunc: int = N_TRUNC_DEFAULT) -> np.ndarray:
    """Coefficients <k|psi> for k < n_trunc, frame of psi (n = 1).

    With the unit-vacuum normalization the monomials satisfy
    <z^j, z^k>_{Gaussian} = k! delta_{jk}, so the coefficients are scaled
    Taylor coefficients of p(z) exp((1/2) m z^2 + b z).  ``n_trunc`` below 1 raises ValueError.
    """
    if psi.n != 1 or not isinstance(psi.frame, SiegelPoint):
        raise ValueError(f"Fock expansion implemented for n = 1 Kaehler frames, not {psi.frame!r}")
    if not n_trunc >= 1:
        raise ValueError(f"n_trunc must be at least 1, not {n_trunc}")
    full = taylor(psi.coeffs, psi.b[0], psi.m[0, 0], n_trunc) * np.exp(psi.c)
    # multiply by sqrt(k!) in log space, where neither factor overflows
    out = np.zeros(n_trunc, dtype=complex)
    k = np.flatnonzero(full)
    out[k] = np.exp(np.log(np.abs(full[k])) + _half_log_factorials(n_trunc)[k] + 1j * np.angle(full[k]))
    return out


def from_fock_coefficients(coeffs, omega: SiegelPoint) -> GaussianSection:
    """The section sum_k coeffs[k] |k> over omega (n = 1)."""
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    return GaussianSection(omega, [[0.0]], [0.0], 0.0, coeffs * np.exp(-_half_log_factorials(len(coeffs))))


# ---------------------------------------------------------------------------
# quadrature oracle


@lru_cache(maxsize=16)
def _hermite_table(nodes: int):
    """Gauss-Hermite nodes u and log weights log w + u^2, read-only.

    ValueError naming ``QUAD_NODES_MAX`` when a weight is not finite and positive.
    """
    with np.errstate(all="ignore"):
        u, w = hermgauss(nodes)
    if not (np.isfinite(w).all() and (w > 0).all()):
        raise ValueError(f"{nodes} Gauss-Hermite nodes lose their weights; at most {QUAD_NODES_MAX} are supported")
    logw = np.log(w) + u**2
    u.flags.writeable = False
    logw.flags.writeable = False
    return u, logw


@lru_cache(maxsize=8)
def _hermite_grid(nodes: int, dims: int):
    """(points, log weights, weights) of the tensor Gauss-Hermite grid over ``dims`` axes, read-only."""
    u, logw = _hermite_table(nodes)
    pts = np.stack([gr.ravel() for gr in np.meshgrid(*([u] * dims), indexing="ij")], axis=-1)
    lw = np.stack(np.meshgrid(*([logw] * dims), indexing="ij"), axis=-1).sum(-1).ravel()
    out = pts, lw, np.exp(lw)
    for arr in out:
        arr.flags.writeable = False
    return out


@dataclass(frozen=True)
class _LogQuadratic:
    """The integrand exp((1/2) v^T q v + l^T v + k), which the grid sums axis by axis."""

    q: np.ndarray
    l: np.ndarray
    k: complex

    def log(self, v) -> np.ndarray:
        return 0.5 * np.einsum("...i,ij,...j->...", v, self.q, v) + v @ self.l + self.k


def _placement(gram: np.ndarray) -> tuple:
    """(P, det P), P = G^{-1/2} for each G (..., m, m): the grid v = P u placed for the SPD envelope exp(-v^T G v)."""
    w_eig, v_eig = np.linalg.eigh(gram)
    if w_eig.min() <= 0:
        raise ValueError("gram matrix must be SPD")
    return (v_eig / np.sqrt(w_eig)[..., None, :]) @ v_eig.swapaxes(-1, -2), np.exp(-0.5 * np.log(w_eig).sum(-1))


def _principal_placement(fit: _LogQuadratic) -> tuple:
    """(P O, det P) for the fitted integrand: P whitens G = -(1/2) Re q, so
    q' = P q P has Re q' = -2 I, and the rotation O from eigh(Im q')
    diagonalises q' without moving the Hermite weight exp(-|u|^2)."""
    p, det = _placement(-0.5 * fit.q.real)
    return p @ np.linalg.eigh(p @ fit.q.imag @ p)[1], det


def _hermite_grid_sum(f, placement: tuple, nodes: int) -> complex:
    """Tensor-product Gauss-Hermite estimate of integral f against the
    normalised measure (2 pi)^{-m/2} dv over R^m, on the grid v = P u with
    ``placement`` = (P, det P) from ``_placement`` or ``_principal_placement``.
    That measure is the Liouville form (2 pi)^{-n} dx dy of a Kaehler frame
    and (2 pi)^{-n/2} du of a polarization.

    A ``_LogQuadratic`` f placed on its principal axes has q'' = P^T q P
    diagonal, so the sum over nodes^m points is the product of m one-axis
    sums.  A callable f is evaluated at every grid point, up to two dimensions
    for a stack of placements (k, m, m) at once; above two in slices along
    the first axis to bound memory.  Summation order is fixed by the grid
    layout, so results are bit-identical for a given configuration.
    """
    p, det = placement
    m = p.shape[-1]
    u, logw = _hermite_table(nodes)
    if isinstance(f, _LogQuadratic):
        diag = np.einsum("ji,jk,ki->i", p, f.q, p)
        phi = np.exp(0.5 * diag[:, None] * u**2 + (f.l @ p)[:, None] * u + logw)
        total = complex(np.prod(phi.sum(axis=1))) * np.exp(f.k)
    elif m <= 2:
        pts, _, w = _hermite_grid(nodes, m)
        total = (f(pts @ p.swapaxes(-1, -2)) * w).sum(-1)
    else:
        pts, lw, _ = _hermite_grid(nodes, m - 1)
        total = 0.0 + 0.0j
        for uj, lj in zip(u, logw):
            sl = np.concatenate([np.full((pts.shape[0], 1), uj), pts], axis=1)
            total += complex((f(sl @ p.T) * np.exp(lj + lw)).sum())
    return total * det * (2 * np.pi) ** (-0.5 * m)


def _envelope_form(psi: GaussianSection) -> np.ndarray:
    """A with |psi(v)| ~ exp(-(1/2) v^T A v); A is SPD for integrable sections."""
    s, _, _ = psi.real_quadratic()
    return -s.real


# fixed points at which the fitted log-quadratic must reproduce the probed log values
_FIT_CHECKS = np.array(
    [[0.5, -1.5, 1.0, 0.25, -0.75, 1.5], [-1.0, 0.75, -0.5, 2.0, 1.25, -0.25], [1.25, 1.0, -2.0, -0.75, 0.5, 1.0]]
)


def _fit_log_quadratic(psi1: GaussianSection, psi2: GaussianSection) -> _LogQuadratic | None:
    """conj(psi1) psi2 of degree-0 sections as exp((1/2) v^T q v + l^T v + k).

    Fitted from ``log_value`` alone at v = 0, +-e_i and e_i + e_j (i < j),
    1 + 2m + m(m-1)/2 probes for m = 2n; None when a probe is not finite or
    the fit misses a check point.
    """
    m = 2 * psi1.n
    eye = np.eye(m)
    i, j = np.triu_indices(m, 1)
    checks = _FIT_CHECKS[:, :m]
    pts = np.vstack([np.zeros((1, m)), eye, -eye, eye[i] + eye[j], checks])
    h = np.conj(psi1.log_value(pts)) + psi2.log_value(pts)
    if not np.isfinite(h).all():
        return None
    k, plus, minus, cross = h[0], h[1 : m + 1], h[m + 1 : 2 * m + 1], h[2 * m + 1 : 2 * m + 1 + len(i)]
    lin = 0.5 * (plus - minus)
    diag = plus + minus - 2.0 * k
    q = np.diag(diag)
    q[i, j] = q[j, i] = cross - k - lin[i] - lin[j] - 0.5 * (diag[i] + diag[j])
    fit = _LogQuadratic(q, lin, k)
    miss = np.abs(fit.log(checks) - h[-len(checks) :]).max()
    return fit if miss <= 1e-10 * (1.0 + np.abs(h).max()) else None


def oracle_inner_product(psi1: GaussianSection, psi2: GaussianSection, nodes: int = QUAD_NODES_DEFAULT) -> complex:
    """Brute-force <psi1, psi2> by quadrature; independent of the closed forms.

    For two degree-0 sections the integrand's log-quadratic is fitted from
    pointwise ``log_value`` probes, and the grid, placed on the integrand's
    principal axes, is summed as one product of one-axis sums.  Polynomial
    sections, non-finite probes and a failed fit evaluate the integrand at
    every point of a grid placed for its mean envelope, n <= 2 only.  Either
    grid fits the integrand's own Gaussian envelope, which for strongly
    squeezed sections is much wider than the frame Gaussian.  Kaehler frames with n <= 3 only."""
    _require_frame("the quadrature oracle", SiegelPoint, psi1, psi2)
    _same_space(psi1.frame, psi2.frame)
    if psi1.n > 3:
        raise ValueError("the oracle checks its fit for n <= 3 only")
    fit = None if psi1.degree or psi2.degree else _fit_log_quadratic(psi1, psi2)
    if fit is not None:
        return _hermite_grid_sum(fit, _principal_placement(fit), nodes)
    if psi1.n > 2:
        raise ValueError("the tensor-product grid of every point is practical for n <= 2 only")
    g = 0.5 * (_envelope_form(psi1) + _envelope_form(psi2))

    def f(v):
        return np.conj(psi1.value(v)) * psi2.value(v)

    return _hermite_grid_sum(f, _placement(g), nodes)


def _with_phase(x) -> tuple:
    """(section, half-form phase) of a plain or corrected section."""
    return (x.section, x.halfform_phase) if isinstance(x, CorrectedSection) else (x, 1.0 + 0.0j)


def _log1p(w: np.ndarray) -> np.ndarray:
    """Complex log(1 + w) without forming 1 + w, which numpy's log1p does,
    dropping the low bits of a small w."""
    return 0.5 * np.log1p(2.0 * w.real + np.abs(w) ** 2) + 1j * np.arctan2(w.imag, 1.0 + w.real)


def _log_gauss_ratio(s0, x0, e, f, kappa) -> complex:
    """log I(S0 + E, l0 + f, k0 + kappa) - log I(S0, l0, k0), from the differences alone.

    I(S, l, k) is (2 pi)^{-n} integral exp((1/2) v^T S v + l^T v + k) dv and
    x0 = S0^{-1} l0.  The log-det part is a log1p sum over the eigenvalues of
    S0^{-1} E, and the linear part is 2 f^T x0 - x0^T E x0 + g^T (S0 + E)^{-1} g
    with g = f - E x0, so the terms of order one never appear.  x0 and f are
    columns (..., m, 1), with or without a leading stack axis.
    """
    logdet = _log1p(np.linalg.eigvals(np.linalg.solve(s0, e))).sum(-1)
    g = f - e @ x0
    x0t = x0.swapaxes(-1, -2)
    lin = 2.0 * (x0t @ f) - x0t @ e @ x0 + np.linalg.solve(s0 + e, g).swapaxes(-1, -2) @ g
    return -0.5 * logdet - 0.5 * lin[..., 0, 0] + kappa


def difference_norm(a, b):
    """|| a - b || for plain or corrected sections, free of cancellation.

    For degree-0 sections, h = (1/2) log(||b||^2 / ||a||^2) and
    d = log <a, b> - log ||a||^2 - h come from the differences of
    ``real_quadratic`` (half-form phases folded into k) alone, and
    ||a - b||^2 / ||a||^2 = expm1(h)^2 + 2 e^h (-expm1(Re d) cos Im d + 2 sin^2(Im d / 2)).
    Equal inputs give exactly 0, on Kaehler frames and polarizations alike.
    Polynomial sections (n = 1) evaluate the difference pointwise on a
    Gauss-Hermite grid placed for the real envelopes: 48 nodes per axis on a
    Kaehler frame, and 300 on a polarization's one axis, where two unrelated
    Gaussian parts leave a chirp exp(i (Im m_a - Im m_b) u^2 / 2) in the cross term.
    A norm past the float range raises ``NonFiniteError``.

    Two sequences of as many sections, each over one frame object (else ValueError), give the list of the pairs'
    norms: the degree-0 pairs as one stack, the polynomial pairs over a polarization as one stack on one grid, those
    over a Kaehler frame one by one, as array work, not calls, bounds their 48^2 grid.
    """
    (xs, one), ys = _as_stack(a), _as_stack(b)[0]
    pairs = [(_with_phase(x)[0], _with_phase(y)[0]) for x, y in zip(xs, ys, strict=True)]
    poly = [i for i, (x, y) in enumerate(pairs) if x.degree or y.degree]
    groups = [[i for i in range(len(xs)) if i not in poly]]
    groups += [poly] if isinstance(pairs[0][0].frame, BoundaryPolarization) else [[i] for i in poly]
    out = {}
    for group in filter(None, groups):
        out.update(zip(group, _norms(*_stack([xs[i] for i in group]), *_stack([ys[i] for i in group]))))
    return out[0] if one else [out[i] for i in range(len(xs))]


def _norms(pa: GaussianSection, ha, pb: GaussianSection, hb, nodes: int | None = None) -> list[float]:
    """|| a - b || of the sections or ``_stack``s pa and pb times their half-form phases: the closed form for pairs
    of degree 0; the others (all, given ``nodes``) take the difference at common points of a grid of ``nodes`` per
    axis, by default 300 over a polarization and 48 over a Kaehler frame, before squaring."""
    _same_space(pa.frame, pb.frame)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
        if nodes or pa.degree or pb.degree:
            polar = isinstance(pa.frame, BoundaryPolarization)
            # on a Kaehler frame half the mean envelope, valid (wider) for both terms
            # when they are comparable; on a polarization the mean envelope of |a - b|^2
            g = (0.5 if polar else 0.25) * (_envelope_form(pa) + _envelope_form(pb))
            ha, hb = (ha[:, None], hb[:, None]) if np.ndim(ha) else (ha, hb)
            total = _hermite_grid_sum(lambda v: np.abs(pa.value(v) * ha - pb.value(v) * hb) ** 2, _placement(g),
                                      nodes or (300 if polar else 48))
            out = np.sqrt(np.maximum(total.real, 0.0))
        else:
            (sa, la, ka), (sb, lb, kb) = pa.real_quadratic(), pb.real_quadratic()
            s0 = 2.0 * sa.real
            x0 = np.linalg.solve(s0, 2.0 * la.real[..., None])
            log_aa = -0.5 * np.linalg.slogdet(-s0)[1] - (la.real[..., None, :] @ x0)[..., 0, 0] + 2.0 * ka.real
            d, e, dk = sb - sa, (lb - la)[..., None], (kb - ka) + (np.log(hb) - np.log(ha))
            h = 0.5 * _log_gauss_ratio(s0, x0, 2.0 * d.real, 2.0 * e.real, 2.0 * dk.real).real
            delta = _log_gauss_ratio(s0, x0, d, e, dk) - h
            rel = np.expm1(h) ** 2 + 2.0 * np.exp(h) * (
                -np.expm1(delta.real) * np.cos(delta.imag) + 2.0 * np.sin(0.5 * delta.imag) ** 2
            )
            out = np.sqrt(np.maximum(rel, 0.0)) * np.exp(0.5 * log_aa)
    out = out.tolist() if isinstance(out, np.ndarray) else [float(out)]
    if not all(map(isfinite, out)):
        raise NonFiniteError("|| a - b || is not finite: the sections overflow")
    return out


# ---------------------------------------------------------------------------
# serialization


def _complex_array_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _real_array(value, field: str, ndim: int) -> np.ndarray:
    """``value`` as a finite real array of ``ndim`` dimensions; ValueError naming the field."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.ndim != ndim or not np.isfinite(arr).all():
        raise ValueError(f"{field} must be a {ndim}-dimensional array of finite numbers")
    return arr


def _point_from_json(point, field: str) -> SiegelPoint:
    """A point from {"omega1": ..., "omega2": ...}; ValueError naming the field."""
    if not isinstance(point, dict) or not {"omega1", "omega2"} <= point.keys():
        raise ValueError(f"{field} must be an object with omega1 and omega2")
    omega1, omega2 = (_real_array(point[key], f"{field}.{key}", 2) for key in ("omega1", "omega2"))
    try:
        return SiegelPoint(omega1, omega2)
    except ValueError as exc:
        raise ValueError(f"{field} rejected: {exc}") from exc


def _complex_array_from_json(data, field: str, shape: tuple) -> np.ndarray:
    """[re, im] pairs as a complex array of ``shape``; a None entry allows any
    positive length."""
    arr = _real_array(data, field, len(shape) + 1)
    want = tuple(max(got, 1) if w is None else w for w, got in zip(shape, arr.shape))
    if arr.shape != (*want, 2):
        raise ValueError(f"{field} must hold [re, im] pairs of shape {shape}")
    return arr[..., 0] + 1j * arr[..., 1]


def section_to_json(psi: GaussianSection) -> dict:
    _require_frame("section_to_json", SiegelPoint, psi)
    out = {
        "frame": psi.frame.to_json(),
        "M": _complex_array_to_json(psi.m),
        "b": _complex_array_to_json(psi.b),
        "c": _complex_array_to_json(psi.c),
    }
    if psi.degree:
        out["poly"] = _complex_array_to_json(psi.coeffs)
    return out


def section_from_json(data) -> GaussianSection:
    """Inverse of ``section_to_json``; malformed data raises ValueError naming the field."""
    if not isinstance(data, dict):
        raise ValueError("section must be an object with frame, M, b and c")
    for key in ("frame", "M", "b", "c"):
        if key not in data:
            raise ValueError(f"section.{key} is missing")
    frame = _point_from_json(data["frame"], "section.frame")
    n = frame.n
    m = _complex_array_from_json(data["M"], "section.M", (n, n))
    b = _complex_array_from_json(data["b"], "section.b", (n,))
    c = complex(_complex_array_from_json(data["c"], "section.c", ()))
    poly = _complex_array_from_json(data["poly"], "section.poly", (None,)) if "poly" in data else np.ones(1)
    if not poly.any():
        raise ValueError("section.poly must not be all zero")
    try:
        return GaussianSection(frame, m, b, c, poly)
    except (ValueError, NotIntegrableError) as exc:
        # shapes are parsed above; the constructor checks the degree first, then M
        field = "section.poly" if n > 1 and len(poly) > 1 else "section.M"
        raise ValueError(f"{field} rejected: {exc}") from exc
