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

Closed forms reduce to one complex Gaussian integral; an independent
Gauss-Hermite quadrature oracle guards every frozen formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lgamma

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._gaussint import _poly_gauss_pairing, exp_bivariate_series, kernel_apply_poly
from ._point import SiegelPoint
from .errors import (
    NonFiniteError,
    NotIntegrableError,
    PolarizationMismatchError,
)
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


def _finite(arr: np.ndarray) -> bool:
    """No inf or NaN entry: z - z is 0 exactly for finite z and NaN otherwise.

    On the few entries of a section this is several times faster than
    np.isfinite(arr).all(), and constructors run in every kernel."""
    return all(z - z == 0 for z in arr.ravel().tolist())


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
        m = np.atleast_2d(np.asarray(self.m, dtype=complex))
        b = np.asarray(self.b, dtype=complex).reshape(n).copy()
        if m.shape != (n, n):
            raise ValueError(f"m must be {n} x {n}")
        amax = np.abs(m).max()
        c = complex(self.c)
        for name, ok in (("m", amax < np.inf), ("b", _finite(b)), ("c", c - c == 0), ("coeffs", _finite(coeffs))):
            if not ok:
                raise NonFiniteError(f"section {name} is not finite")
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, amax):
            raise ValueError("m must be symmetric")
        half = 0.5 * m  # halved first: m + m.T overflows for entries above ~9e307
        m = half + half.T
        self.frame.check_integrable(m)
        if coeffs.size == 1 and coeffs[0] != 1.0:
            c, coeffs = c + complex(np.log(coeffs[0])), np.ones(1, dtype=complex)
            if not np.isfinite(c):
                raise NonFiniteError("section coeffs fold to log 0")
        for arr in (m, b, coeffs):
            arr.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def n(self) -> int:
        return self.frame.n

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def real_quadratic(self):
        """(S, l, k) with value(v) = p(z(v)) exp((1/2) v^T S v + l^T v + k)."""
        e = self.frame.coord_matrix
        s = e.T @ self.m @ e - self.frame.gram_matrix
        return 0.5 * (s + s.T), e.T @ self.b, self.c

    def _exponent(self, v) -> tuple:
        """(z, (1/2) z^T m z + b^T z + c - w |z|^2 / 2) at z = E v."""
        z = np.asarray(v, dtype=float) @ self.frame.coord_matrix.T
        quad = 0.5 * np.einsum("...i,ij,...j->...", z, self.m, z)
        lin = z @ self.b
        norm2 = 0.5 * self.frame.weight * np.einsum("...i,...i->...", np.conj(z), z).real
        return z, quad + lin + self.c - norm2

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
            out = np.polynomial.polynomial.polyval(z[..., 0], self.coeffs) * out
        return out

    def scaled(self, factor: complex) -> "GaussianSection":
        return GaussianSection(self.frame, self.m, self.b, self.c + np.log(complex(factor)), self.coeffs)


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
    return _project(psi, omega_p, 0.0)


def _project(psi: GaussianSection, omega_p: SiegelPoint, log_scale: float) -> GaussianSection:
    """``bergman_project(psi, omega_p)`` times exp(log_scale), built once."""
    _same_space(psi.frame, omega_p)
    s_psi, l_psi, k_psi = psi.real_quadratic()
    gen_dir = psi.frame.coord_matrix[0] if psi.degree else None
    q, r, c, poly = kernel_apply_poly(
        s_psi - omega_p.gram_matrix, omega_p.coord_matrix.conj().T, l_psi, k_psi, psi.coeffs, gen_dir
    )
    return GaussianSection(omega_p, q, r, c + log_scale, poly)


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

    def combined_value(self, v) -> np.ndarray:
        return self.section.value(v) * self.halfform_phase


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
    Taylor coefficients of p(z) exp((1/2) m z^2 + b z).
    """
    if psi.n != 1 or not isinstance(psi.frame, SiegelPoint):
        raise ValueError(f"Fock expansion implemented for n = 1 Kaehler frames, not {psi.frame!r}")
    series = exp_bivariate_series(complex(psi.b[0]), 0.0, complex(psi.m[0, 0]), 0.0, 0.0, n_trunc - 1, 0)
    full = np.convolve(psi.coeffs, series[:, 0])[:n_trunc] * np.exp(psi.c)
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


@dataclass(frozen=True)
class _LogQuadratic:
    """The integrand exp((1/2) v^T q v + l^T v + k), which the grid sums axis by axis."""

    q: np.ndarray
    l: np.ndarray
    k: complex

    def log(self, v) -> np.ndarray:
        return 0.5 * np.einsum("...i,ij,...j->...", v, self.q, v) + v @ self.l + self.k


def _eliminate(phi: list, pair: dict) -> complex:
    """sum over a of prod_i phi[i][a_i] prod_{i<j} pair[i, j][a_i, a_j] by variable
    elimination: one first-axis slice at a time down to three axes, which take one GEMM."""
    m = len(phi)
    if m == 2:
        return complex(phi[0] @ pair[0, 1] @ phi[1])
    if m == 3:
        # t[a, b] = sum_c pair[0, 2][a, c] phi[2][c] pair[1, 2][b, c]
        t = (pair[0, 2] * phi[2]) @ pair[1, 2].T
        return complex(phi[0] @ (pair[0, 1] * t) @ phi[1])
    rest = {(i - 1, j - 1): p for (i, j), p in pair.items() if i}
    total = 0j
    for a, phi0 in enumerate(phi[0]):
        total += phi0 * _eliminate([phi[j] * pair[0, j][a] for j in range(1, m)], rest)
    return total


def _hermite_grid_sum(f, gram: np.ndarray, nodes: int) -> complex:
    """Tensor-product Gauss-Hermite estimate of integral f against the
    normalised measure (2 pi)^{-m/2} dv over R^m, with the grid placed for the
    SPD envelope exp(-v^T G v).  That measure is the Liouville form
    (2 pi)^{-n} dx dy of a Kaehler frame and (2 pi)^{-n/2} du of a polarization.

    A ``_LogQuadratic`` f is summed over the grid as one-axis factors times
    pairwise factors exp(q_ij u_a u_b), with working arrays of nodes^2.  A
    callable f is evaluated at every grid point; above two dimensions in
    slices along the first axis to bound memory.  Summation
    order is fixed by the grid layout, so results are bit-identical for a
    given configuration.
    """
    m = gram.shape[0]
    w_eig, v_eig = np.linalg.eigh(gram)
    if w_eig.min() <= 0:
        raise ValueError("gram matrix must be SPD")
    ginv_half = (v_eig / np.sqrt(w_eig)) @ v_eig.T
    u, logw = _hermite_table(nodes)
    if isinstance(f, _LogQuadratic):
        # in grid coordinates v = G^{-1/2} u
        q, lin = ginv_half @ f.q @ ginv_half, ginv_half @ f.l
        phi = np.exp(0.5 * np.diag(q)[:, None] * u**2 + lin[:, None] * u + logw)
        uu = np.multiply.outer(u, u)
        pair = {(i, j): np.exp(q[i, j] * uu) for i in range(m) for j in range(i + 1, m)}
        total = _eliminate(list(phi), pair) * np.exp(f.k)
    else:
        head = m if m <= 2 else m - 1
        grids = np.meshgrid(*([u] * head), indexing="ij")
        pts = np.stack([gr.ravel() for gr in grids], axis=-1)
        lw = np.stack(np.meshgrid(*([logw] * head), indexing="ij"), axis=-1).sum(-1).ravel()
        if m <= 2:
            total = complex((f(pts @ ginv_half.T) * np.exp(lw)).sum())
        else:
            total = 0.0 + 0.0j
            for uj, lj in zip(u, logw):
                sl = np.concatenate([np.full((pts.shape[0], 1), uj), pts], axis=1)
                total += complex((f(sl @ ginv_half.T) * np.exp(lj + lw)).sum())
    return total * np.exp(-0.5 * float(np.sum(np.log(w_eig)))) * (2 * np.pi) ** (-0.5 * m)


def _envelope_form(psi: GaussianSection) -> np.ndarray:
    """A with |psi(v)| ~ exp(-(1/2) v^T A v); A is SPD for integrable sections."""
    s, _, _ = psi.real_quadratic()
    return -s.real


# fixed points at which the fitted log-quadratic must reproduce the probed log values
_FIT_CHECKS = np.array([[0.5, -1.5, 1.0, 0.25], [-1.0, 0.75, -0.5, 2.0], [1.25, 1.0, -2.0, -0.75]])


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
    pointwise ``log_value`` probes, and the grid is summed factor by factor.
    Polynomial sections, non-finite probes and a failed fit evaluate the
    integrand at every grid point.  The grid is placed for the integrand's
    own Gaussian envelope, which for strongly squeezed sections is much
    wider than the frame Gaussian.  Kaehler frames with n <= 2 only."""
    _require_frame("the quadrature oracle", SiegelPoint, psi1, psi2)
    _same_space(psi1.frame, psi2.frame)
    if psi1.n > 2:
        raise ValueError("the tensor-product grid is practical for n <= 2 only")
    fit = None if psi1.degree or psi2.degree else _fit_log_quadratic(psi1, psi2)
    if fit is not None:
        return _hermite_grid_sum(fit, -0.5 * fit.q.real, nodes)
    g = 0.5 * (_envelope_form(psi1) + _envelope_form(psi2))

    def f(v):
        return np.conj(psi1.value(v)) * psi2.value(v)

    return _hermite_grid_sum(f, g, nodes)


def _with_phase(x) -> tuple:
    """(section, half-form phase) of a plain or corrected section."""
    return (x.section, x.halfform_phase) if isinstance(x, CorrectedSection) else (x, 1.0)


def _log1p(w: np.ndarray) -> np.ndarray:
    """Complex log(1 + w) without forming 1 + w, which numpy's log1p does,
    dropping the low bits of a small w."""
    return 0.5 * np.log1p(2.0 * w.real + np.abs(w) ** 2) + 1j * np.arctan2(w.imag, 1.0 + w.real)


def _log_gauss_ratio(s0, x0, e, f, kappa) -> complex:
    """log I(S0 + E, l0 + f, k0 + kappa) - log I(S0, l0, k0), from the differences alone.

    I(S, l, k) is (2 pi)^{-n} integral exp((1/2) v^T S v + l^T v + k) dv and
    x0 = S0^{-1} l0.  The log-det part is a log1p sum over the eigenvalues of
    S0^{-1} E, and the linear part is 2 f^T x0 - x0^T E x0 + g^T (S0 + E)^{-1} g
    with g = f - E x0, so the terms of order one never appear.
    """
    logdet = _log1p(np.linalg.eigvals(np.linalg.solve(s0, e))).sum()
    g = f - e @ x0
    lin = 2.0 * f @ x0 - x0 @ e @ x0 + g @ np.linalg.solve(s0 + e, g)
    return -0.5 * logdet - 0.5 * lin + kappa


def difference_norm(a, b) -> float:
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
    """
    (pa, ha), (pb, hb) = _with_phase(a), _with_phase(b)
    _same_space(pa.frame, pb.frame)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite norm raises below
        if pa.degree or pb.degree:
            out = _difference_norm_pointwise(a, b, 300 if isinstance(pa.frame, BoundaryPolarization) else 48)
        else:
            sa, la, ka = pa.real_quadratic()
            sb, lb, kb = pb.real_quadratic()
            s0 = 2.0 * sa.real
            x0 = np.linalg.solve(s0, 2.0 * la.real)
            log_aa = -0.5 * np.linalg.slogdet(-s0)[1] - la.real @ x0 + 2.0 * ka.real
            d, e = sb - sa, lb - la
            dk = (kb - ka) + (np.log(complex(hb)) - np.log(complex(ha)))
            h = 0.5 * _log_gauss_ratio(s0, x0, 2.0 * d.real, 2.0 * e.real, 2.0 * dk.real).real
            delta = _log_gauss_ratio(s0, x0, d, e, dk) - h
            rel = np.expm1(h) ** 2 + 2.0 * np.exp(h) * (
                -np.expm1(delta.real) * np.cos(delta.imag) + 2.0 * np.sin(0.5 * delta.imag) ** 2
            )
            out = float(np.sqrt(max(rel, 0.0)) * np.exp(0.5 * log_aa))
    if not np.isfinite(out):
        raise NonFiniteError("|| a - b || is not finite: the sections overflow")
    return out


def _difference_norm_pointwise(a, b, nodes: int) -> float:
    """|| a - b || with the difference evaluated at common grid points before
    squaring; the reference for ``difference_norm``."""
    (pa, ha), (pb, hb) = _with_phase(a), _with_phase(b)
    # on a Kaehler frame half the mean envelope, valid (wider) for both terms
    # when they are comparable; on a polarization the mean envelope of |a - b|^2
    spread = 0.5 if isinstance(pa.frame, BoundaryPolarization) else 0.25
    g = spread * (_envelope_form(pa) + _envelope_form(pb))

    def f(v):
        return np.abs(pa.value(v) * ha - pb.value(v) * hb) ** 2

    return float(np.sqrt(max(_hermite_grid_sum(f, g, nodes).real, 0.0)))


# ---------------------------------------------------------------------------
# serialization


def _complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


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
    return SiegelPoint(
        _real_array(point["omega1"], f"{field}.omega1", 2),
        _real_array(point["omega2"], f"{field}.omega2", 2),
    )


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
        "c": _complex_to_json(psi.c),
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
