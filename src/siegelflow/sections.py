"""Polarized sections and their closed-form Gaussian calculus.

In the holomorphic coordinates z = (2 Omega2)^{-1/2} (x - conj(Omega) y) a
polarized section is phi(z) exp(-|z|^2 / 2) with phi entire.  The Gaussian
family phi = exp((1/2) z^T M z + b^T z + c), ||M|| < 1, is closed under
every operation in this library; polynomial-times-Gaussian sections (n = 1)
cover the Fock basis |k> = z^k / sqrt(k!) exp(-|z|^2 / 2).

All inner products are taken in the ambient space of square-integrable
functions on R^{2n} against the Liouville form, normalized so that the
vacuum of every frame has unit norm:

    <psi1, psi2> = (2 pi)^{-n} integral conj(psi1) psi2 dx dy.

Closed forms reduce to one complex Gaussian integral; an independent
Gauss-Hermite quadrature oracle guards every frozen formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from ._gaussint import (
    exp_bivariate_series,
    exp_series,
    gauss_log_integral,
    generating_poly,
    integrate_out,
)
from ._point import SiegelPoint
from .errors import (
    GridTooCoarseError,
    NonTransverseError,
    NotIntegrableError,
)
from .siegel import LagrangianFrame

N_TRUNC_DEFAULT = 32
QUAD_NODES_DEFAULT = 64
GAUSSIAN_NORM_MARGIN = 1e-9
LOG2PI = float(np.log(2 * np.pi))


def coord_matrix(omega: SiegelPoint) -> np.ndarray:
    """E with z(v) = E v for stacked real v = (x, y); shape (n, 2n)."""
    half = omega.imag_inv_sqrt() / np.sqrt(2.0)
    return np.hstack([half, -half @ np.conj(omega.omega)])


def gram_matrix(omega: SiegelPoint) -> np.ndarray:
    """Real symmetric G with |z(v)|^2 = v^T G v."""
    e = coord_matrix(omega)
    return (e.conj().T @ e).real


@dataclass(frozen=True)
class GaussianSection:
    """exp((1/2) z^T m z + b^T z + c) exp(-|z|^2/2) in the frame's coordinates."""

    frame: SiegelPoint
    m: np.ndarray
    b: np.ndarray
    c: complex

    def __post_init__(self):
        n = self.frame.n
        m = np.atleast_2d(np.asarray(self.m, dtype=complex)).copy()
        b = np.asarray(self.b, dtype=complex).reshape(n).copy()
        if m.shape != (n, n):
            raise ValueError(f"m must be {n} x {n}")
        if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
            raise ValueError("m must be symmetric")
        m = 0.5 * (m + m.T)
        if np.linalg.norm(m, 2) >= 1.0 - GAUSSIAN_NORM_MARGIN:
            raise NotIntegrableError("||m|| must stay below 1 for square-integrability")
        m.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", complex(self.c))

    @property
    def n(self) -> int:
        return self.frame.n

    def real_quadratic(self):
        """(S, l, k) with value(v) = exp((1/2) v^T S v + l^T v + k)."""
        e = coord_matrix(self.frame)
        s = e.T @ self.m @ e - gram_matrix(self.frame)
        return 0.5 * (s + s.T), e.T @ self.b, self.c

    def value(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        z = v @ coord_matrix(self.frame).T
        quad = 0.5 * np.einsum("...i,ij,...j->...", z, self.m, z)
        lin = z @ self.b
        norm2 = 0.5 * np.einsum("...i,...i->...", np.conj(z), z).real
        return np.exp(quad + lin + self.c - norm2)

    def scaled(self, factor: complex) -> "GaussianSection":
        return GaussianSection(self.frame, self.m, self.b, self.c + np.log(complex(factor)))


@dataclass(frozen=True)
class PolyFockSection:
    """p(z) exp((1/2) m z^2 + b z + c) exp(-|z|^2/2), one degree of freedom."""

    frame: SiegelPoint
    coeffs: np.ndarray
    m: complex = 0.0
    b: complex = 0.0
    c: complex = 0.0

    def __post_init__(self):
        if self.frame.n != 1:
            raise ValueError("polynomial sections are supported for n = 1 only")
        coeffs = np.atleast_1d(np.asarray(self.coeffs, dtype=complex)).copy()
        if abs(self.m) >= 1.0 - GAUSSIAN_NORM_MARGIN:
            raise NotIntegrableError("|m| must stay below 1")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "m", complex(self.m))
        object.__setattr__(self, "b", complex(self.b))
        object.__setattr__(self, "c", complex(self.c))

    @property
    def n(self) -> int:
        return 1

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def gaussian_part(self) -> GaussianSection:
        return GaussianSection(self.frame, [[self.m]], [self.b], self.c)

    def value(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        z = (v @ coord_matrix(self.frame).T)[..., 0]
        poly = np.polynomial.polynomial.polyval(z, self.coeffs)
        base = GaussianSection(self.frame, [[self.m]], [self.b], self.c).value(v)
        return poly * base


Section = GaussianSection | PolyFockSection


def vacuum(omega: SiegelPoint) -> GaussianSection:
    n = omega.n
    return GaussianSection(omega, np.zeros((n, n)), np.zeros(n), 0.0)


def coherent_state(alpha, omega: SiegelPoint) -> GaussianSection:
    """c_alpha = exp(conj(alpha)^T z - |z|^2/2); the reproducing family."""
    n = omega.n
    alpha = np.asarray(alpha, dtype=complex).reshape(n)
    return GaussianSection(omega, np.zeros((n, n)), np.conj(alpha), 0.0)


def fock_state(k: int, omega: SiegelPoint, n_trunc: int = N_TRUNC_DEFAULT) -> PolyFockSection:
    """|k> = z^k / sqrt(k!) exp(-|z|^2/2), orthonormal under the inner product."""
    from math import factorial

    if not 0 <= k < n_trunc:
        raise ValueError(f"k must lie in [0, {n_trunc})")
    coeffs = np.zeros(k + 1, dtype=complex)
    coeffs[k] = 1.0 / np.sqrt(float(factorial(k)))
    return PolyFockSection(omega, coeffs)


def _poly_coeffs(psi: Section) -> np.ndarray:
    if isinstance(psi, PolyFockSection):
        return psi.coeffs
    return np.array([1.0 + 0.0j])


def _gaussian_data(psi: Section):
    if isinstance(psi, PolyFockSection):
        return psi.gaussian_part().real_quadratic()
    return psi.real_quadratic()


def inner_product(psi1: Section, psi2: Section) -> complex:
    """<psi1, psi2> for sections sharing a frame; conjugate-linear on the left."""
    if not psi1.frame.close_to(psi2.frame, tol=1e-13):
        raise ValueError("sections live in different frames; use inner_product_cross_frame")
    return inner_product_cross_frame(psi1, psi2)


def inner_product_cross_frame(psi1: Section, psi2: Section) -> complex:
    """<psi1, psi2> with each section evaluated on V in its own coordinates."""
    s1, l1, k1 = _gaussian_data(psi1)
    s2, l2, k2 = _gaussian_data(psi2)
    s = np.conj(s1) + s2
    ell = np.conj(l1) + l2
    k = np.conj(k1) + k2
    n = psi1.n
    p1, p2 = _poly_coeffs(psi1), _poly_coeffs(psi2)
    if len(p1) == 1 and len(p2) == 1:
        log = gauss_log_integral(s, ell, k) - n * LOG2PI
        return np.conj(p1[0]) * p2[0] * np.exp(log)
    if n != 1:
        raise ValueError("polynomial sections require n = 1")
    a = np.conj(coord_matrix(psi1.frame))[0]  # conj(z1) direction
    bdir = coord_matrix(psi2.frame)[0]
    base = np.exp(gauss_log_integral(s, ell, k) - n * LOG2PI)
    x0 = np.linalg.solve(s, ell)
    xa = np.linalg.solve(s, a)
    xb = np.linalg.solve(s, bdir)
    series = exp_bivariate_series(
        -a @ x0, -bdir @ x0, -a @ xa, -a @ xb, -bdir @ xb,
        len(p1) - 1, len(p2) - 1,
    )
    from math import factorial

    total = 0.0 + 0.0j
    for j in range(len(p1)):
        for k2i in range(len(p2)):
            total += (
                np.conj(p1[j]) * p2[k2i]
                * float(factorial(j)) * float(factorial(k2i))
                * series[j, k2i]
            )
    return total * base


def norm(psi: Section) -> float:
    return float(np.sqrt(max(inner_product_cross_frame(psi, psi).real, 0.0)))


def bergman_project(psi: Section, omega_p: SiegelPoint) -> Section:
    """Orthogonal projection of a section onto the holomorphic space of Omega'.

    Applies the reproducing kernel exp(z'^T conj(z') - |z'|^2/2 - |z|^2/2) of
    the target frame; idempotent, and the identity on sections already
    holomorphic for Omega'.
    """
    ep = coord_matrix(omega_p)
    gp = gram_matrix(omega_p)
    s_psi, l_psi, k_psi = _gaussian_data(psi)
    s = s_psi - gp
    poly = _poly_coeffs(psi)
    if len(poly) == 1:
        q, r, sc = integrate_out(s, ep.conj().T, l_psi, k_psi)
        return GaussianSection(omega_p, q, r, sc + np.log(poly[0]) - psi.n * LOG2PI)
    # polynomial input (n = 1): generating parameter along the source z-direction
    a = coord_matrix(psi.frame)[0]
    lmat = np.column_stack([a, ep.conj().T[:, 0]])
    q, r, sc = integrate_out(s, lmat, l_psi, k_psi)
    out = np.zeros(len(poly), dtype=complex)
    for k, pk in enumerate(poly):
        if pk != 0:
            term = generating_poly(r[0], q[0, 0], q[0, 1], k)
            out[: k + 1] += pk * term
    return PolyFockSection(omega_p, out, q[1, 1], r[1], sc - LOG2PI)


# ---------------------------------------------------------------------------
# half-forms


@dataclass(frozen=True)
class HalfFormFrame:
    """sqrt(d^n z_Omega) or the boundary frames sqrt(d^n x), sqrt(d^n y),
    carried with a unit phase coefficient."""

    base: SiegelPoint | LagrangianFrame
    phase: complex = 1.0 + 0.0j

    def __post_init__(self):
        if abs(abs(self.phase) - 1.0) > 1e-12:
            raise ValueError("half-form coefficient must have unit modulus")
        object.__setattr__(self, "phase", complex(self.phase))

    @property
    def n(self) -> int:
        return self.base.n

    def covector_rows(self) -> np.ndarray:
        """n x 2n matrix of covectors whose wedge is the underlying n-form."""
        if isinstance(self.base, SiegelPoint):
            return coord_matrix(self.base)
        ginv = self.base.g.inverse().matrix
        n = self.base.n
        return ginv[n:, :] if self.base.plus else ginv[:n, :]


def density_pairing(rows1: np.ndarray, rows2: np.ndarray) -> complex:
    """<mu1, mu2> for n-forms given by covector rows, against the Liouville form.

    Normalized so that the unitary frames d^n z_Omega pair to 1 with
    themselves; equals det([conj(rows1); rows2]) / i^n.
    """
    n = rows1.shape[0]
    block = np.vstack([np.conj(rows1), rows2])
    val = complex(np.linalg.det(block) / (1j**n))
    if val.imag == 0.0:
        # normalize -0j so a negative real value keeps the principal branch
        val = complex(val.real, 0.0)
    return val


def pair_halfforms(h1: HalfFormFrame, h2: HalfFormFrame) -> complex:
    """<h1, h2>, conjugate-linear on the left.

    Same-polarization frames pair through their coefficients; distinct
    frames pair through the wedge of the underlying n-forms followed by a
    principal square root (transport routines continue their own branches).
    """
    both_lagrangian = isinstance(h1.base, LagrangianFrame) and isinstance(h2.base, LagrangianFrame)
    if both_lagrangian and h1.base.same_subspace(h2.base):
        if not np.allclose(h1.covector_rows(), h2.covector_rows(), atol=1e-12):
            raise NonTransverseError("same subspace with distinct frames has no canonical pairing")
        return np.conj(h1.phase) * h2.phase
    if both_lagrangian and not h1.base.transverse_to(h2.base):
        raise NonTransverseError("Lagrangian frames are not transverse")
    dens = density_pairing(h1.covector_rows(), h2.covector_rows())
    if abs(dens) < 1e-14:
        raise NonTransverseError("degenerate frame pairing")
    return np.conj(h1.phase) * h2.phase * np.sqrt(abs(dens)) * np.exp(0.5j * np.angle(dens))


@dataclass(frozen=True)
class CorrectedSection:
    """A polarized section tensored with a half-form frame over the same point."""

    section: Section
    halfform: HalfFormFrame

    def __post_init__(self):
        if not isinstance(self.halfform.base, SiegelPoint):
            raise ValueError("corrected Kaehler sections need a Siegel half-form frame")
        if not self.section.frame.close_to(self.halfform.base, tol=1e-12):
            raise ValueError("section and half-form frames disagree")

    @property
    def frame(self) -> SiegelPoint:
        return self.section.frame

    def combined_value(self, v) -> np.ndarray:
        return self.section.value(v) * self.halfform.phase


def corrected_inner_product(a: CorrectedSection, b: CorrectedSection) -> complex:
    return np.conj(a.halfform.phase) * b.halfform.phase * inner_product_cross_frame(a.section, b.section)


def corrected_vacuum(omega: SiegelPoint) -> CorrectedSection:
    return CorrectedSection(vacuum(omega), HalfFormFrame(omega))


# ---------------------------------------------------------------------------
# Fock expansion (n = 1)


def fock_coefficients(psi: Section, n_trunc: int = N_TRUNC_DEFAULT) -> np.ndarray:
    """Coefficients <k|psi> for k < n_trunc, frame of psi (n = 1).

    With the unit-vacuum normalization the monomials satisfy
    <z^j, z^k>_{Gaussian} = k! delta_{jk}, so the coefficients are scaled
    Taylor coefficients of p(z) exp((1/2) m z^2 + b z).
    """
    if psi.n != 1:
        raise ValueError("Fock expansion implemented for n = 1")
    if isinstance(psi, GaussianSection):
        m, b, c = complex(psi.m[0, 0]), complex(psi.b[0]), psi.c
        poly = np.array([1.0 + 0.0j])
    else:
        m, b, c = psi.m, psi.b, psi.c
        poly = psi.coeffs
    series = exp_series(m, b, n_trunc - 1)
    full = np.convolve(poly, series)[:n_trunc]
    if len(full) < n_trunc:
        full = np.pad(full, (0, n_trunc - len(full)))
    full = full * np.exp(c)
    # multiply by sqrt(k!) in log space: the factorial alone overflows floats
    from math import lgamma

    out = np.zeros(n_trunc, dtype=complex)
    mag = np.abs(full)
    for k in np.nonzero(mag)[0]:
        out[k] = np.exp(np.log(mag[k]) + 0.5 * lgamma(k + 1) + 1j * np.angle(full[k]))
    return out


def from_fock_coefficients(coeffs, omega: SiegelPoint) -> PolyFockSection:
    coeffs = np.atleast_1d(np.asarray(coeffs, dtype=complex))
    from math import lgamma

    scale = np.exp([-0.5 * lgamma(k + 1) for k in range(len(coeffs))])
    return PolyFockSection(omega, coeffs * scale)


# ---------------------------------------------------------------------------
# quadrature oracle


@lru_cache(maxsize=16)
def _hermite_table(nodes: int):
    """Gauss-Hermite nodes u and log weights log w + u^2, read-only."""
    u, w = hermgauss(nodes)
    logw = np.log(w) + u**2
    u.flags.writeable = False
    logw.flags.writeable = False
    return u, logw


def quadrature_integrate(
    f,
    n: int,
    nodes: int = QUAD_NODES_DEFAULT,
    gram: np.ndarray | None = None,
    check: bool = False,
    rtol: float = 1e-9,
) -> complex:
    """Tensor-product Gauss-Hermite evaluation of integral_V f against the
    Liouville form (2 pi)^{-n} dx dy.

    ``gram`` is an SPD matrix describing the Gaussian envelope exp(-v^T G v)
    of the integrand (defaults to the standard-frame envelope); nodes are
    placed for that envelope.  Summation order is fixed by the grid layout,
    so results are bit-identical for a given configuration.
    """
    m = 2 * n
    if n > 2:
        raise ValueError("the tensor-product grid is practical for n <= 2 only")
    g = 0.5 * np.eye(m) if gram is None else np.asarray(gram, dtype=float)
    w_eig, v_eig = np.linalg.eigh(g)
    if w_eig.min() <= 0:
        raise ValueError("gram matrix must be SPD")
    ginv_half = (v_eig / np.sqrt(w_eig)) @ v_eig.T
    logdet_half = 0.5 * float(np.sum(np.log(w_eig)))

    u, logw = _hermite_table(nodes)

    def evaluate(u_nodes, logw_nodes):
        if m <= 2:
            grids = np.meshgrid(*([u_nodes] * m), indexing="ij")
            pts = np.stack([gr.ravel() for gr in grids], axis=-1)
            lw = np.stack(np.meshgrid(*([logw_nodes] * m), indexing="ij"), axis=-1).sum(-1).ravel()
            vals = f(pts @ ginv_half.T) * np.exp(lw)
            return complex(vals.sum())
        # chunk over the first axis to bound memory
        grids = np.meshgrid(*([u_nodes] * (m - 1)), indexing="ij")
        tail = np.stack([gr.ravel() for gr in grids], axis=-1)
        lw_tail = np.stack(np.meshgrid(*([logw_nodes] * (m - 1)), indexing="ij"), axis=-1).sum(-1).ravel()
        total = 0.0 + 0.0j
        for j in range(len(u_nodes)):
            pts = np.concatenate([np.full((tail.shape[0], 1), u_nodes[j]), tail], axis=1)
            vals = f(pts @ ginv_half.T) * np.exp(logw_nodes[j] + lw_tail)
            total += complex(vals.sum())
        return total

    scale = np.exp(-logdet_half) / (2 * np.pi) ** n
    result = evaluate(u, logw) * scale
    if check:
        refined = evaluate(*_hermite_table(2 * nodes)) * scale
        if abs(refined - result) > rtol * max(1.0, abs(refined)):
            raise GridTooCoarseError(
                f"doubling nodes moved the result by {abs(refined - result):.3e}"
            )
        result = refined
    return result


def _envelope_form(psi: Section) -> np.ndarray:
    """A with |psi(v)| ~ exp(-(1/2) v^T A v); A is SPD for integrable sections."""
    s, _, _ = _gaussian_data(psi)
    return -s.real


def oracle_inner_product(psi1: Section, psi2: Section, nodes: int = QUAD_NODES_DEFAULT) -> complex:
    """Brute-force <psi1, psi2> by quadrature; independent of the closed forms.

    The grid is placed for the integrand's own Gaussian envelope, which for
    strongly squeezed sections is much wider than the frame Gaussian."""
    g = 0.5 * (_envelope_form(psi1) + _envelope_form(psi2))

    def f(v):
        return np.conj(psi1.value(v)) * psi2.value(v)

    return quadrature_integrate(f, psi1.n, nodes=nodes, gram=g)


def difference_norm(a, b, nodes: int = 24) -> float:
    """|| a - b || with the difference evaluated pointwise before squaring.

    Evaluating the two sections at common points keeps the floor of the
    measurement at machine epsilon times the section scale; assembling the
    same norm from three closed-form inner products would cancel
    catastrophically and bottom out near sqrt(eps).  Accepts plain or
    corrected sections.
    """
    pa, ha = (a.section, a.halfform.phase) if isinstance(a, CorrectedSection) else (a, 1.0)
    pb, hb = (b.section, b.halfform.phase) if isinstance(b, CorrectedSection) else (b, 1.0)
    # half the mean envelope: valid (wider) for both terms when they are comparable
    g = 0.25 * (_envelope_form(pa) + _envelope_form(pb))

    def f(v):
        return np.abs(pa.value(v) * ha - pb.value(v) * hb) ** 2

    val = quadrature_integrate(f, pa.n, nodes=nodes, gram=g)
    return float(np.sqrt(max(val.real, 0.0)))


# ---------------------------------------------------------------------------
# serialization


def _complex_to_json(z: complex):
    return [float(np.real(z)), float(np.imag(z))]


def _complex_array_to_json(a: np.ndarray):
    a = np.asarray(a, dtype=complex)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _complex_array_from_json(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def section_to_json(psi: Section) -> dict:
    s_gauss = psi if isinstance(psi, GaussianSection) else psi.gaussian_part()
    out = {
        "frame": {
            "omega1": psi.frame.omega1.tolist(),
            "omega2": psi.frame.omega2.tolist(),
        },
        "M": _complex_array_to_json(s_gauss.m),
        "b": _complex_array_to_json(s_gauss.b),
        "c": _complex_to_json(s_gauss.c),
    }
    if isinstance(psi, PolyFockSection):
        out["poly"] = _complex_array_to_json(psi.coeffs)
    return out


def section_from_json(data: dict) -> Section:
    frame = SiegelPoint(np.asarray(data["frame"]["omega1"]), np.asarray(data["frame"]["omega2"]))
    m = _complex_array_from_json(data["M"])
    b = _complex_array_from_json(data["b"])
    c = complex(data["c"][0], data["c"][1])
    if "poly" in data:
        return PolyFockSection(frame, _complex_array_from_json(data["poly"]), m[0, 0], b[0], c)
    return GaussianSection(frame, m, b, c)
