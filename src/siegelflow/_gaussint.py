"""Closed-form complex Gaussian integrals over R^m.

Every integral is taken against the normalised measure (2 pi)^{-m/2} dv,
the one all callers use: (2 pi)^{-n} dx dy on phase space, (2 pi)^{-n/2} du
on a Lagrangian quotient.  The base integral is

    (2 pi)^{-m/2} integral over R^m of exp( (1/2) v^T S v + l^T v + k ) dv
        = det(-S)^{-1/2} exp( k - (1/2) l^T S^{-1} l ),

valid for complex symmetric S whose real part is negative definite.  The
branch of det(-S)^{-1/2} is the analytic continuation from real SPD
matrices: every eigenvalue of -S has positive real part, so summing
principal logarithms of the eigenvalues is the continuous choice.

Every Gaussian-times-polynomial operation of the library reduces to these
primitives:

  * ``half_logdet``: the branch of (1/2) log det above;
  * ``gauss_log_integral``: log of the base integral;
  * ``integrate_out``: the base integral over some of the variables, as a
    Gaussian in the rest;
  * ``exp_bivariate_series``: Taylor coefficients of an exponentiated
    quadratic in two generating parameters (one-parameter series, as in the
    Fock expansion, are its first column);
  * ``generating_poly``: the rows k! [s^k] of an exponentiated quadratic
    with a linear term in the output variable w, as polynomials in w;
  * ``kernel_apply_poly``: the push of a polynomial-times-Gaussian through
    a Gaussian kernel, the polynomial times those rows;
  * ``_poly_gauss_pairing``: the integral of a Gaussian times two
    polynomial factors, which every closed-form inner product uses, a
    bilinear form in the factorial-weighted series.

The series are evaluated one order at a time, each order after the first
column of ``exp_bivariate_series`` as one numpy vector operation.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .errors import NonFiniteError, NotIntegrableError

# exp of a number whose real part passes this overflows a float
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def half_logdet(a: np.ndarray) -> complex:
    """(1/2) log det a for complex symmetric a with Re(a) positive definite.

    Uses principal logarithms of the eigenvalues, which all lie in the open
    right half-plane, so the result is the continuation from the SPD case.
    """
    w = np.linalg.eigvals(a)
    if w.real.min() <= 0:
        raise NotIntegrableError(
            f"quadratic form not positive: min Re(eig) = {w.real.min():.3e}"
        )
    return 0.5 * complex(np.sum(np.log(w)))


def _negative_solve(S: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """S^{-1} rhs, once the real part of S is checked negative definite."""
    if np.linalg.eigvalsh(0.5 * (S.real + S.real.T)).max() >= 0:
        raise NotIntegrableError("real part of the quadratic form is not negative definite")
    return np.linalg.solve(S, rhs)


def gauss_log_integral(S: np.ndarray, ell: np.ndarray, k: complex) -> complex:
    """log of the normalised integral of exp((1/2) v^T S v + ell^T v + k)."""
    S = np.atleast_2d(S)
    ell = np.asarray(ell, dtype=complex).reshape(S.shape[0])
    return complex(k) - 0.5 * complex(ell @ _negative_solve(S, ell)) - half_logdet(-S)


def integrate_out(S: np.ndarray, L: np.ndarray, ell0: np.ndarray, k: complex):
    """Integrate exp((1/2) u^T S u + (L w + ell0)^T u + k) over u, normalised.

    Returns (Q, r, s) with the result equal to exp((1/2) w^T Q w + r^T w + s)
    as a function of the remaining (complex vector) variable w; one solve
    with S takes ell0 and the columns of L together.
    """
    S = np.atleast_2d(S)
    m = S.shape[0]
    ell0 = np.asarray(ell0, dtype=complex).reshape(m)
    L = np.asarray(L, dtype=complex).reshape(m, -1)
    x = _negative_solve(S, np.column_stack([ell0, L]))
    Q = -L.T @ x[:, 1:]
    s = complex(k) - 0.5 * complex(ell0 @ x[:, 0]) - half_logdet(-S)
    return 0.5 * (Q + Q.T), -L.T @ x[:, 0], s


def exp_bivariate_series(b1, b2, g11, g12, g22, jmax: int, kmax: int) -> np.ndarray:
    """c[j, k] = [s^j t^k] exp(b1 s + b2 t + g11 s^2/2 + g12 s t + g22 t^2/2).

    Column 0 is the one-parameter series, (j+1) c[j+1, 0] = b1 c[j, 0] +
    g11 c[j-1, 0], one scalar per order; each later column is one vector
    update, (k+1) c[:, k+1] = b2 c[:, k] + g22 c[:, k-1] + g12 c[:-1, k]
    shifted one row down.
    """
    b1, g11 = complex(b1), complex(g11)
    col = [1.0 + 0.0j]
    for j in range(jmax):
        col.append((b1 * col[j] + (g11 * col[j - 1] if j else 0.0)) / (j + 1))
    c = np.zeros((jmax + 1, kmax + 1), dtype=complex)
    c[:, 0] = col
    for k in range(kmax):
        nxt = b2 * c[:, k]
        if k:
            nxt += g22 * c[:, k - 1]
        nxt[1:] += g12 * c[:-1, k]
        c[:, k + 1] = nxt / (k + 1)
    return c


def kernel_apply_poly(S, Lmat, ell0, k0, poly, gen_dir):
    """Integrate exp((1/2) u^T S u + (L w + ell0)^T u + k0) p(gen_dir . u), normalised.

    Returns (Q, r, s, poly_out) describing
    exp((1/2) w^T Q w + r^T w + s) * poly_out(w); polynomial factors are
    supported for a single output variable only (len(w) == 1) via a
    generating parameter in the gen_dir direction.
    """
    poly = np.atleast_1d(np.asarray(poly, dtype=complex))
    if len(poly) == 1:
        q, r, s = integrate_out(S, Lmat, ell0, k0)
        return q, r, s + np.log(poly[0]), np.array([1.0 + 0.0j])
    Lmat = np.asarray(Lmat, dtype=complex).reshape(len(ell0), -1)
    if Lmat.shape[1] != 1:
        raise ValueError("polynomial kernels support a single output variable")
    l2 = np.column_stack([np.asarray(gen_dir, dtype=complex), Lmat[:, 0]])
    q2, r2, s2 = integrate_out(S, l2, ell0, k0)
    # only the rows of nonzero coefficients enter: zero times an overflowed row is NaN
    nz = np.flatnonzero(poly)
    out = np.zeros(len(poly), dtype=complex)
    if nz.size:
        rows = generating_poly(r2[0], q2[0, 0], q2[0, 1], nz[-1])
        out[: nz[-1] + 1] = poly[nz] @ rows[nz]
    return q2[1:, 1:], r2[1:], s2, out


def generating_poly(beta: complex, gamma: complex, eps: complex, d: int) -> np.ndarray:
    """Rows G_0 ... G_d, G_k(w) = k! [s^k] exp(beta s + (1/2) gamma s^2 + eps s w).

    Row k holds the ascending coefficients of G_k in w (zero past w^k), from
    G_{k+1} = (beta + eps w) G_k + k gamma G_{k-1}, one row operation per order.
    """
    rows = np.zeros((d + 1, d + 1), dtype=complex)
    rows[0, 0] = 1.0
    for k in range(d):
        nxt = beta * rows[k]
        nxt[1:] += eps * rows[k, :-1]
        if k:
            nxt += k * gamma * rows[k - 1]
        rows[k + 1] = nxt
    return rows


def _poly_gauss_pairing(S, ell, k, a, b, p1, p2) -> complex:
    """Normalised integral of exp((1/2) v^T S v + ell^T v + k) p1(a . v) p2(b . v).

    p1, p2 are ascending coefficients; the directions a, b are read only when
    a factor is a polynomial.  The moment of (a . v)^j (b . v)^l is j! l!
    [s^j t^l] of the integral with linear term ell + s a + t b.
    """
    log = gauss_log_integral(S, ell, k)
    if not log.real < _LOG_FLOAT_MAX:  # also NaN
        raise NonFiniteError(f"the Gaussian pairing overflows: log modulus {log.real:.3e}")
    if len(p1) == 1 and len(p2) == 1:
        return p1[0] * p2[0] * np.exp(log)
    # j! l! as floats: OverflowError from degree 171 on, before any series work
    fact = [float(factorial(j)) for j in range(max(len(p1), len(p2)))]
    x0, xa, xb = np.linalg.solve(S, np.column_stack([ell, a, b])).T
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        series = exp_bivariate_series(-a @ x0, -b @ x0, -a @ xa, -a @ xb, -b @ xb, len(p1) - 1, len(p2) - 1)
        out = (p1 * fact[: len(p1)]) @ series @ (p2 * fact[: len(p2)]) * np.exp(log)
    if not np.isfinite(out):
        raise NonFiniteError("the Gaussian-polynomial pairing overflows")
    return out
