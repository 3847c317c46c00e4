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
  * ``integrate_out``: the base integral over some of the variables, as a
    Gaussian in the rest; over all of them its constant is the base
    integral's log;
  * ``taylor``: the Taylor coefficients of a polynomial times an
    exponentiated quadratic in one variable, as in the Fock expansion;
  * ``generating_poly``: the rows G_k = k! [s^k] of an exponentiated
    quadratic with a linear term in the output variable w, as polynomials in
    w; by the binomial theorem G_k[i] = C(k, i) eps^i h_{k-i}, h the rows'
    w^0 column;
  * ``kernel_apply_poly``: the push of a polynomial-times-Gaussian through the
    one kernel type, ``sections._Kernel``, the polynomial times those rows;
  * ``_poly_gauss_pairing``: the integral of a Gaussian times two
    polynomial factors, which every closed-form inner product uses: one
    factor pushed by ``kernel_apply_poly`` and the other read off the
    result's ``taylor`` coefficients.

The series are evaluated one order at a time in scalars, and ``generating_poly``'s
table as one broadcast product of its binomials, powers of eps and h.

``half_logdet``, ``integrate_out``, ``generating_poly`` and ``kernel_apply_poly`` take an optional leading stack
axis (S (..., m, m), ell0 (..., m), k (...), zero-padded polynomials; L and gen_dir shared or (k, 1, ...), per kernel):
one eigvalsh, one solve and one eigvals serve a stack, which raises where one of its entries would.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from math import factorial

import numpy as np

from .errors import NonFiniteError, NotIntegrableError

# exp of a number whose real part passes this overflows a float
_LOG_FLOAT_MAX = float(np.log(np.finfo(float).max))


def _finite(arr: np.ndarray) -> bool:
    """No inf or NaN entry.

    On the few entries of a section or a Gaussian's data this is several
    times faster than np.isfinite(arr).all(), and it runs in every kernel."""
    return all(map(cmath.isfinite, arr.ravel().tolist()))


def half_logdet(a: np.ndarray) -> complex:
    """(1/2) log det a for complex symmetric a with Re(a) positive definite.

    Uses principal logarithms of the eigenvalues, which all lie in the open
    right half-plane, so the result is the continuation from the SPD case.
    """
    w = np.linalg.eigvals(a)
    if w.real.min() <= 0:
        raise NotIntegrableError(f"quadratic form not positive: min Re(eig) = {w.real.min():.3e}")
    return 0.5 * np.log(w).sum(-1)


def integrate_out(S: np.ndarray, L: np.ndarray, ell0: np.ndarray, k: complex):
    """Integrate exp((1/2) u^T S u + (L w + ell0)^T u + k) over u, normalised.

    Returns (Q, r, s) with the result equal to exp((1/2) w^T Q w + r^T w + s)
    as a function of the remaining (complex vector) variable w; one solve
    with S takes ell0 and the columns of L together.  L is a vector, a matrix or a stack (..., m, j) whose stack axes
    broadcast into S's.  NotIntegrableError unless the real part of S is negative definite.
    """
    S = np.atleast_2d(S)
    ell0 = np.asarray(ell0, dtype=complex).reshape(S.shape[:-1])
    L = np.asarray(L, dtype=complex) if np.ndim(L) > 1 else np.asarray(L, dtype=complex).reshape(S.shape[-1], -1)
    rhs = np.empty(S.shape[:-1] + (1 + L.shape[-1],), dtype=complex)
    rhs[..., 0], rhs[..., 1:] = ell0, L
    if np.linalg.eigvalsh(0.5 * (S.real + S.real.swapaxes(-1, -2))).max() >= 0:
        raise NotIntegrableError("real part of the quadratic form is not negative definite")
    x = np.linalg.solve(S, rhs)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        Q = -L.swapaxes(-1, -2) @ x[..., 1:]
        x0 = x[..., 0].reshape(L.shape[:-2] + (-1, L.shape[-2]))  # ell0's rows: one product per entry of L's stack
        Q, r = 0.5 * (Q + Q.swapaxes(-1, -2)), (-x0 @ L).reshape(S.shape[:-2] + L.shape[-1:])
        s = k - 0.5 * (ell0[..., None, :] @ x[..., :1])[..., 0, 0] - half_logdet(-S)
    if not (_finite(Q) and _finite(r) and _finite(np.asarray(s))):
        raise NonFiniteError("integrate_out: the integrated Gaussian is not finite")
    return Q, r, s


def kernel_apply_poly(S, Lmat, ell0, k0, poly, gen_dir):
    """Integrate exp((1/2) u^T S u + (L w + ell0)^T u + k0) p(gen_dir . u), normalised.

    Returns (Q, r, s, poly_out) describing
    exp((1/2) w^T Q w + r^T w + s) * poly_out(w); polynomial factors are
    supported for a single output variable only (len(w) == 1) via a
    generating parameter in the gen_dir direction.  poly_out has poly's shape (past degree 0, the result's stack).
    """
    poly = np.atleast_1d(np.asarray(poly, dtype=complex))
    if poly.shape[-1] == 1:
        return (*integrate_out(S, Lmat, ell0, k0), poly)
    Lmat = np.asarray(Lmat, dtype=complex) if np.ndim(Lmat) > 1 else np.asarray(Lmat, dtype=complex)[:, None]
    if Lmat.shape[-1] != 1:
        raise ValueError("polynomial kernels support a single output variable")
    l2 = np.empty(np.broadcast_shapes(np.shape(gen_dir), Lmat.shape[:-1]) + (2,), dtype=complex)
    l2[..., 0], l2[..., 1:] = gen_dir, Lmat
    q2, r2, s2 = integrate_out(S, l2, ell0, k0)
    # only the rows of nonzero coefficients enter, up to each entry's last: zero times an overflowed row is NaN
    nz = poly != 0
    deg = np.broadcast_to((nz * np.arange(poly.shape[-1])).max(-1), np.shape(s2))  # one per kernel of a stack
    rows = generating_poly(r2[..., 0], q2[..., 0, 0], q2[..., 0, 1], deg)
    out, d = np.zeros(deg.shape + poly.shape[-1:], dtype=complex), rows.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        out[..., :d] = (poly[..., None, :d] @ np.where(nz[..., :d, None], rows, 0))[..., 0, :]
    if not _finite(out):
        raise NonFiniteError("kernel_apply_poly: the pushed polynomial is not finite")
    return q2[..., 1:, 1:], r2[..., 1:], s2, out


@lru_cache(maxsize=8)
def _binomials(d: int) -> tuple:
    """(C, e, k - i) for i, k <= d: C(k, i) = C 2^e, C exactly rounded below 2^1000 and zero past the diagonal (where
    k - i reads 0); read-only."""
    c, e, row = np.zeros((d + 1, d + 1)), np.zeros((d + 1, d + 1), dtype=np.int32), [1]
    for k in range(d + 1):  # Pascal's rule in exact integers
        e[k, : k + 1] = shift = [max(x.bit_length() - 1000, 0) for x in row]
        c[k, : k + 1] = [float(x >> t) for x, t in zip(row, shift)]
        row = [1, *map(int.__add__, row, row[1:]), 1]
    out = c, e, np.maximum(np.subtract.outer(np.arange(d + 1), np.arange(d + 1)), 0)
    for arr in out:
        arr.flags.writeable = False
    return out


def generating_poly(beta: complex, gamma: complex, eps: complex, d: int) -> np.ndarray:
    """Rows G_0 ... G_d, G_k(w) = k! [s^k] exp(beta s + (1/2) gamma s^2 + eps s w).

    Row k holds the ascending coefficients of G_k in w (zero past w^k): by the binomial theorem G_k[i] = C(k, i)
    eps^i h_{k-i}, h_{m+1} = beta h_m + m gamma h_{m-1} the w^0 column, one scalar per order.  Stacked, beta, gamma,
    eps and d (...) give rows (..., D + 1, D + 1), D = max d, where an entry's rows past its own d are not its G_k.
    NonFiniteError where a row up to an entry's d leaves the float range.
    """
    ds = np.ravel(d).tolist()
    c, e, idx = _binomials(big := max(ds))
    flat, o = [0j] * (2 * (big + 1) * len(ds)), 0  # per entry h_0 .. h_d, then eps^0 .. eps^d, zero-padded to D
    for b, g, p, de in zip(np.ravel(beta).tolist(), np.ravel(gamma).tolist(), np.ravel(eps).tolist(), ds):
        h, pw = [1.0 + 0.0j, b], [1.0 + 0.0j, p]
        for m in range(1, de):
            h.append(b * h[m] + m * g * h[m - 1])
            pw.append(pw[m] * p)
        flat[o : o + de + 1], flat[o + big + 1 : o + big + de + 2] = h[: de + 1], pw[: de + 1]
        o += 2 * big + 2
    tab = np.array(flat).reshape(-1, 2, big + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        rows = (tab[:, 0].take(idx, -1) * tab[:, 1:] * c).reshape(np.shape(d) + c.shape)
        if e[-1].any():  # a binomial past 2^1000: no partial product passes the entry, so 2^e scales last
            rows = np.ldexp(rows.real, e) + 1j * np.ldexp(rows.imag, e)
    if not _finite(rows[..., -1, :]) and not np.isfinite(rows[np.arange(big + 1) <= np.asarray(d)[..., None]]).all():
        raise NonFiniteError("generating_poly: the rows are not finite")
    return rows


def taylor(poly, beta: complex, gamma: complex, n: int) -> np.ndarray:
    """[s^k] p(s) exp(beta s + (1/2) gamma s^2) for k < n, p's ascending coefficients ``poly``.

    One scalar per order, (k+1) e_{k+1} = beta e_k + gamma e_{k-1}, then one convolution; no k!, so n may pass 170.
    """
    beta, gamma = complex(beta), complex(gamma)
    col = [1.0 + 0.0j]
    for k in range(n - 1):
        col.append((beta * col[k] + (gamma * col[k - 1] if k else 0.0)) / (k + 1))
    return np.convolve(poly, col)[:n]


def _poly_gauss_pairing(S, ell, k, a, b, p1, p2) -> complex:
    """Normalised integral of exp((1/2) v^T S v + ell^T v + k) p1(a . v) p2(b . v).

    p1, p2 are ascending coefficients; the directions a, b are read only when a factor is a polynomial.
    The pairs (a, p1), (b, p2) enter symmetrically, so p2 is the one of lower degree: pushed along b with w along a
    it gives F(w) = p(w) exp(q w^2/2 + r w + log), and the moment of (a . v)^j is j! [w^j] F.
    Constant factors (shape (..., 1)) take a stack axis: one integral, NonFiniteError where one entry overflows.
    """
    if p1.shape[-1] == 1 and p2.shape[-1] == 1:
        log = integrate_out(S, np.zeros((np.shape(ell)[-1], 0)), ell, k)[2]  # no variable left: the base integral
        if not (worst := log.real.max()) < _LOG_FLOAT_MAX:  # also NaN, which max propagates
            raise NonFiniteError(f"the Gaussian pairing overflows: log modulus {worst:.3e}")
        return p1.T[0] * p2.T[0] * np.exp(log)
    if len(p2) > len(p1):
        a, b, p1, p2 = b, a, p2, p1
    # j! as floats: OverflowError from degree 171 on, before any integral
    fact = [float(factorial(j)) for j in range(len(p1))]
    q, r, log, p = kernel_apply_poly(S, a, ell, k, p2, b)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite value raises below
        out = (p1 * fact) @ taylor(p, r[0], q[0, 0], len(p1)) * np.exp(log)
    if not np.isfinite(out):
        raise NonFiniteError("the Gaussian-polynomial pairing overflows")
    return out
