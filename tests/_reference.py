"""Independent references the tests check the library against.

None of these is on a library path: each is a second route to a value the
library computes another way (a sampled det^{1/2} continuation, the
standard-geodesic closed form of coherent transport, the Xi kernel's blocks
and its closed-form push of a coherent state, explicit ladder and
deformation matrices, a term-by-term Gaussian-polynomial pairing, the
generating rows of a polynomial push one order at a time, the
two-parameter Taylor series of an exponentiated quadratic, the pairing maps
as three separate constructions, a Gaussian integral with one solve per
right-hand side and the log of the base integral it ends in, a difference
norm summed point by point, a quadrature grid built on every call, a random
symplectic draw checked factor by factor, a polarized section evaluated on
phase space), and the small
constructions the tests build their cases from (a section times a scalar,
the other lift of a metaplectic element).
``test_branches`` asserts that no name defined here is also an attribute
of a ``siegelflow`` module.
"""

from math import factorial

import numpy as np

from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GaussianSection,
    MetaplecticElement,
    NonFiniteError,
    SymplecticMap,
    act_on_siegel,
    compose,
    diagonal_point,
    transform_z_coords,
    xi_matrix,
)
from siegelflow.sections import _hermite_table
from siegelflow.transport import _xi_kernel


def scaled(psi: GaussianSection, factor: complex) -> GaussianSection:
    """``factor`` times ``psi``, folded into its constant c."""
    return GaussianSection(psi.frame, psi.m, psi.b, psi.c + np.log(complex(factor)), psi.coeffs)


def other_lift(mp: MetaplecticElement) -> MetaplecticElement:
    """The lift of the same map with the other branch at i*I."""
    return MetaplecticElement(mp.g, -mp.branch)


def value_on_V(s: CorrectedSection, v) -> np.ndarray:
    """A polarized section as a function on V, point by point: phi(x0) exp((i/2) x0^T y0)
    with v = g (x0, y0) for the reference g; the closed form the boundary limits compare
    is ``transforms._log_quadratic``."""
    v = np.asarray(v, dtype=float)
    n = s.frame.n
    v0 = v @ s.frame.reference.g.inverse().matrix.T
    x0, y0 = v0[..., :n], v0[..., n:]
    return s.section.value(x0) * np.exp(0.5j * np.einsum("...i,...i->...", x0, y0))


class BranchDiscontinuityError(Exception):
    """A sampled square-root continuation step would jump the argument by >= pi/2."""


def continue_sqrt_phase(values: np.ndarray, start_phase: complex) -> complex:
    """Continue a unit phase of sqrt(w/|w|) along sampled nonzero values w.

    start_phase is the chosen square root phase at values[0].  Raises if a
    step turns the argument by pi/2 or more, which signals that the path
    sampling is too coarse to track the branch.
    """
    values = np.asarray(values, dtype=complex)
    if np.abs(values).min() == 0:
        raise BranchDiscontinuityError("path crosses zero")
    ratios = values[1:] / values[:-1]
    dargs = np.angle(ratios)
    if dargs.size and np.abs(dargs).max() >= np.pi / 2:
        raise BranchDiscontinuityError(
            f"argument step {np.abs(dargs).max():.3f} >= pi/2; refine the path"
        )
    return start_phase * np.exp(0.5j * dargs.sum())


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


def xi_blocks(omega, omega_p):
    """(K11, K12, K22) of the Xi kernel between two points, with Xi = (Omega - conj(Omega'))/2i and r = Omega2^{1/2}:
    K11 = I - r Xi^{-1} r, K12 = r Xi^{-1} r' and K22 = I - r' Xi^{-1} r'."""
    r, rp = omega.imag_sqrt(), omega_p.imag_sqrt()
    xi_inv = np.linalg.inv(xi_matrix(omega, omega_p))
    eye = np.eye(omega.n)
    return eye - r @ xi_inv @ r, r @ xi_inv @ rp, eye - rp @ xi_inv @ rp


def transport_coherent_closed_form(alpha, omega, omega_p) -> GaussianSection:
    """Transport of c_alpha between two points in closed form, with a = conj(alpha) and the blocks ``xi_blocks``:

    exp((1/2) w^T K22 w + (K12^T a)^T w + (1/2) a^T K11 a) / alpha(Omega, Omega'),
    log alpha = (1/2) log |det Xi(Omega', Omega)| - (1/4) log det(Omega2 Omega2').
    """
    k11, k12, k22 = xi_blocks(omega, omega_p)
    ac = np.conj(np.asarray(alpha, dtype=complex).reshape(omega.n))
    log_alpha = 0.5 * np.linalg.slogdet(xi_matrix(omega_p, omega))[1]
    log_alpha -= 0.25 * np.linalg.slogdet(omega.omega2 @ omega_p.omega2)[1]
    return GaussianSection(omega_p, k22, k12.T @ ac, 0.5 * (ac @ k11 @ ac) - log_alpha)


def bogoliubov_operator_deformation(t: float) -> np.ndarray:
    """Coefficient matrix (cosh t, sinh t; sinh t, cosh t) mixing (a, a^dagger)."""
    return np.array([[np.cosh(t), np.sinh(t)], [np.sinh(t), np.cosh(t)]])


def ladder_matrices(n_trunc: int):
    """Truncated annihilation/creation matrices in a Fock frame."""
    a = np.zeros((n_trunc, n_trunc))
    for k in range(1, n_trunc):
        a[k - 1, k] = np.sqrt(k)
    return a, a.T.copy()


def gauss_log_integral(S, ell, k) -> complex:
    """log of the normalised integral of exp((1/2) v^T S v + ell^T v + k), Re S negative definite:
    k - (1/2) ell^T S^{-1} ell - (1/2) log det(-S), the root from the principal logs of the eigenvalues."""
    S = np.atleast_2d(S)
    ell = np.asarray(ell, dtype=complex).reshape(S.shape[0])
    half_logdet = 0.5 * complex(np.log(np.linalg.eigvals(-S)).sum())
    return complex(k) - 0.5 * complex(ell @ np.linalg.solve(S, ell)) - half_logdet


def poly_gauss_pairing_loop(S, ell, k, a, b, p1, p2) -> complex:
    """Normalised integral of exp((1/2) v^T S v + ell^T v + k) p1(a . v) p2(b . v),
    one scalar at a time in Python.

    c[j, l] = [s^j t^l] exp(b1 s + b2 t + g11 s^2/2 + g12 s t + g22 t^2/2)
    comes from the recurrence in j for every column, and the moments
    j! l! c[j, l] are summed term by term.
    """
    log = gauss_log_integral(S, ell, k)
    x0, xa, xb = (np.linalg.solve(S, v) for v in (ell, a, b))
    b1, b2, g11, g12, g22 = -a @ x0, -b @ x0, -a @ xa, -a @ xb, -b @ xb
    c = np.zeros((len(p1), len(p2)), dtype=complex)
    c[0, 0] = 1.0
    for l in range(len(p2) - 1):
        c[0, l + 1] = (b2 * c[0, l] + (g22 * c[0, l - 1] if l else 0.0)) / (l + 1)
    for j in range(len(p1) - 1):
        for l in range(len(p2)):
            acc = b1 * c[j, l]
            if j:
                acc += g11 * c[j - 1, l]
            if l:
                acc += g12 * c[j, l - 1]
            c[j + 1, l] = acc / (j + 1)
    total = 0.0 + 0.0j
    for j in range(len(p1)):
        for l in range(len(p2)):
            total += p1[j] * p2[l] * float(factorial(j)) * float(factorial(l)) * c[j, l]
    return total * np.exp(log)


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


def generating_poly_per_order(beta, gamma, eps, d) -> np.ndarray:
    """Rows G_0 ... G_d, G_k(w) = k! [s^k] exp(beta s + (1/2) gamma s^2 + eps s w), one numpy row
    operation per order: G_{k+1} = (beta + eps w) G_k + k gamma G_{k-1}.  Stacked, beta, gamma, eps
    and d (...) give rows (..., D + 1, D + 1), D = max d, every row computed in full; NonFiniteError
    where a row up to an entry's d is not finite."""
    d = np.asarray(d)
    rows = np.zeros((d.max() + 1,) * 2 + np.shape(beta), dtype=complex)  # stack axes last until returned
    rows[0, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(rows) - 1):
            nxt = beta * rows[k]
            nxt[1:] += eps * rows[k, :-1]
            if k:
                nxt += k * gamma * rows[k - 1]
            rows[k + 1] = nxt
    # a non-finite entry of row k makes the same entry of row k + 1 non-finite (0 inf is NaN); each entry ends at its d
    if not np.isfinite(rows[-1]).all() and not np.isfinite(np.take_along_axis(rows, d[None, None], 0)).all():
        raise NonFiniteError("generating_poly: the rows are not finite")
    return rows.transpose(tuple(range(2, rows.ndim)) + (0, 1))


def difference_norm_pointwise(a, b, nodes: int) -> float:
    """|| a - b || of two plain or corrected sections over one frame: |a(v) - b(v)|^2 summed point by point with
    ``grid_sum_built_per_call`` on a ``nodes``-per-axis grid placed for the sections' mean real envelope, halved
    again on a Kaehler frame, where that is wider than each term's."""
    pa, pb = (x if isinstance(x, GaussianSection) else x.section for x in (a, b))
    spread = 0.5 if isinstance(pa.frame, BoundaryPolarization) else 0.25
    w, v = np.linalg.eigh(-spread * (pa.real_quadratic()[0] + pb.real_quadratic()[0]).real)
    placement = (v / np.sqrt(w)) @ v.T, float(np.prod(w)) ** -0.5
    total = grid_sum_built_per_call(lambda x: np.abs(pa.value(x) - pb.value(x)) ** 2, placement, nodes)
    return float(np.sqrt(max(total.real, 0.0)))


def integrate_out_per_column(S, L, ell0, k):
    """Integrate exp((1/2) u^T S u + (L w + ell0)^T u + k) over u, normalised,
    as (Q, r, s): one solve with S for L, one for ell0 and one inside
    ``gauss_log_integral``."""
    S = np.atleast_2d(S)
    L = np.asarray(L, dtype=complex).reshape(S.shape[0], -1)
    Q = -L.T @ np.linalg.solve(S, L)
    return 0.5 * (Q + Q.T), -L.T @ np.linalg.solve(S, ell0), gauss_log_integral(S, ell0, k)


def in_coordinates_of(psi: GaussianSection, target, t: np.ndarray) -> GaussianSection:
    """psi in the coordinates z' of ``target``, z = t z' with t unitary: m -> t^T m t,
    b -> t^T b and coeffs[k] -> coeffs[k] t^k (a polynomial has n = 1)."""
    m = t.T @ psi.m @ t
    coeffs = psi.coeffs * complex(t[0, 0]) ** np.arange(psi.degree + 1)
    return GaussianSection(target, 0.5 * (m + m.T), t.T @ psi.b, psi.c, coeffs)


def pairing_in_three_steps(shat: CorrectedSection, omega) -> CorrectedSection:
    """The pairing map of a polarized section into Omega as three sections: the
    profile's push by the unfolded Xi kernel from L- to Omega0 = R^{-1} . Omega,
    that push in the coordinates of R . Omega0, and that section times the unit phase."""
    ref = shat.frame.reference
    om0 = act_on_siegel(ref.g.inverse(), omega)
    target = act_on_siegel(ref.g, om0)
    kernel, log_h = _xi_kernel(shat.frame, om0)
    core = kernel.apply(shat.section, np.conj(log_h))
    phase = ref.phase_at(om0)
    moved = in_coordinates_of(core, target, transform_z_coords(ref.g, om0, target))
    return CorrectedSection(scaled(moved, phase / abs(phase)))


def inverse_pairing_in_three_steps(psihat: CorrectedSection, polarization) -> CorrectedSection:
    """The inverse pairing map onto ``polarization`` as three sections: psihat in
    the coordinates of the point pulled back by the inverse reference, its push
    by the unfolded Xi kernel to L-, and that profile times the unit phase."""
    back = polarization.reference.inverse()
    pulled = act_on_siegel(back.g, psihat.frame)
    moved = in_coordinates_of(psihat.section, pulled, transform_z_coords(back.g, psihat.frame, pulled))
    kernel, log_h = _xi_kernel(pulled, polarization)
    phase = back.phase_at(psihat.frame)
    return CorrectedSection(scaled(kernel.apply(moved, np.conj(log_h)), phase / abs(phase)))


def grid_sum_built_per_call(f, placement: tuple, nodes: int) -> complex:
    """The tensor Gauss-Hermite sum of a callable f on the grid v = P u, with the
    grid's points and weights built from the node table on every call."""
    p, det = placement
    m = p.shape[0]
    u, logw = _hermite_table(nodes)
    head = m if m <= 2 else m - 1
    pts = np.stack([gr.ravel() for gr in np.meshgrid(*([u] * head), indexing="ij")], axis=-1)
    lw = np.stack(np.meshgrid(*([logw] * head), indexing="ij"), axis=-1).sum(-1).ravel()
    if m <= 2:
        total = complex((f(pts @ p.T) * np.exp(lw)).sum())
    else:
        total = 0.0 + 0.0j
        for uj, lj in zip(u, logw):
            sl = np.concatenate([np.full((pts.shape[0], 1), uj), pts], axis=1)
            total += complex((f(sl @ p.T) * np.exp(lj + lw)).sum())
    return total * det * (2 * np.pi) ** (-0.5 * m)


def random_symplectic_checked_per_factor(rng: np.random.Generator, n: int) -> SymplecticMap:
    """``random_symplectic``'s draw with every factor and partial product a checked ``SymplecticMap``:
    the same RNG calls, factors and order of products."""
    g = SymplecticMap.identity(n)
    for _ in range(2):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
        g = compose(g, SymplecticMap(u.real, u.imag, -u.imag, u.real))
        d = np.exp(rng.uniform(-0.7, 0.7, size=n))
        g = compose(g, SymplecticMap.from_matrix(np.diag(np.concatenate([d, 1.0 / d]))))
        s = rng.normal(size=(n, n))
        shear = np.eye(2 * n)
        shear[:n, n:] = 0.5 * (s + s.T)
        g = compose(g, SymplecticMap.from_matrix(shear))
    return g
