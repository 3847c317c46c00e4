import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from _reference import (
    exp_bivariate_series,
    gauss_log_integral,
    generating_poly_per_order,
    integrate_out_per_column,
    poly_gauss_pairing_loop,
)
from siegelflow import (
    GaussianSection,
    NonFiniteError,
    NotIntegrableError,
    SiegelPoint,
    bergman_project,
    coherent_state,
    diagonal_point,
    fock_coefficients,
    from_fock_coefficients,
    inner_product,
    inner_product_cross_frame,
    random_siegel,
    standard_point,
    transport_uncorrected,
)
from siegelflow import _gaussint
from siegelflow._gaussint import (
    _poly_gauss_pairing,
    generating_poly,
    integrate_out,
    kernel_apply_poly,
    taylor,
)
from siegelflow.sections import _half_log_factorials
from siegelflow.suites import _random_gaussian_section


def exact_generating_poly(beta, gamma, eps, k):
    """k! [s^k] exp(beta s + gamma s^2 / 2 + eps s w) by the defining triple
    sum over a + 2b + c = k, in exact rational arithmetic."""
    out = [Fraction(0)] * (k + 1)
    for a in range(k + 1):
        for b in range((k - a) // 2 + 1):
            c = k - a - 2 * b
            out[c] += (
                Fraction(factorial(k), factorial(a) * factorial(b) * factorial(c))
                * beta**a * (gamma / 2) ** b * eps**c
            )
    return out


def _rational(rng):
    return Fraction(int(rng.integers(-12, 13)), int(rng.integers(1, 9)))


@pytest.mark.parametrize("seed", range(6))
def test_generating_poly_matches_exact_triple_sum(seed):
    rng = np.random.default_rng(seed)
    for k in range(41):
        beta, gamma, eps = _rational(rng), _rational(rng), _rational(rng)
        rows = generating_poly(float(beta), float(gamma), float(eps), k)
        assert rows.shape == (k + 1, k + 1)
        for j in range(k + 1):
            exact = exact_generating_poly(beta, gamma, eps, j)
            got = rows[j]
            assert not np.any(got[j + 1 :]), (k, j)
            scale = float(sum(abs(x) for x in exact))
            if scale == 0.0:
                assert not np.any(got)
                continue
            err = sum(abs(Fraction(g.real) - x) + abs(g.imag) for g, x in zip(got, exact))
            assert float(err) <= 1e-14 * scale, (k, j, beta, gamma, eps)


def test_generating_poly_low_orders():
    beta, gamma, eps = 0.3 - 0.2j, -0.7 + 0.1j, 1.1 + 0.4j
    assert np.array_equal(generating_poly(beta, gamma, eps, 0), [[1.0]])
    assert np.allclose(generating_poly(beta, gamma, eps, 1), [[1.0, 0.0], [beta, eps]], rtol=0, atol=1e-16)
    assert np.allclose(
        generating_poly(beta, gamma, eps, 2),
        [[1.0, 0.0, 0.0], [beta, eps, 0.0], [beta**2 + gamma, 2 * beta * eps, eps**2]],
        rtol=0,
        atol=1e-15,
    )


def _row_relative_error(got, want):
    """Largest |got - want| in a row over that row's largest |want|, over all rows."""
    return float((np.abs(got - want).max(-1) / np.abs(want).max(-1)).max())


class TestRowsFromTheBinomialTheorem:
    """``generating_poly``'s rows, G_k[i] = C(k, i) eps^i h_{k-i}, against the
    per-order recurrence G_{k+1} = (beta + eps w) G_k + k gamma G_{k-1}."""

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_to_order_1023_match_the_recurrence(self, seed):
        # |beta| + |eps| = 1.6 and |gamma| = 1e-4 keep every row to order 1023 finite and the recurrence exact
        # to 1e-14 (at |gamma| = 1e-3 it can lose 2.5e-9 of a row to cancellation, where the rows stay at 3e-15)
        rng = np.random.default_rng(2600 + seed)
        beta, eps, gamma = np.array([0.8, 0.8, 1e-4]) * np.exp(2j * np.pi * rng.uniform(size=3))
        got = generating_poly(beta, gamma, eps, 1023)
        assert got.shape == (1024, 1024) and not np.any(np.triu(got, 1))
        assert _row_relative_error(got, generating_poly_per_order(beta, gamma, eps, 1023)) <= 1e-14
        for d in (0, 1, 2, 3, 63, 64, 511, 512):  # an unstacked call at d is the table's first d + 1 rows
            assert np.array_equal(generating_poly(beta, gamma, eps, d), got[: d + 1, : d + 1])

    def test_stacked_rows_match_the_recurrence_to_each_entry_d(self):
        rng = np.random.default_rng(2610)
        d = np.array([1023, 0, 1, 3, 200, 640, 2])
        beta, eps, gamma = np.array([[0.8], [0.8], [1e-4]]) * np.exp(2j * np.pi * rng.uniform(size=(3, d.size)))
        beta[2], gamma[2], eps[2] = 2.0, 5.0, 3.0  # order 1 only: larger values stay finite
        got, want = generating_poly(beta, gamma, eps, d), generating_poly_per_order(beta, gamma, eps, d)
        assert got.shape == want.shape == (d.size, 1024, 1024)
        for i, di in enumerate(d):
            rows = got[i, : di + 1, : di + 1]
            assert _row_relative_error(rows, want[i, : di + 1, : di + 1]) <= 1e-14
            assert not np.any(got[i, : di + 1, di + 1 :])
            assert np.array_equal(rows, generating_poly(beta[i], gamma[i], eps[i], di))

    @pytest.mark.parametrize(
        "beta, gamma, eps, d",
        [
            (1e120, 0.3, 0.5, 3),  # beta^3
            (0.5, 1e200, 0.3, 4),  # 3 gamma h_2
            (0.3, 0.1, 1e160, 2),  # eps^2
            (3.0, 0.5, 0.5, 1023),  # h_m grows past the float range before order 1023
            (1.5, 0.0, 1.5, 1023),  # the row sums reach 3^1023
            (0.0, 0.0, 2.0, 1100),  # 2^1100 w^1100, where the binomials themselves pass the float range
            ([0.3, 1e120, 0.2], [0.1, 0.2, 0.3], [0.5, 0.5, 0.5], [2, 3, 1]),  # one entry of a stack
        ],
    )
    def test_overflowing_rows_raise_on_both_routes(self, beta, gamma, eps, d):
        beta, gamma, eps = (np.asarray(x, dtype=complex) for x in (beta, gamma, eps))
        for route in (generating_poly, generating_poly_per_order):
            with pytest.raises(NonFiniteError, match="^generating_poly:"):
                route(beta, gamma, eps, np.asarray(d))

    def test_rows_keep_their_range_past_the_binomials(self):
        # C(1100, 550) is about 1e330, but with h_m = 0 past h_0 the rows are (1.2 w)^k
        got = generating_poly(0.0, 0.0, 1.2, 1100)
        assert np.array_equal(got, np.diag(np.diagonal(got)))
        assert np.allclose(np.diagonal(got), 1.2 ** np.arange(1101), rtol=1e-13, atol=0)
        assert _row_relative_error(got, generating_poly_per_order(0.0, 0.0, 1.2, 1100)) <= 1e-14
        # finite past an entry's own d is not required: the padded entry's order 3 overflows unchecked
        rows = generating_poly(np.array([0.3, 1e120]), np.array([0.1, 0.2]), np.array([0.5, 0.5]), np.array([3, 0]))
        assert np.array_equal(rows[1, 0], [1.0, 0.0, 0.0, 0.0])

    def test_coherent_state_pushes_to_degree_1023_match_the_recurrence(self, monkeypatch):
        rng = np.random.default_rng(5)
        for n in (64, 128, 256, 512, 1024):
            for lam in (0.3, -0.5, 1.0):
                alpha = complex(*rng.normal(size=2))
                start = from_fock_coefficients(fock_coefficients(coherent_state([alpha], standard_point(1)), n),
                                               standard_point(1))
                got = transport_uncorrected(start, diagonal_point([np.exp(2 * lam)]))
                monkeypatch.setattr(_gaussint, "generating_poly", generating_poly_per_order)
                want = transport_uncorrected(start, diagonal_point([np.exp(2 * lam)]))
                monkeypatch.undo()
                assert got.c == want.c
                assert np.abs(got.coeffs - want.coeffs).max() <= 4.8e-16 * np.abs(want.coeffs).max(), (n, lam)


def exact_bivariate_series(b1, b2, g11, g12, g22, jmax, kmax, absolute=False):
    """[s^j t^k] exp(b1 s + b2 t + g11 s^2/2 + g12 s t + g22 t^2/2) by the
    defining sum over the powers of each term, in exact rational arithmetic;
    with ``absolute`` every term enters with its absolute value."""
    out = [[Fraction(0)] * (kmax + 1) for _ in range(jmax + 1)]
    for j in range(jmax + 1):
        for k in range(kmax + 1):
            for r in range(min(j, k) + 1):
                for p in range((j - r) // 2 + 1):
                    for q in range((k - r) // 2 + 1):
                        a, b = j - r - 2 * p, k - r - 2 * q
                        term = (
                            b1**a * b2**b * (g11 / 2) ** p * (g22 / 2) ** q * g12**r
                            / (factorial(a) * factorial(b) * factorial(p) * factorial(q) * factorial(r))
                        )
                        out[j][k] += abs(term) if absolute else term
    return out


@pytest.mark.parametrize("jmax, kmax", [(9, 14), (14, 9), (24, 0), (0, 24), (0, 0)])
def test_exp_bivariate_series_matches_exact_sum(jmax, kmax):
    rng = np.random.default_rng(100 * jmax + kmax)
    for _ in range(3):
        params = [_rational(rng) for _ in range(5)]
        got = exp_bivariate_series(*map(float, params), jmax, kmax)
        assert got.shape == (jmax + 1, kmax + 1)
        exact = exact_bivariate_series(*params, jmax, kmax)
        scale = exact_bivariate_series(*params, jmax, kmax, absolute=True)
        for j in range(jmax + 1):
            for k in range(kmax + 1):
                g = got[j, k]
                err = abs(Fraction(g.real) - exact[j][k]) + abs(g.imag)
                assert float(err) <= 1e-14 * float(scale[j][k]), (j, k, params)


def exact_taylor(poly, beta, gamma, n, absolute=False):
    """[s^k] p(s) exp(beta s + gamma s^2 / 2) for k < n by the defining sum
    over i + a + 2 b = k, in exact rational arithmetic."""
    out = [Fraction(0)] * n
    for i, p in enumerate(poly):
        for a in range(n - i):
            for b in range((n - i - a + 1) // 2):
                term = p * beta**a * (gamma / 2) ** b / (factorial(a) * factorial(b))
                out[i + a + 2 * b] += abs(term) if absolute else term
    return out


@pytest.mark.parametrize("seed", range(4))
def test_taylor_matches_exact_sum(seed):
    rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 25, 40):
        beta, gamma = _rational(rng), _rational(rng)
        poly = [_rational(rng) for _ in range(int(rng.integers(1, 12)))]
        got = taylor([float(p) for p in poly], float(beta), float(gamma), n)
        assert got.shape == (n,)
        exact, scale = (exact_taylor(poly, beta, gamma, n, absolute) for absolute in (False, True))
        for k in range(n):
            err = abs(Fraction(got[k].real) - exact[k]) + abs(got[k].imag)
            assert float(err) <= 1e-14 * float(scale[k]), (k, n, seed)


def _pairing_args(rng, d1, d2, same_frame, decay):
    """The arguments inner_product_cross_frame passes for two random n = 1
    sections of degrees d1, d2 with Fock coefficients of scale decay^k."""
    omega, sections = random_siegel(rng, 1), []
    for d in (d1, d2):
        base = _random_gaussian_section(rng, omega if same_frame else random_siegel(rng, 1))
        fock = (rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)) * decay ** np.arange(d + 1)
        sections.append((base.frame, base.m, base.b, base.c, fock * np.exp(-_half_log_factorials(d + 1))))
    (f1, m1, b1, c1, p1), (f2, m2, b2, c2, p2) = sections
    e1, e2 = f1.coord_matrix, f2.coord_matrix
    s = np.conj(e1.T @ m1 @ e1 - f1.gram_matrix) + e2.T @ m2 @ e2 - f2.gram_matrix
    return 0.5 * (s + s.T), np.conj(e1.T @ b1) + e2.T @ b2, np.conj(c1) + c2, np.conj(e1)[0], e2[0], np.conj(p1), p2


def _rounding_scale(S, ell, k, a, b, p1, p2):
    """The pairing with every term taken in absolute value: a sum reordered
    in floating point moves by a small multiple of eps times this."""
    x0, xa, xb = (np.linalg.solve(S, v) for v in (ell, a, b))
    params = [abs(v) for v in (-a @ x0, -b @ x0, -a @ xa, -a @ xb, -b @ xb)]
    series = exp_bivariate_series(*params, len(p1) - 1, len(p2) - 1).real
    w1, w2 = (np.abs(p) * [float(factorial(j)) for j in range(len(p))] for p in (p1, p2))
    return w1 @ series @ w2 * abs(np.exp(gauss_log_integral(S, ell, k)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("same_frame, decay", [(True, 0.8), (False, 1.0)])
def test_poly_gauss_pairing_matches_term_by_term_sum(seed, same_frame, decay):
    # across frames at degree 63 the terms cancel to ~1e-10 of their size in
    # either route, so there the bound is on the terms' absolute sum
    rng = np.random.default_rng(seed)
    for d1, d2 in [(0, 1), (1, 0), (2, 2), (7, 0), (0, 12), (31, 17), (17, 31), (63, 40), (63, 63)]:
        args = _pairing_args(rng, d1, d2, same_frame, decay)
        got, want = _poly_gauss_pairing(*args), poly_gauss_pairing_loop(*args)
        assert abs(got - want) <= 1e-13 * _rounding_scale(*args), (d1, d2)
        if same_frame:
            assert abs(got - want) <= 1e-13 * abs(want), (d1, d2)


@pytest.mark.parametrize("d1, d2", [(0, 3), (5, 2), (7, 7), (31, 17)])
def test_poly_gauss_pairing_is_symmetric_in_its_factors(d1, d2):
    # unequal degrees push the same factor either way round; equal ones push p2, then p1
    rng = np.random.default_rng(10 * d1 + d2)
    s, ell, k, a, b, p1, p2 = args = _pairing_args(rng, d1, d2, False, 1.0)
    got, swapped = _poly_gauss_pairing(*args), _poly_gauss_pairing(s, ell, k, b, a, p2, p1)
    if d1 != d2:
        assert got == swapped
    assert abs(got - swapped) <= 1e-13 * _rounding_scale(*args)


def test_polynomial_pairing_is_one_push_and_one_solve(monkeypatch):
    rng = np.random.default_rng(7)
    poly = from_fock_coefficients(rng.normal(size=4), random_siegel(rng, 1))
    gauss = [_random_gaussian_section(rng, random_siegel(rng, 1)) for _ in range(2)]
    pairs = [(poly, gauss[0]), (gauss[1], poly), (poly, poly), (gauss[0], gauss[1])]
    for pair in pairs:  # the frames' cached matrices are built before counting
        inner_product_cross_frame(*pair)
    push, solve, pushes, solves = kernel_apply_poly, np.linalg.solve, [], []
    monkeypatch.setattr("siegelflow._gaussint.kernel_apply_poly", lambda *a: pushes.append(1) or push(*a))
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    counts = []
    for pair in pairs:
        pushes.clear()
        solves.clear()
        inner_product_cross_frame(*pair)
        counts.append((len(pushes), len(solves)))
    assert counts == [(1, 1), (1, 1), (1, 1), (0, 1)]


def test_poly_gauss_pairing_raises_overflow_from_degree_171():
    # the float factorial weights overflow past 170!; pinned until the Fock-normalised pairing
    omega = standard_point(1)
    ok = from_fock_coefficients(np.full(171, 0.1), omega)
    assert np.isfinite(inner_product(ok, ok))
    bad = from_fock_coefficients(np.full(172, 0.1), omega)
    with pytest.raises(OverflowError) as info:
        inner_product(bad, bad)
    # raised in the private pairing itself (or its weight list), not in a public primitive
    frames = [entry.name for entry in info.traceback]
    assert frames[frames.index("_poly_gauss_pairing") + 1 :] in ([], ["<listcomp>"])


def test_zero_coefficients_stay_inert_in_the_push():
    # beta ~ 40 overflows the generating rows long before order 300
    omega, target = standard_point(1), SiegelPoint([[0.4]], [[1.7]])
    plain = GaussianSection(omega, [[0.3]], [40.0], 0.2)
    padded = GaussianSection(omega, [[0.3]], [40.0], 0.2, np.eye(1, 301)[0])
    want, got = bergman_project(plain, target), bergman_project(padded, target)
    assert np.array_equal(got.coeffs, np.eye(1, 301)[0])
    for x, y in ((got.m, want.m), (got.b, want.b), (got.c, want.c)):
        assert np.allclose(x, y, rtol=1e-13, atol=0)


def test_integrate_out_is_one_solve_matching_one_solve_per_column(monkeypatch):
    rng = np.random.default_rng(2121)
    solves, solve = [], np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a: solves.append(1) or solve(*a))
    for i in range(240):
        m, k = 1 + i % 4, 1 + (i // 4) % 3
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        s = 0.5j * (lambda x: x + x.T)(rng.normal(size=(m, m))) - (a @ a.conj().T).real - 0.3 * np.eye(m)
        lmat = rng.normal(size=(m, k)) + 1j * rng.normal(size=(m, k))
        ell0 = rng.normal(size=m) + 1j * rng.normal(size=m)
        kk = complex(rng.normal(), rng.normal())
        solves.clear()
        got = integrate_out(s, lmat, ell0, kk)
        assert len(solves) == 1
        want = integrate_out_per_column(s, lmat, ell0, kk)
        for x, y in zip(got, want):
            assert np.abs(np.asarray(x) - y).max() <= 1e-14 * max(1.0, np.abs(y).max())


def test_gaussian_pairing_is_integrate_out_over_every_variable():
    # with no output variable left, integrate_out's constant is the log of the base integral
    rng = np.random.default_rng(2122)
    for i in range(120):
        m = 1 + i % 6
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        s = 0.5j * (lambda x: x + x.T)(rng.normal(size=(m, m))) - (a @ a.conj().T).real - 0.3 * np.eye(m)
        ell = rng.normal(size=m) + 1j * rng.normal(size=m)
        kk = complex(rng.normal(), rng.normal())
        q, r, log = integrate_out(s, np.zeros((m, 0)), ell, kk)
        assert q.shape == (0, 0) and r.shape == (0,)
        want = gauss_log_integral(s, ell, kk)
        assert abs(log - want) <= 1e-14 * max(1.0, abs(want))
        got = _poly_gauss_pairing(s, ell, kk, None, None, np.ones(1), np.ones(1))
        assert abs(got - np.exp(want)) <= 1e-13 * abs(np.exp(want))


def test_overflowing_pushes_raise_in_the_primitive_without_a_warning():
    # b and coefficients up to 1e300: the push overflows inside one of three
    # primitives, which raises naming itself before numpy can warn
    rng = np.random.default_rng(2400)

    def big(size):
        return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(0, 300, size) + 1j * 10.0 ** rng.uniform(0, 300, size)

    raised = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            psi = GaussianSection(standard_point(1), [[0.3]], big(1), 0.0, big(int(rng.integers(1, 7))))
            try:
                out = transport_uncorrected(psi, diagonal_point([2.0]))
            except NonFiniteError as exc:
                raised.add(str(exc).split(":")[0])
            else:
                assert np.isfinite(out.coeffs).all() and np.isfinite(out.c)
    assert raised == {"integrate_out", "kernel_apply_poly", "generating_poly"}


def _stack_args(rng, size, m, degrees):
    """A stack of ``size`` pushes through one kernel over m variables: S (size, m, m)
    with negative definite real part, ell0 (size, m), k (size,), and polynomials of
    the given degrees zero-padded to one length, the constant 1 for degree 0 as a
    section stores it; L and gen_dir shared."""
    s = []
    for _ in range(size):
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        s.append(0.5j * (lambda x: x + x.T)(rng.normal(size=(m, m))) - (a @ a.conj().T).real - 0.3 * np.eye(m))
    polys = np.zeros((size, max(degrees) + 1), dtype=complex)
    for row, d in zip(polys, degrees):
        row[: d + 1] = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
    polys[:, 1:][rng.uniform(size=polys[:, 1:].shape) < 0.2] = 0.0  # zero coefficients inside the degrees
    polys[np.array(degrees) == 0, 0] = 1.0
    lmat = rng.normal(size=(m, 1)) + 1j * rng.normal(size=(m, 1))
    ell0 = rng.normal(size=(size, m)) + 1j * rng.normal(size=(size, m))
    k = rng.normal(size=size) + 1j * rng.normal(size=size)
    return np.array(s), lmat, ell0, k, polys, rng.normal(size=m) + 1j * rng.normal(size=m)


class TestStackedKernel:
    """One stacked ``kernel_apply_poly`` equals one call per entry, with one
    eigvalsh, one solve and one eigvals for the stack and every guard per entry."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_stack_matches_per_entry_calls(self, m):
        rng = np.random.default_rng(2500 + m)
        for degrees in ([0, 3, 6, 1, 0, 2], [0, 0, 0], [5, 5], [4]):
            s, lmat, ell0, k, polys, gen_dir = _stack_args(rng, len(degrees), m, degrees)
            got = kernel_apply_poly(s, lmat, ell0, k, polys, gen_dir)
            assert got[3].shape == polys.shape
            for i in range(len(degrees)):
                want = kernel_apply_poly(s[i], lmat, ell0[i], k[i], polys[i, : degrees[i] + 1], gen_dir)
                assert not np.any(got[3][i, degrees[i] + 1 :])
                for x, y in zip((got[0][i], got[1][i], got[2][i], got[3][i, : degrees[i] + 1]), want):
                    assert np.abs(x - y).max() <= 1e-15 * np.abs(y).max()

    def test_one_eigvalsh_solve_and_eigvals_per_stack(self, monkeypatch):
        calls = {"eigvalsh": 0, "solve": 0, "eigvals": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        args = _stack_args(np.random.default_rng(2510), 5, 2, [0, 1, 2, 0, 1])
        kernel_apply_poly(*args)
        assert calls == {"eigvalsh": 1, "solve": 1, "eigvals": 1}
        calls.update(dict.fromkeys(calls, 0))
        integrate_out(*args[:4])
        assert calls == {"eigvalsh": 1, "solve": 1, "eigvals": 1}

    def test_one_non_integrable_entry_raises(self):
        s, lmat, ell0, k, polys, gen_dir = _stack_args(np.random.default_rng(2520), 4, 2, [0, 2, 1, 3])
        kernel_apply_poly(s, lmat, ell0, k, polys, gen_dir)
        s[2] = s[2] + np.diag([0.0, 50.0])  # Re S indefinite in one entry only
        with pytest.raises(NotIntegrableError):
            kernel_apply_poly(s, lmat, ell0, k, polys, gen_dir)
        with pytest.raises(NotIntegrableError):
            integrate_out(s, lmat, ell0, k)

    @pytest.mark.parametrize("where", ["integrate_out", "generating_poly", "kernel_apply_poly"])
    def test_one_overflowing_entry_raises_in_its_primitive_without_a_warning(self, where):
        s, lmat, ell0, k, polys, gen_dir = _stack_args(np.random.default_rng(2530), 4, 1, [2, 0, 3, 1])
        s[:] = -1.0
        lmat[:], gen_dir[:] = 1.0, 1.0
        if where == "integrate_out":
            ell0[1] = 1e200  # ell0^2 / 2 passes the float range
        elif where == "generating_poly":
            ell0[2], polys[2, 3] = 1e120, 1.0  # its rows pass 1e360 by order 3
        else:
            ell0[3], polys[3, 1] = 1e10, 1e300  # a finite row of order 1e10 times this overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=f"^{where}:"):
                kernel_apply_poly(s, lmat, ell0, k, polys, gen_dir)

    def test_padded_entry_is_checked_to_its_own_degree(self):
        # a Gaussian whose generating rows overflow past order 0 stacks with a
        # cubic: its padded rows are neither checked nor let into its result
        s, lmat, ell0, k, polys, gen_dir = _stack_args(np.random.default_rng(2540), 2, 1, [0, 3])
        s[:], lmat[:], gen_dir[:] = -1.0, 1.0, 1.0
        ell0[0] = 1e120
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernel_apply_poly(s, lmat, ell0, k, polys, gen_dir)
            want = kernel_apply_poly(s[0], lmat, ell0[0], k[0], polys[0, :1], gen_dir)
        assert np.array_equal(got[3][0], [1.0, 0.0, 0.0, 0.0]) and np.isfinite(got[3]).all()
        assert abs(got[2][0] - want[2]) <= 1e-15 * abs(want[2])
