from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from _reference import integrate_out_per_column, poly_gauss_pairing_loop
from siegelflow import (
    GaussianSection,
    SiegelPoint,
    bergman_project,
    from_fock_coefficients,
    inner_product,
    random_siegel,
    standard_point,
)
from siegelflow._gaussint import (
    _poly_gauss_pairing,
    exp_bivariate_series,
    gauss_log_integral,
    generating_poly,
    integrate_out,
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
