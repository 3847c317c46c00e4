from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from siegelflow._gaussint import generating_poly


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
        exact = exact_generating_poly(beta, gamma, eps, k)
        got = generating_poly(float(beta), float(gamma), float(eps), k)
        assert got.shape == (k + 1,)
        scale = float(sum(abs(x) for x in exact))
        if scale == 0.0:
            assert not np.any(got)
            continue
        err = sum(abs(Fraction(g.real) - x) + abs(g.imag) for g, x in zip(got, exact))
        assert float(err) <= 1e-14 * scale, (k, beta, gamma, eps)


def test_generating_poly_low_orders():
    beta, gamma, eps = 0.3 - 0.2j, -0.7 + 0.1j, 1.1 + 0.4j
    assert np.array_equal(generating_poly(beta, gamma, eps, 0), [1.0])
    assert np.allclose(generating_poly(beta, gamma, eps, 1), [beta, eps], rtol=0, atol=1e-16)
    assert np.allclose(
        generating_poly(beta, gamma, eps, 2),
        [beta**2 + gamma, 2 * beta * eps, eps**2],
        rtol=0,
        atol=1e-15,
    )
