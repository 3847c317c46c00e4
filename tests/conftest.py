import numpy as np
import pytest

from siegelflow import BoundaryPolarization, GaussianSection
from siegelflow.suites import _random_gaussian_section as random_gaussian_section


def random_profile(rng, n=1, poly=True, frame=None) -> GaussianSection:
    """A random profile with Re m <= -0.4, over ``frame`` (default: the position
    polarization); a quadratic polynomial half the time for n = 1."""
    frame = BoundaryPolarization.position(n) if frame is None else frame
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 0.5 * (m + m.T)
    m = m - (np.linalg.eigvalsh(m.real).max() + rng.uniform(0.4, 1.0)) * np.eye(n)
    b = 0.5 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    if poly and n == 1 and rng.uniform() > 0.5:
        coeffs = rng.normal(size=3) + 1j * rng.normal(size=3)
        return GaussianSection(frame, m, b, 0.1 * rng.normal(), coeffs)
    return GaussianSection(frame, m, b, 0.1 * rng.normal())


def standard_profile(n: int) -> GaussianSection:
    """The unit-norm position profile 2^{n/4} exp(-|u|^2 / 2)."""
    return GaussianSection(BoundaryPolarization.position(n), -np.eye(n), np.zeros(n), 0.25 * n * np.log(2.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
