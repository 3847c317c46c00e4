import numpy as np
import pytest

from siegelflow.suites import _random_gaussian_section as random_gaussian_section


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
