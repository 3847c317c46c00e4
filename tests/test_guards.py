"""Each input guard of the library raises its error type with its message.

These are the guards that no other test raises: a wrong input to a
primitive, a frame of the wrong kind or a section at the wrong point."""

import numpy as np
import pytest

from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GaussianSection,
    GeodesicSpec,
    MetaplecticElement,
    NonUnitaryError,
    NotIntegrableError,
    PolarizationMismatchError,
    SymplecticMap,
    diagonal_point,
    fourier,
    from_momentum_profile,
    momentum_profile,
    standard_point,
    takagi,
    transform_z_coords,
    transport_kernel_apply,
    transport_limits,
    vacuum,
)
from siegelflow._gaussint import half_logdet, kernel_apply_poly
from siegelflow.sections import _placement

from conftest import standard_profile

I1 = standard_point(1)


def _limits_away_from_the_start():
    spec = GeodesicSpec(SymplecticMap.identity(1), [1.0], diagonal_point([2.0]), diagonal_point([2.0 * np.e**2]))
    return transport_limits(CorrectedSection(vacuum(I1)), spec, (5.0,))


GUARDS = [
    pytest.param(lambda: half_logdet(-np.eye(2)), NotIntegrableError,
                 r"quadratic form not positive: min Re\(eig\) = -1.000e\+00", id="half_logdet"),
    pytest.param(lambda: kernel_apply_poly(-np.eye(2), np.ones((2, 2)), np.zeros(2), 0.0, [1.0, 1.0], np.ones(2)),
                 ValueError, "polynomial kernels support a single output variable", id="kernel_apply_poly"),
    pytest.param(lambda: GaussianSection(BoundaryPolarization.position(2), -np.eye(3), np.zeros(2), 0.0),
                 ValueError, "m must be 2 x 2", id="GaussianSection"),
    pytest.param(lambda: _placement(np.diag([1.0, -1.0])), ValueError, "gram matrix must be SPD", id="_placement"),
    pytest.param(lambda: transform_z_coords(SymplecticMap.identity(1), I1, diagonal_point([4.0])), NonUnitaryError,
                 r"coordinate change not unitary: residual 3\.000e\+00", id="transform_z_coords"),
    pytest.param(lambda: MetaplecticElement(SymplecticMap.identity(1), 2.0), ValueError,
                 "branch must be a unit complex number", id="MetaplecticElement-modulus"),
    pytest.param(lambda: MetaplecticElement(SymplecticMap.identity(1), 1j), ValueError,
                 r"branch\^2 does not match det\(conj\(C Omega \+ D\)\)/\|det\| at i\*I", id="MetaplecticElement-square"),
    pytest.param(lambda: takagi([[0.0, 1.0], [0.0, 0.0]]), ValueError, "matrix must be complex symmetric", id="takagi"),
    pytest.param(lambda: momentum_profile(CorrectedSection(standard_profile(1))), PolarizationMismatchError,
                 "not a standard momentum-polarized section", id="momentum_profile"),
    pytest.param(lambda: fourier(from_momentum_profile(standard_profile(1))), PolarizationMismatchError,
                 "direct transform expects the standard position form", id="fourier"),
    pytest.param(_limits_away_from_the_start, ValueError, "section must live at the start of the geodesic",
                 id="transport_limits"),
    pytest.param(lambda: transport_kernel_apply(vacuum(I1), I1, diagonal_point([2.0]), "heat"), ValueError,
                 "unknown kernel 'heat'", id="transport_kernel_apply"),
]


@pytest.mark.parametrize("call, error, message", GUARDS)
def test_guard_raises_its_error_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()
