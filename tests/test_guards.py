"""Each input guard of the library raises its error type with its message.

These are the guards that no other test raises: a wrong input to a
primitive, a frame of the wrong kind or a section at the wrong point."""

import re

import numpy as np
import pytest

from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GaussianSection,
    GeodesicSpec,
    MetaplecticElement,
    NonFiniteError,
    NonUnitaryError,
    NotIntegrableError,
    PolarizationMismatchError,
    SymplecticMap,
    diagonal_point,
    fock_coefficients,
    fourier,
    from_momentum_profile,
    geodesic_between,
    geodesic_eval,
    momentum_profile,
    oracle_inner_product,
    section_to_json,
    standard_point,
    takagi,
    transform_z_coords,
    transport_kernel_apply,
    transport_limits,
    vacuum,
)
from siegelflow import sections
from siegelflow._gaussint import half_logdet, kernel_apply_poly
from siegelflow.sections import _placement
from siegelflow.transport import bogoliubov_scale_via_structures

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


@pytest.mark.parametrize("lam, n", [([np.nan], 1), ([-1.0], 1), ([np.inf, 0.5], 2), ([1.0], 2), ([1.0, 1.0], 1)])
def test_geodesic_spec_takes_n_finite_rates_at_least_zero(lam, n):
    with pytest.raises(ValueError, match=rf"^geodesic rates \[.*\] must be {n} finite numbers >= 0$"):
        GeodesicSpec(SymplecticMap.identity(n), lam, standard_point(n), standard_point(n))


@pytest.mark.parametrize("scale, t", [(1.0, 1e3), (1.0, -1e3), (1.0, np.nan), (1e150, 10.0)])
def test_geodesic_point_out_of_the_float_range_raises_naming_t(scale, t):
    # g = diag(scale, 1 / scale): at scale 1e150 and t = 10, i exp(2 t) is finite and its image is not
    spec = GeodesicSpec(SymplecticMap([[scale]], [[0.0]], [[0.0]], [[1.0 / scale]]), [1.0], I1, I1)
    with pytest.raises(NonFiniteError, match=rf"^the geodesic point i exp\(2 Lambda t\) at t = {t} or its image "
                                             r"leaves the float range$"):
        geodesic_eval(spec, t)


def test_transport_limits_needs_a_depth():
    spec = GeodesicSpec(SymplecticMap.identity(1), [1.0], I1, diagonal_point([np.e**2]))
    with pytest.raises(ValueError, match="^depths must name at least one depth$"):
        transport_limits(CorrectedSection(vacuum(I1)), spec, [])


@pytest.mark.parametrize("kwargs, message", [({"nodes": 0}, "nodes must be a positive integer, not 0"),
                                             ({"nodes": 2.5}, "nodes must be a positive integer, not 2.5"),
                                             ({"tol": 0.0}, "tol must be positive and finite, not 0.0"),
                                             ({"tol": np.nan}, "tol must be positive and finite, not nan"),
                                             ({"tol": np.inf}, "tol must be positive and finite, not inf")])
def test_oracle_arguments_raise_before_any_sum(kwargs, message, monkeypatch):
    monkeypatch.setattr(sections, "_hermite_grid_sum", None)  # never reached
    with pytest.raises(ValueError, match=f"^{message}$"):
        oracle_inner_product(vacuum(I1), vacuum(I1), **kwargs)


def test_structures_route_names_frames_of_two_spaces():
    two = standard_point(2)
    with pytest.raises(ValueError, match=rf"^{re.escape(repr(I1))} and {re.escape(repr(two))} are frames of "
                                         "different spaces$"):
        bogoliubov_scale_via_structures(I1, two)


def test_geodesic_spec_takes_endpoints_of_its_space():
    # a 1 x 1 map with 2 x 2 endpoints once gave an endpoint residual of 7.389 by broadcasting
    two = standard_point(2)
    with pytest.raises(ValueError, match=rf"^endpoints {re.escape(repr(two))} and {re.escape(repr(two))} "
                                         "must be points of n = 1$"):
        GeodesicSpec(SymplecticMap.identity(1), [1.0], two, two)


@pytest.mark.parametrize("ends", [(I1, BoundaryPolarization.position(1)), (BoundaryPolarization.position(1), I1)],
                         ids=["to-a-polarization", "from-a-polarization"])
def test_geodesic_between_takes_points_not_polarizations(ends):
    # a polarization at the end once gave rates of 17.6, at the start an AttributeError
    pol = BoundaryPolarization.position(1)
    with pytest.raises(ValueError, match=rf"^a geodesic joins two points of the upper half-space, not "
                                         rf"{re.escape(repr(pol))}$"):
        geodesic_between(*ends)


PLAIN, CORRECTED = vacuum(I1), CorrectedSection(vacuum(I1))


@pytest.mark.parametrize("call, entry, want, got", [
    (lambda: transport_limits(PLAIN, GeodesicSpec(SymplecticMap.identity(1), [1.0], I1, diagonal_point([np.e**2])),
                              [1.0]), "transport_limits", "CorrectedSection", "GaussianSection"),
    (lambda: transport_kernel_apply(CORRECTED, I1, diagonal_point([2.0])), "transport_kernel_apply",
     "GaussianSection", "CorrectedSection"),
    (lambda: fock_coefficients(CORRECTED), "fock_coefficients", "GaussianSection", "CorrectedSection"),
    (lambda: oracle_inner_product(PLAIN, CORRECTED), "oracle_inner_product", "GaussianSection", "CorrectedSection"),
    (lambda: section_to_json(CORRECTED), "section_to_json", "GaussianSection", "CorrectedSection"),
], ids=["transport_limits", "transport_kernel_apply", "fock_coefficients", "oracle_inner_product", "section_to_json"])
def test_a_section_of_the_wrong_kind_raises_naming_the_entry(call, entry, want, got):
    with pytest.raises(ValueError, match=f"^{entry} takes a {want}, not a {got}$"):
        call()
