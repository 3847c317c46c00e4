import numpy as np
import pytest

from siegelflow import (
    LagrangianFrame,
    NonTransverseError,
    SiegelPoint,
    complex_structure_of,
    diagonal_point,
    geodesic_between,
    geodesic_boundary_limits,
    geodesic_eval,
    lagrangian_pair_map,
    metric_distance,
    random_siegel,
    random_symplectic,
    standard_point,
    takagi,
)
from siegelflow.siegel import GeodesicSpec, symplectic_form_matrix
from siegelflow.sympl import act_on_siegel


class TestSiegelPoint:
    @pytest.mark.parametrize(
        "omega1, omega2",
        [([[np.nan]], [[1.0]]), ([[0.0]], [[np.inf]]), (np.zeros((2, 2)), [[1.0, -np.inf], [-np.inf, 1.0]])],
    )
    def test_rejects_non_finite_entries(self, omega1, omega2):
        with pytest.raises(ValueError, match="finite"):
            SiegelPoint(omega1, omega2)

    def test_huge_finite_entries_stay_finite(self):
        with np.errstate(all="raise"):
            p = SiegelPoint([[1e308, -1.5e308], [-1.5e308, 1.7e308]], [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(p.omega1, [[1e308, -1.5e308], [-1.5e308, 1.7e308]])

    def test_omega_is_built_once_and_read_only(self, rng):
        p = random_siegel(rng, 2)
        assert np.array_equal(p.omega, p.omega1 + 1j * p.omega2)
        assert p.omega is p.omega
        assert not p.omega.flags.writeable


class TestComplexStructure:
    def test_base_point_is_standard_structure(self):
        j = complex_structure_of(standard_point(2))
        i2, z2 = np.eye(2), np.zeros((2, 2))
        assert np.allclose(j, np.block([[z2, -i2], [i2, z2]]))

    def test_standard_geodesic_structure(self):
        t = 0.45
        j = complex_structure_of(diagonal_point([np.exp(2 * t)]))
        assert np.allclose(j, [[0.0, -np.exp(2 * t)], [np.exp(-2 * t), 0.0]])

    def test_invariants_random(self, rng):
        for n in (1, 2, 3):
            om = random_siegel(rng, n)
            j = complex_structure_of(om)
            j0 = symplectic_form_matrix(n)
            assert np.abs(j @ j + np.eye(2 * n)).max() < 1e-10
            assert np.abs(j.T @ j0 @ j - j0).max() < 1e-10
            metric = j0 @ j  # omega(., J.)
            assert np.linalg.eigvalsh(0.5 * (metric + metric.T)).min() > 0


class TestTakagi:
    def test_reconstruction_random(self, rng):
        for n in (1, 2, 3, 4):
            w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            w = 0.5 * (w + w.T)
            sigma, u = takagi(w)
            assert np.abs(u * sigma @ u.T - w).max() < 1e-9 * max(1.0, np.abs(w).max())
            assert np.abs(u.conj().T @ u - np.eye(n)).max() < 1e-9
            assert np.all(np.diff(sigma) <= 1e-12)

    def test_degenerate_and_zero_values(self):
        sigma, u = takagi(np.diag([0.5, 0.5]).astype(complex))
        assert np.allclose(sigma, [0.5, 0.5])
        sigma, u = takagi(np.diag([0.7, 0.0]).astype(complex))
        assert np.allclose(sigma, [0.7, 0.0])
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-10


class TestGeodesics:
    def test_diagonal_normal_form(self):
        lam0 = np.array([1.3, 0.4])
        spec = geodesic_between(standard_point(2), diagonal_point(np.exp(2 * lam0)))
        assert np.allclose(spec.lam, lam0, atol=1e-10)

    def test_equal_endpoints_degenerate(self):
        om = random_siegel(np.random.default_rng(5), 2)
        spec = geodesic_between(om, om)
        assert np.allclose(spec.lam, 0.0)
        assert geodesic_eval(spec, 0.7).close_to(om, tol=1e-9)

    def test_round_trip_random(self, rng):
        for n in (1, 2, 3):
            for _ in range(67):
                om, omp = random_siegel(rng, n), random_siegel(rng, n)
                spec = geodesic_between(om, omp)
                assert spec.endpoint_residual() < 1e-8 * max(1.0, np.abs(omp.omega).max())

    def test_midpoint_example(self):
        spec = geodesic_between(standard_point(1), diagonal_point([np.e**4]))
        assert geodesic_eval(spec, 0.5).close_to(diagonal_point([np.e**2]), tol=1e-10)

    def test_uniqueness_of_the_curve(self, rng):
        # the reversed normal form is an independent computation of the same curve
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        fwd = geodesic_between(om, omp)
        bwd = geodesic_between(omp, om)
        for t in np.linspace(0.0, 1.0, 10):
            a = geodesic_eval(fwd, t)
            b = geodesic_eval(bwd, 1.0 - t)
            assert np.abs(a.omega - b.omega).max() < 1e-8


class TestMetric:
    def test_zero_at_equal_points(self):
        om = random_siegel(np.random.default_rng(0), 2)
        assert metric_distance(om, om) == 0.0

    def test_standard_distance(self):
        for t in (0.3, 1.0, 2.2):
            d = metric_distance(standard_point(1), diagonal_point([np.exp(2 * t)]))
            assert abs(d - 2 * t) < 1e-10

    def test_distance_matches_length_integral(self, rng):
        # independent oracle: integrate ds = sqrt(Tr(Y^-1 dW Y^-1 conj(dW))) along the curve
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        spec = geodesic_between(om, omp)
        ts = np.linspace(0.0, 1.0, 2001)
        h = ts[1] - ts[0]
        length = 0.0
        prev = None
        for t in ts:
            w = geodesic_eval(spec, t)
            if prev is not None:
                dw = (w.omega - prev.omega) / h
                mid = SiegelPoint(
                    0.5 * (w.omega1 + prev.omega1), 0.5 * (w.omega2 + prev.omega2)
                )
                yinv = np.linalg.inv(mid.omega2)
                length += h * np.sqrt(np.trace(yinv @ dw @ yinv @ np.conj(dw)).real)
            prev = w
        assert abs(length - metric_distance(om, omp)) < 1e-4 * max(1.0, length)

    def test_group_invariance(self, rng):
        for n in (1, 2):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            g = random_symplectic(rng, n)
            d1 = metric_distance(om, omp)
            d2 = metric_distance(act_on_siegel(g, om), act_on_siegel(g, omp))
            assert abs(d1 - d2) < 1e-9 * max(1.0, d1)


class TestBoundary:
    def test_positive_rates_reach_boundary(self):
        spec = geodesic_between(standard_point(2), diagonal_point([np.e**2, np.e**2]))
        lminus, lplus = geodesic_boundary_limits(spec)
        assert lminus is not None and lplus is not None
        assert lminus.is_lagrangian() and lplus.is_lagrangian()
        assert np.abs(lminus.frame[:2]).max() < 1e-12  # x = 0 subspace
        assert np.abs(lplus.frame[2:]).max() < 1e-12  # y = 0 subspace

    def test_zero_rate_has_no_limit(self):
        om = standard_point(2)
        spec = geodesic_between(om, om)
        assert geodesic_boundary_limits(spec) == (None, None)
        spec2 = geodesic_between(om, diagonal_point([np.e**2, 1.0]))
        assert geodesic_boundary_limits(spec2) == (None, None)

    def test_transverse_pair_recovered(self, rng):
        g = random_symplectic(rng, 2)
        lminus = LagrangianFrame(g, plus=False)
        lplus = LagrangianFrame(g, plus=True)
        pair_g = lagrangian_pair_map(lminus, lplus)
        spec = GeodesicSpec(
            pair_g,
            np.ones(2),
            act_on_siegel(pair_g, standard_point(2)),
            act_on_siegel(pair_g, diagonal_point([np.e**2, np.e**2])),
        )
        out_minus, out_plus = geodesic_boundary_limits(spec)
        assert out_minus.same_subspace(lminus, tol=1e-8)
        assert out_plus.same_subspace(lplus, tol=1e-8)

    def test_pair_map_requires_transversality(self):
        lminus = LagrangianFrame.minus(2)
        with pytest.raises(NonTransverseError):
            lagrangian_pair_map(lminus, lminus)

    def test_shear_graph_is_lagrangian(self):
        frame = LagrangianFrame.graph_of_shear([[0.4, 0.1], [0.1, -0.7]])
        assert frame.is_lagrangian()
        f = frame.frame
        assert np.allclose(f[2:] @ np.linalg.inv(f[:2]), [[0.4, 0.1], [0.1, -0.7]])
