import warnings

import numpy as np
import pytest

from siegelflow import (
    BoundaryPolarization,
    MetaplecticElement,
    NonFiniteError,
    SiegelPoint,
    SpRelationViolatedError,
    SymplecticMap,
    complex_structure_of,
    diagonal_point,
    geodesic_between,
    geodesic_boundary_limits,
    geodesic_eval,
    random_siegel,
    random_symplectic,
    standard_point,
    takagi,
)
from siegelflow import siegel
from siegelflow.siegel import TRANSVERSALITY_TOL, GeodesicSpec, symplectic_form_matrix
from siegelflow.sympl import act_on_siegel, compose


class TestSiegelPoint:
    @pytest.mark.parametrize(
        "omega1, omega2",
        [([[np.nan]], [[1.0]]), ([[0.0]], [[np.inf]]), (np.zeros((2, 2)), [[1.0, -np.inf], [-np.inf, 1.0]])],
    )
    def test_rejects_non_finite_entries(self, omega1, omega2):
        with pytest.raises(ValueError, match="finite"):
            SiegelPoint(omega1, omega2)

    @pytest.mark.parametrize(
        "omega1, omega2, message",
        [
            ([[0.0, 0.0]], [[1.0, 0.0]], "omega1 must be square"),
            ([[0.0]], np.eye(2), "omega1 and omega2 must have the same shape"),
            ([[0.0, 1.0], [0.0, 0.0]], np.eye(2), "omega1 is not symmetric"),
            ([[0.0]], [[-1.0]], "imaginary part must be positive definite"),
        ],
    )
    def test_each_guard_names_what_it_rejects(self, omega1, omega2, message):
        with pytest.raises(ValueError, match=message):
            SiegelPoint(omega1, omega2)

    def test_huge_finite_entries_stay_finite(self):
        with np.errstate(all="raise"):
            p = SiegelPoint([[1e308, -1.5e308], [-1.5e308, 1.7e308]], [[1.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(p.omega1, [[1e308, -1.5e308], [-1.5e308, 1.7e308]])

    @pytest.mark.parametrize("omega1", [[[1e160]], [[1e300]], [[0.0, 1e160], [1e160, 0.0]]])
    def test_gram_matrix_past_the_float_range_names_the_point(self, omega1):
        p = SiegelPoint(omega1, np.eye(len(omega1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match=r"(?s)^the Gram matrix of SiegelPoint\(omega=.* is not finite: "):
                p.gram_matrix

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

    def test_qr_only_completes_zero_values(self, rng, monkeypatch):
        calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **k: calls.append(1) or qr(*a, **k))
        for n in (1, 2, 3):
            w = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            takagi(0.5 * (w + w.T))
        assert calls == []
        sigma, u = takagi(np.diag([0.7, 0.0]).astype(complex))
        assert calls == [1]
        assert np.array_equal(sigma, [0.7, 0.0])
        assert np.abs(u.conj().T @ u - np.eye(2)).max() < 1e-12

    def test_two_zero_values_at_n3(self, rng):
        # rank one, 0.6 v v^T with a complex unit v: the QR completion supplies two columns
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        for w in (np.diag([0.0, 0.6, 0.0]).astype(complex), 0.6 * np.outer(v, v)):
            sigma, u = takagi(w)
            assert np.allclose(sigma, [0.6, 0.0, 0.0], rtol=0, atol=1e-12)
            assert np.abs(u.conj().T @ u - np.eye(3)).max() < 1e-12
            assert np.abs(u * sigma @ u.T - w).max() < 1e-12


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

    def test_equal_endpoints_take_the_normal_form_exactly(self):
        # the Cayley image of Omega itself vanishes and Takagi completes u to I: g moves i I to Omega, Lambda = 0
        rng = np.random.default_rng(5)
        for n in (1, 2, 3):
            for _ in range(100):
                om = random_siegel(rng, n)
                spec = geodesic_between(om, om)
                assert np.array_equal(spec.g.matrix, siegel._move_to_base(om))
                assert np.array_equal(spec.lam, np.zeros(n))
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

    def test_one_check_and_two_points_per_normal_form(self, rng, monkeypatch):
        # the normal form is one product checked once; only gamma(0) and gamma(1) become points
        calls = {"_store": 0, "SiegelPoint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for n in (1, 2, 3):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            with monkeypatch.context() as m:
                m.setattr(SymplecticMap, "_store", counted("_store", SymplecticMap._store))
                m.setattr(SiegelPoint, "__post_init__", counted("SiegelPoint", SiegelPoint.__post_init__))
                calls.update(dict.fromkeys(calls, 0))
                spec = geodesic_between(om, omp)
                assert calls == {"_store": 1, "SiegelPoint": 2}
                calls.update(dict.fromkeys(calls, 0))
                geodesic_eval(spec, 0.3)
                assert calls == {"_store": 0, "SiegelPoint": 1}

    def test_endpoint_residual_is_computed_once(self, rng, monkeypatch):
        # the guard in geodesic_between and the caller's report share one computation
        times = []
        monkeypatch.setattr(siegel, "geodesic_eval", lambda spec, t: times.append(t) or geodesic_eval(spec, t))
        spec = geodesic_between(random_siegel(rng, 2), random_siegel(rng, 2))
        first = spec.endpoint_residual()
        assert spec.endpoint_residual() == first
        assert times == [0.0, 1.0]


def metric_distance(om, omp) -> float:
    """2 ||Lambda||_F of the normal form: the geodesic distance, as ds = 2 sqrt(sum lambda_j^2) dt
    along i exp(2 Lambda t) under the displayed metric."""
    return 2.0 * float(np.linalg.norm(geodesic_between(om, omp).lam))


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


def _same_subspace(w1, w2, tol=1e-10) -> bool:
    """The columns of w2 lie in the span of the orthonormal columns of w1."""
    return bool(np.abs(w2 - w1 @ (w1.T @ w2)).max() <= tol * max(1.0, np.abs(w2).max()))


def _is_lagrangian(w, tol=1e-12) -> bool:
    return bool(np.abs(w.T @ symplectic_form_matrix(w.shape[0] // 2) @ w).max() <= tol)


def _polarization(g: SymplecticMap) -> BoundaryPolarization:
    return BoundaryPolarization(MetaplecticElement.principal_lift(g))


class TestBoundary:
    def test_positive_rates_reach_boundary(self):
        spec = geodesic_between(standard_point(2), diagonal_point([np.e**2, np.e**2]))
        lminus, lplus = geodesic_boundary_limits(spec)
        assert lminus is not None and lplus is not None
        assert _is_lagrangian(lminus.span) and _is_lagrangian(lplus.span)
        assert np.abs(lminus.span[:2]).max() < 1e-12  # x = 0 subspace
        assert np.abs(lplus.span[2:]).max() < 1e-12  # y = 0 subspace
        assert lminus.transverse_to(lplus)

    def test_zero_rate_has_no_limit(self):
        om = standard_point(2)
        spec = geodesic_between(om, om)
        assert geodesic_boundary_limits(spec) == (None, None)
        spec2 = geodesic_between(om, diagonal_point([np.e**2, 1.0]))
        assert geodesic_boundary_limits(spec2) == (None, None)

    def test_transverse_pair_recovered(self, rng):
        # the limits of g . (i exp(2t)) are g . L- and g . L+, the column spans of g
        g = random_symplectic(rng, 2)
        spec = GeodesicSpec(
            g,
            np.ones(2),
            act_on_siegel(g, standard_point(2)),
            act_on_siegel(g, diagonal_point([np.e**2, np.e**2])),
        )
        out_minus, out_plus = geodesic_boundary_limits(spec)
        assert _same_subspace(out_minus.span, g.matrix[:, 2:], tol=1e-8)
        assert _same_subspace(out_plus.span, g.matrix[:, :2], tol=1e-8)
        assert out_minus.close_to(_polarization(g)) and out_minus.transverse_to(out_plus)
        assert _same_subspace(BoundaryPolarization.from_span(g.matrix[:, :2]).span, out_plus.span)

    def test_shear_graph_is_lagrangian(self):
        shear = [[0.4, 0.1], [0.1, -0.7]]
        pol = BoundaryPolarization.from_span(np.vstack([np.eye(2), shear]))
        f = pol.span
        assert _is_lagrangian(f)
        assert np.allclose(f[2:] @ np.linalg.inv(f[:2]), shear)
        assert np.allclose(f.T @ f, np.eye(2)) and not f.flags.writeable


class TestPolarizationSpan:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_transverse_to_is_the_product_of_principal_angle_sines(self, n):
        rng = np.random.default_rng(100 + n)
        j0 = symplectic_form_matrix(n)
        for _ in range(40):
            a, b = _polarization(random_symplectic(rng, n)), _polarization(random_symplectic(rng, n))
            cosines = np.linalg.svd(a.span.T @ b.span, compute_uv=False)
            sines = np.prod(np.sqrt(np.clip(1.0 - cosines**2, 0.0, None)))
            assert abs(abs(np.linalg.det(a.span.T @ j0 @ b.span)) - sines) <= 1e-12
            assert a.transverse_to(b) == (sines > TRANSVERSALITY_TOL) == b.transverse_to(a)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shared_directions_are_not_transverse(self, n):
        # the upper shear (I, S; 0, I) moves L- to {(S y, y)}, which meets L- in ker S
        rng = np.random.default_rng(200 + n)
        g = random_symplectic(rng, n)
        pol = _polarization(g)
        assert not pol.transverse_to(pol)
        for rank in range(n + 1):
            x = rng.normal(size=(n, rank))
            s = x @ x.T
            sheared = _polarization(compose(g, SymplecticMap(np.eye(n), s, np.zeros((n, n)), np.eye(n))))
            assert sheared.transverse_to(pol) == (rank == n)

    def test_non_lagrangian_span_raises(self):
        with pytest.raises(SpRelationViolatedError):
            BoundaryPolarization.from_span(np.vstack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))
        with pytest.raises(SpRelationViolatedError):
            BoundaryPolarization.from_span(np.eye(4)[:, [0, 2]])  # the symplectic pair x1, y1
