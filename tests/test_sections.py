import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import siegelflow._gaussint as gaussint
import siegelflow.sections as sections
import siegelflow.suites as suites
from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GridTooCoarseError,
    GaussianSection,
    NonFiniteError,
    MetaplecticElement,
    NotIntegrableError,
    PolarizationMismatchError,
    SiegelPoint,
    SymplecticMap,
    bergman_project,
    coherent_state,
    corrected_inner_product,
    diagonal_point,
    difference_norm,
    fock_coefficients,
    fock_state,
    fourier,
    from_fock_coefficients,
    inner_product,
    inner_product_cross_frame,
    momentum_profile,
    norm,
    oracle_inner_product,
    random_siegel,
    random_symplectic,
    section_from_json,
    section_to_json,
    segal_bargmann,
    segal_bargmann_inverse,
    standard_point,
    vacuum,
)
from siegelflow._gaussint import integrate_out
from siegelflow.sections import (
    QUAD_NODES_DEFAULT,
    QUAD_NODES_MAX,
    _envelope_form,
    _fit_log_quadratic,
    _hermite_grid,
    _hermite_grid_sum,
    _hermite_table,
    _placement,
    _principal_placement,
)
from siegelflow.suites import suite_unitarity
from siegelflow.transport import _halfform_log, bogoliubov_scale, transport_corrected, transport_uncorrected

from _reference import difference_norm_pointwise, grid_sum_built_per_call, other_lift, scaled
from conftest import random_gaussian_section, random_profile, standard_profile

I1 = standard_point(1)
# Gaussian profiles on L-, as extra frames of the residual-norm cases
BOUNDARY_FRAMES = [pytest.param(BoundaryPolarization.position(n), id=f"boundary-{n}") for n in (1, 2)]
# L- again, reduced to itself through the shear (I, 0; S, I) in place of the identity
SHEARED = BoundaryPolarization(
    MetaplecticElement.principal_lift(SymplecticMap(np.eye(1), np.zeros((1, 1)), [[0.7]], np.eye(1)))
)


def _section_over(rng, frame):
    """A random Gaussian section over a random Kaehler point of dimension
    ``frame``, or a random Gaussian profile when ``frame`` is a BoundaryPolarization."""
    if isinstance(frame, BoundaryPolarization):
        return random_profile(rng, frame.n, poly=False)
    return random_gaussian_section(rng, random_siegel(rng, frame))


class TestQuadratureOracle:
    """The oracle is validated against analytic 1-D Gaussian facts first;
    every closed-form constant below is frozen only after the oracle agrees."""

    def test_unit_gaussian_normalization(self):
        for omega in (I1, diagonal_point([2.5]), random_siegel(np.random.default_rng(1), 2)):
            f = lambda v: np.exp(-np.einsum("...i,ij,...j->...", v, omega.gram_matrix, v))
            # the library sums a callable on two axes only: the polynomial pairs of n = 1
            grid_sum = _hermite_grid_sum if omega.n == 1 else grid_sum_built_per_call
            val = grid_sum(f, _placement(omega.gram_matrix), QUAD_NODES_DEFAULT)
            assert abs(val - 1.0) < 1e-12

    def test_odd_integrand_vanishes(self):
        odd = lambda v: (v[..., 0] ** 3 + v[..., 1]) * np.exp(-0.5 * (v**2).sum(axis=-1))
        val = _hermite_grid_sum(odd, _placement(0.5 * np.eye(2)), QUAD_NODES_DEFAULT)
        assert abs(val) < 1e-14

    def test_grids_past_the_largest_supported_count_raise(self):
        psi = vacuum(I1)
        assert abs(oracle_inner_product(psi, psi, nodes=QUAD_NODES_MAX) - 1.0) < 1e-12
        for nodes in (QUAD_NODES_MAX + 1, 400):
            with pytest.raises(ValueError, match=f"at most {QUAD_NODES_MAX}"):
                oracle_inner_product(psi, psi, nodes=nodes)

    def test_closed_form_matches_oracle_random(self, rng):
        # the 64-node/1e-6 battery across random m, b with ||m|| <= 0.8
        worst = 0.0
        for k in range(50):
            n = 1 if k < 42 else 2
            omega = random_siegel(rng, n)
            p1 = random_gaussian_section(rng, omega)
            p2 = random_gaussian_section(rng, omega)
            closed = inner_product(p1, p2)
            orac = oracle_inner_product(p1, p2, nodes=64 if n == 1 else 48)
            worst = max(worst, abs(closed - orac) / max(1.0, abs(closed)))
        assert worst < 1e-6


def _brute_oracle(p1, p2, nodes):
    """<p1, p2> with the integrand evaluated at every grid point of the oracle's grid, built per call:
    the fitted integrand's principal axes for degree-0 pairs, else the mean envelope."""
    if p1.degree or p2.degree:
        placement = _placement(0.5 * (_envelope_form(p1) + _envelope_form(p2)))
    else:
        placement = _principal_placement(_fit_log_quadratic(p1, p2))
    return grid_sum_built_per_call(lambda v: np.conj(p1.value(v)) * p2.value(v), placement, nodes)


class TestCachedGrid:
    """A callable's tensor grid comes from a cache per (nodes, dims), bit-identical
    to the grid built on every call."""

    def test_sums_are_bit_identical_to_the_grid_built_per_call(self, rng):
        om, pol = random_siegel(rng, 1), BoundaryPolarization.position(1)
        kaehler = (random_gaussian_section(rng, om), GaussianSection(om, [[0.2]], [0.3j], 0.1, [1.0, -0.5, 0.25j]))
        profiles = (random_profile(rng, poly=False, frame=pol), GaussianSection(pol, [[-0.7]], [0.2], 0.0, [0.5, 1.0]))
        # the difference norm's grids on a Kaehler pair and a polarization pair
        cases = ((kaehler, 0.25, 48, True), (profiles, 0.5, 300, True))
        for (a, b), spread, nodes, diff in cases:
            placement = _placement(spread * (_envelope_form(a) + _envelope_form(b)))

            def f(v):
                return np.abs(a.value(v) - b.value(v)) ** 2 if diff else np.conj(a.value(v)) * b.value(v)

            want = grid_sum_built_per_call(f, placement, nodes)
            assert _hermite_grid_sum(f, placement, nodes) == want
            assert _hermite_grid_sum(f, placement, nodes) == want  # and from the cache

    def test_grid_is_built_once_and_read_only(self):
        grid = _hermite_grid(16, 2)
        assert _hermite_grid(16, 2) is grid
        assert not any(arr.flags.writeable for arr in grid)
        logw = _hermite_table(16)[1]
        assert grid[0].shape == (256, 2) and np.array_equal(grid[1], np.exp(np.add.outer(logw, logw).ravel()))


class TestFactorisedOracle:
    """Degree-0 integrands are summed on a grid along their principal axes as one
    product of one-axis sums, which the brute grid reproduces point by point."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("nodes", [16, 24, 32])
    def test_matches_the_brute_grid(self, rng, n, nodes):
        for _ in range(3):
            p1 = random_gaussian_section(rng, random_siegel(rng, n))
            p2 = random_gaussian_section(rng, random_siegel(rng, n))
            brute = _brute_oracle(p1, p2, nodes)
            assert abs(oracle_inner_product(p1, p2, nodes=nodes) - brute) <= 1e-13 * abs(brute)

    @pytest.mark.parametrize("n, draws", [(1, 4), (2, 1)])
    def test_principal_axes_match_the_axis_aligned_grid(self, rng, n, draws):
        # at 64 nodes both rules have converged: every point of the grid whitened
        # along the coordinate axes gives the same sum
        for _ in range(draws):
            p1 = random_gaussian_section(rng, random_siegel(rng, n))
            p2 = random_gaussian_section(rng, random_siegel(rng, n))
            fit = _fit_log_quadratic(p1, p2)
            aligned = grid_sum_built_per_call(lambda v: np.exp(fit.log(v)), _placement(-0.5 * fit.q.real), 64)
            assert abs(oracle_inner_product(p1, p2, nodes=64) - aligned) <= 1e-12 * abs(aligned)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_principal_axes_leave_no_cross_terms(self, rng, n):
        # the off-diagonal of P^T q P is what the product of one-axis sums drops
        for _ in range(20):
            p1 = random_gaussian_section(rng, random_siegel(rng, n))
            p2 = random_gaussian_section(rng, random_siegel(rng, n))
            fit = _fit_log_quadratic(p1, p2)
            p, _ = _principal_placement(fit)
            q = p.T @ fit.q @ p
            assert np.abs(q - np.diag(np.diag(q))).max() <= 1e-13 * np.abs(q).max()

    def test_n3_gaussians_match_the_closed_form(self, rng):
        for _ in range(5):
            om, omp = random_siegel(rng, 3), random_siegel(rng, 3)
            p1 = transport_uncorrected(random_gaussian_section(rng, om), omp)
            p2 = transport_uncorrected(random_gaussian_section(rng, om), omp)
            closed = inner_product(p1, p2)
            assert abs(oracle_inner_product(p1, p2, nodes=64) - closed) <= 1e-12 * max(1.0, abs(closed))

    def test_n3_without_a_fit_and_n4_name_their_limits(self, rng, monkeypatch):
        p1 = random_gaussian_section(rng, random_siegel(rng, 3))
        p2 = random_gaussian_section(rng, random_siegel(rng, 3))
        plain = GaussianSection.log_value
        monkeypatch.setattr(GaussianSection, "log_value", lambda self, v: plain(self, v) + 0.01 * v[..., 0] ** 3)
        with pytest.raises(NotIntegrableError, match="fit misses a check point by"):
            oracle_inner_product(p1, p2)
        psi = vacuum(standard_point(4))
        with pytest.raises(ValueError, match="n <= 3"):
            oracle_inner_product(psi, psi)

    def test_polynomial_section_takes_the_brute_grid(self):
        p1 = GaussianSection(I1, [[-0.2]], [0.1j], 0.0, [0.3, 0.0, 1.0])
        p2 = GaussianSection(diagonal_point([1.9]), [[0.15]], [-0.2], 0.1)
        assert oracle_inner_product(p1, p2, nodes=32) == _brute_oracle(p1, p2, 32)

    def test_log_value_takes_gaussians_and_names_a_polynomial_degree(self):
        v = np.array([[0.0, 0.0], [0.7, -1.2], [2.0, 0.5]])
        gauss = GaussianSection(I1, [[-0.2]], [0.1j], 0.3)
        assert np.abs(np.exp(gauss.log_value(v)) - gauss.value(v)).max() <= 1e-15 * np.abs(gauss.value(v)).max()
        for coeffs, degree in (([0.3, 1.0], 1), ([0.3, 0.0, 1.0], 2)):
            with pytest.raises(ValueError, match=f"degree 0, not of degree {degree}$"):
                GaussianSection(I1, [[-0.2]], [0.1j], 0.0, coeffs).log_value(v)

    @pytest.mark.parametrize("perturb", ["cubic", "nan_at_origin"])
    def test_non_quadratic_or_non_finite_probes_raise(self, rng, monkeypatch, perturb):
        p1 = random_gaussian_section(rng, random_siegel(rng, 2))
        p2 = random_gaussian_section(rng, random_siegel(rng, 2))
        plain = GaussianSection.log_value

        def log_value(self, v):
            v = np.asarray(v, dtype=float)
            out = plain(self, v)
            if perturb == "cubic":
                return out + 0.01 * v[..., 0] ** 3
            # the probe at v = 0; an even grid has no node there
            return np.where((v == 0).all(axis=-1), np.nan, out)

        monkeypatch.setattr(GaussianSection, "log_value", log_value)
        error, match = (NotIntegrableError, "fit misses") if perturb == "cubic" else (NonFiniteError, "not finite")
        for miss in (lambda: _fit_log_quadratic(p1, p2), lambda: oracle_inner_product(p1, p2, nodes=16)):
            with pytest.raises(error, match=match):
                miss()

    def test_repeated_call_is_bit_identical(self, rng):
        p1 = random_gaussian_section(rng, random_siegel(rng, 2))
        p2 = random_gaussian_section(rng, random_siegel(rng, 2))
        assert oracle_inner_product(p1, p2, nodes=32) == oracle_inner_product(p1, p2, nodes=32)

    def test_independent_of_the_closed_forms(self, rng, monkeypatch):
        pairs = []
        for n, nodes in ((1, 48), (2, 48), (3, 64)):
            p1 = random_gaussian_section(rng, random_siegel(rng, n))
            p2 = random_gaussian_section(rng, random_siegel(rng, n))
            pairs.append((p1, p2, nodes, inner_product_cross_frame(p1, p2)))

        def closed_form_called(*args, **kwargs):
            raise AssertionError("the oracle reached a closed form")

        monkeypatch.setattr(GaussianSection, "real_quadratic", closed_form_called)
        for module in (gaussint, sections):
            for name in ("integrate_out", "half_logdet", "kernel_apply_poly", "taylor", "_poly_gauss_pairing"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, closed_form_called)
        for p1, p2, nodes, closed in pairs:
            assert abs(oracle_inner_product(p1, p2, nodes=nodes) - closed) < 1e-12 * max(1.0, abs(closed))


class TestOracleRefinement:
    @pytest.mark.parametrize("seed", [426993461, 667347789])
    def test_under_resolved_draws_refine_to_pass(self, seed):
        # at a fixed 32 nodes these draws were 7.3e-5 and 0.39 off against 1e-5
        rows = suite_unitarity(seed=seed, trials=2, oracle_trials=3, nodes=32)
        assert all(r["passed"] for r in rows)

    def test_chirped_pair_refines_past_the_start(self, monkeypatch):
        # Im q' has eigenvalues down to -3.3 on the principal axes, where 32 nodes
        # resolve the chirp to about 1e-5 only
        m1 = [[-0.54 - 0.67j, -0.15 - 0.03j], [-0.15 - 0.03j, 0.25 + 0.38j]]
        m2 = [[-0.71 + 0.52j, -0.03 - 0.14j], [-0.03 - 0.14j, -0.2 - 0.34j]]
        p1 = GaussianSection(standard_point(2), m1, [0.7 - 0.19j, -0.01 - 0.86j], 0.0)
        p2 = GaussianSection(standard_point(2), m2, [0.0, 0.0], 0.0)
        closed = inner_product(p1, p2)
        assert abs(oracle_inner_product(p1, p2, nodes=32) - closed) > 1e-7 * abs(closed)
        seen = []

        def counting_sum(f, placement, nodes):
            seen.append(nodes)
            return _hermite_grid_sum(f, placement, nodes)

        monkeypatch.setattr(sections, "_hermite_grid_sum", counting_sum)
        assert abs(oracle_inner_product(p1, p2, nodes=32, tol=1e-7) - closed) <= 1e-12 * abs(closed)
        assert seen[0] == 32 and max(seen) > 32

    def test_no_agreement_by_eight_times_the_start_raises(self):
        psi = GaussianSection(diagonal_point([30.0]), [[0.5]], [2.0], 0.0)
        with pytest.raises(GridTooCoarseError):
            oracle_inner_product(psi, psi, 2, tol=1e-12)

    @pytest.mark.parametrize("start, grids", [(100, [100, 200, QUAD_NODES_MAX]), (QUAD_NODES_MAX, [QUAD_NODES_MAX])])
    def test_doubling_stops_at_the_largest_supported_count(self, monkeypatch, start, grids):
        seen = []

        def moving_sum(f, placement, nodes):
            seen.append(nodes)
            return complex(nodes)

        monkeypatch.setattr(sections, "_hermite_grid_sum", moving_sum)
        psi = vacuum(I1)
        with pytest.raises(GridTooCoarseError, match=f"by {QUAD_NODES_MAX} nodes"):
            oracle_inner_product(psi, psi, start, tol=1e-5)
        assert seen == grids

    def test_a_fixed_grid_is_the_first_level_of_a_refined_estimate(self, monkeypatch):
        # without tol the oracle sums its one grid; with it, the first sum is that grid's, bit for bit
        rng = np.random.default_rng(4242)
        for n in (1, 2, 3):
            om = random_siegel(rng, n)
            p1, p2 = (random_gaussian_section(rng, om, m_cap=0.6) for _ in range(2))
            fixed, sums = oracle_inner_product(p1, p2, nodes=24), []
            monkeypatch.setattr(sections, "_hermite_grid_sum", lambda *a: sums.append(_hermite_grid_sum(*a)) or sums[-1])
            oracle_inner_product(p1, p2, nodes=24, tol=1e-7)
            monkeypatch.undo()
            assert sums[0] == fixed


class TestCoherentStates:
    def test_zero_is_vacuum(self):
        c0 = coherent_state([0.0], I1)
        assert np.allclose(c0.m, 0) and np.allclose(c0.b, 0) and c0.c == 0

    def test_overlap_formula_frozen_from_oracle(self, rng):
        # <c_a, c_b> = exp(conj(b)^T a) with the unit-vacuum normalization
        for n in (1, 2):
            omega = random_siegel(rng, n)
            a = rng.normal(size=n) + 1j * rng.normal(size=n)
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            closed = inner_product(coherent_state(a, omega), coherent_state(b, omega))
            frozen = np.exp(np.conj(b) @ a)
            assert abs(closed - frozen) < 1e-12 * abs(frozen)
            orac = oracle_inner_product(coherent_state(a, omega), coherent_state(b, omega))
            assert abs(orac - frozen) < 1e-8 * abs(frozen)

    def test_norm_squared_at_half_one_plus_i(self):
        alpha = np.array([(1 + 1j) / 2])
        c = coherent_state(alpha, I1)
        frozen = np.exp(np.abs(alpha) ** 2).item()
        assert abs(inner_product(c, c) - frozen) < 1e-12
        assert abs(oracle_inner_product(c, c) - frozen) < 1e-9

    def test_vacuum_unit_norm_every_frame(self, rng):
        for n in (1, 2, 3):
            assert abs(norm(vacuum(random_siegel(rng, n))) - 1.0) < 1e-12


class TestInnerProducts:
    def test_cross_frame_inputs_rejected_by_same_frame_product(self):
        with pytest.raises(ValueError):
            inner_product(vacuum(I1), vacuum(diagonal_point([2.0])))

    def test_cross_frame_vacuum_overlap(self):
        # forced by the rescaled-projection identity: <vac', vac> = sech(t)
        for t in (0.4, 1.0, 1.7):
            val = inner_product_cross_frame(
                vacuum(diagonal_point([np.exp(2 * t)])), vacuum(I1)
            )
            assert abs(val - 1 / np.cosh(t)) < 1e-12
        orac = oracle_inner_product(vacuum(diagonal_point([np.exp(2.0)])), vacuum(I1))
        assert abs(orac - 1 / np.cosh(1.0)) < 1e-8

    def test_hermitian_symmetry(self, rng):
        om1, om2 = random_siegel(rng, 2), random_siegel(rng, 2)
        p1 = random_gaussian_section(rng, om1)
        p2 = random_gaussian_section(rng, om2)
        a = inner_product_cross_frame(p1, p2)
        b = inner_product_cross_frame(p2, p1)
        assert abs(a - np.conj(b)) < 1e-12 * max(1.0, abs(a))

    def test_not_integrable_guard(self):
        with pytest.raises(NotIntegrableError):
            GaussianSection(I1, [[1.0]], [0.0], 0.0)
        with pytest.raises(NotIntegrableError):
            integrate_out(np.eye(2), np.zeros((2, 0)), np.zeros(2), 0.0)


class TestBergmanProjection:
    def test_reproduces_coherent_states(self, rng):
        omega = random_siegel(rng, 2)
        c = coherent_state(rng.normal(size=2) + 1j * rng.normal(size=2), omega)
        assert difference_norm(bergman_project(c, omega), c) < 1e-12 * norm(c)

    def test_vacuum_into_squeezed_frame(self):
        # P vac_i into ie^2 carries the closed-form Gaussian with m = -tanh(1)
        out = bergman_project(vacuum(I1), diagonal_point([np.e**2]))
        assert abs(out.m[0, 0] + np.tanh(1.0)) < 1e-12
        assert abs(out.b[0]) < 1e-14
        # scalar checked against the oracle evaluation of the kernel integral
        orac = oracle_inner_product(vacuum(diagonal_point([np.e**2])), vacuum(I1))
        assert abs(np.exp(out.c) - orac) < 1e-8

    def test_idempotent(self, rng):
        omega, omega_p = random_siegel(rng, 2), random_siegel(rng, 2)
        psi = random_gaussian_section(rng, omega)
        once = bergman_project(psi, omega_p)
        twice = bergman_project(once, omega_p)
        assert difference_norm(once, twice) < 1e-8 * max(1.0, norm(once))

    def test_norm_nonincreasing(self, rng):
        for k in range(20):
            n = 1 if k < 16 else 2
            nodes = 64 if n == 1 else 32
            omega, omega_p = random_siegel(rng, n), random_siegel(rng, n)
            psi = random_gaussian_section(rng, omega, m_cap=0.6)
            before = np.sqrt(oracle_inner_product(psi, psi, nodes=nodes).real)
            proj = bergman_project(psi, omega_p)
            after = np.sqrt(oracle_inner_product(proj, proj, nodes=nodes).real)
            assert after <= before * (1 + 1e-8)

    def test_polynomial_projection_reproduces_oracle_pairings(self):
        # <c_w, P psi> = <c_w, psi> for coherent states c_w of the target frame
        omega = SiegelPoint.from_complex([[0.3 + 1.2j]])
        omega_p = SiegelPoint.from_complex([[-0.4 + 0.7j]])
        psi = GaussianSection(omega, [[0.3 + 0.2j]], [0.4 - 0.3j], 0.05, [0.5, -0.3j, 0.2, 0.1 + 0.1j])
        proj = bergman_project(psi, omega_p)
        assert proj.degree == 3
        for w in (0.0, 0.6 - 0.2j, -0.3 + 0.8j, 1.1 + 0.4j):
            c_w = coherent_state([w], omega_p)
            orac = oracle_inner_product(c_w, psi)
            closed = inner_product(c_w, proj)
            assert abs(closed - orac) < 1e-8 * max(1.0, abs(orac))


class TestFockStates:
    def test_zero_is_vacuum(self):
        f0 = fock_state(0, I1)
        assert np.allclose(f0.coeffs, [1.0]) and f0.m == 0 and f0.b == 0

    def test_orthonormal_family(self):
        for j in range(8):
            for k in range(8):
                val = inner_product(fock_state(j, I1), fock_state(k, I1))
                assert abs(val - (1.0 if j == k else 0.0)) < 1e-12

    def test_orthonormality_against_oracle(self):
        assert abs(oracle_inner_product(fock_state(3, I1), fock_state(3, I1)) - 1) < 1e-9
        assert abs(oracle_inner_product(fock_state(4, I1), fock_state(2, I1))) < 1e-9

    def test_coherent_expansion(self):
        from math import factorial

        alpha = 0.7 - 0.4j
        coeffs = fock_coefficients(coherent_state([alpha], I1), 10)
        for k in range(10):
            assert abs(coeffs[k] - np.conj(alpha) ** k / np.sqrt(factorial(k))) < 1e-12

    def test_high_index_round_trip(self):
        # 200! overflows a float; the Fock normalisation is taken in log space
        expected = np.eye(1, 256, 200)[0]
        assert np.abs(fock_coefficients(fock_state(200, I1), 256) - expected).max() < 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="k must be >= 0"):
            fock_state(-1, I1)

    @pytest.mark.parametrize("n_trunc", [-2, 0])
    def test_truncation_below_one_state_rejected_naming_it(self, n_trunc):
        with pytest.raises(ValueError, match=f"n_trunc must be at least 1, not {n_trunc}"):
            fock_coefficients(vacuum(I1), n_trunc)

    @pytest.mark.parametrize(
        "make",
        [lambda: GaussianSection(I1, [[0.0]], [0.0], 0.0, []), lambda: from_fock_coefficients([], I1)],
        ids=["section", "fock"],
    )
    def test_empty_coefficients_rejected(self, make):
        with pytest.raises(ValueError, match="at least one coefficient"):
            make()

    def test_polynomial_inner_products_cross_frame(self, rng):
        p1 = GaussianSection(I1, [[-0.2]], [0.1j], 0.0, [0.3, 0.0, 1.0])
        p2 = GaussianSection(diagonal_point([1.9]), [[0.15]], [-0.2], 0.1, [1.0, 0.5j])
        closed = inner_product_cross_frame(p1, p2)
        orac = oracle_inner_product(p1, p2)
        assert abs(closed - orac) < 1e-8 * max(1.0, abs(closed))


class TestOvercompleteness:
    def test_reproducing_superposition(self):
        # integral over w of c_w <c_w, psi> e^{-|w|^2} recovers psi pointwise
        psi = GaussianSection(I1, [[0.3 - 0.2j]], [0.4j], 0.1)
        e = I1.coord_matrix
        g = I1.gram_matrix
        points = np.array([[0.2, 0.1], [-0.6, 0.4], [0.9, -0.3]])

        for v0 in points:
            z0 = (e @ v0)[0]

            def integrand(v):
                w = (v @ e.T)[..., 0]
                phi_at_w = np.exp(0.5 * psi.m[0, 0] * w**2 + psi.b[0] * w + psi.c)
                cw_at_z0 = np.exp(np.conj(w) * z0 - 0.5 * abs(z0) ** 2)
                return cw_at_z0 * phi_at_w * np.exp(-np.einsum("...i,ij,...j->...", v, g, v))

            val = _hermite_grid_sum(integrand, _placement(g), QUAD_NODES_DEFAULT)
            assert abs(val - psi.value(v0)) < 1e-8


class TestHalfForms:
    """Half-form pairings through the one det^{1/2} rule, ``_halfform_log``."""

    def test_unit_self_pairing(self, rng):
        om = random_siegel(rng, 2)
        assert abs(np.exp(_halfform_log(om, om)) - 1.0) < 1e-12
        # over one polarization a unit half-form coefficient, part of c, pairs away
        s = CorrectedSection(scaled(standard_profile(2), np.exp(0.3j)))
        assert abs(corrected_inner_product(s, s) - 1.0) < 1e-14

    def test_kaehler_pair_value(self):
        val = np.exp(_halfform_log(I1, diagonal_point([np.e**2])))
        assert abs(val - np.sqrt((np.e**2 + 1) / 2) / np.sqrt(np.e)) < 1e-12

    def test_momentum_position_pairing(self):
        # exp(-|u|^2/2) is its own Fourier transform up to the i^{n/2} of the
        # momentum half-form against the position one
        for n in (1, 2):
            s = CorrectedSection(GaussianSection(BoundaryPolarization.position(n), -np.eye(n), np.zeros(n), 0.0))
            chi = momentum_profile(fourier(s))
            ys = np.array([[0.0] * n, [0.7] * n, [-1.2] + [0.4] * (n - 1)])
            expected = 1j ** (n / 2) * np.exp(-0.5 * (ys**2).sum(axis=1))
            assert np.abs(chi.value(ys) - expected).max() < 1e-12

    def test_kaehler_position_pairing(self):
        # boundary limit of the Kaehler pairing: det((2 Y)^{-1/2} W / i)^{1/2}
        # (principal and continued roots agree at this point)
        om = random_siegel(np.random.default_rng(8), 2)
        val = np.exp(_halfform_log(BoundaryPolarization.position(2), om))
        det = np.linalg.det(om.imag_inv_sqrt() / np.sqrt(2.0) @ (om.omega / 1j))
        expected = np.sqrt(abs(det)) * np.exp(0.5j * np.angle(det))
        assert abs(val - expected) < 1e-12


class TestSerialization:
    def test_gaussian_round_trip(self, rng):
        psi = random_gaussian_section(rng, random_siegel(rng, 2))
        back = section_from_json(section_to_json(psi))
        assert difference_norm(psi, back) == 0.0

    def test_poly_round_trip(self):
        psi = GaussianSection(I1, [[0.1]], [0.2j], -0.05, [0.2, 1.0j, -0.3])
        data = section_to_json(psi)
        back = section_from_json(data)
        assert back.degree == 2
        pts = np.array([[0.3, -0.2], [0.8, 0.5]])
        assert np.abs(psi.value(pts) - back.value(pts)).max() < 1e-15


    def test_constant_polynomial_folds_into_c(self):
        psi = GaussianSection(I1, [[0.1]], [0.2j], -0.05, [2.0 - 1.0j])
        assert psi.degree == 0 and np.array_equal(psi.coeffs, [1.0])
        assert "poly" not in section_to_json(psi)
        pts = np.array([[0.3, -0.2], [0.8, 0.5]])
        plain = GaussianSection(I1, [[0.1]], [0.2j], -0.05)
        assert np.abs(psi.value(pts) - (2.0 - 1.0j) * plain.value(pts)).max() < 1e-15


class TestDifferenceNorm:
    def test_zero_for_equal(self, rng):
        psi = random_gaussian_section(rng, random_siegel(rng, 1))
        assert difference_norm(psi, psi) == 0.0

    def test_matches_closed_form_for_scaled_pair(self, rng):
        psi = random_gaussian_section(rng, random_siegel(rng, 1))
        doubled = GaussianSection(psi.frame, psi.m, psi.b, psi.c + np.log(2.0))
        assert abs(difference_norm(psi, doubled) - norm(psi)) < 1e-8 * norm(psi)

    @pytest.mark.parametrize("frame", [1, 2, *BOUNDARY_FRAMES])
    def test_closed_form_matches_pointwise_reference(self, rng, frame):
        # the pointwise norm's own noise is about eps / ||a - b||, relative
        eps = np.finfo(float).eps
        for size in (1e-1, 1e-3, 1e-6, 1e-9):
            for _ in range(3):
                a = _section_over(rng, frame)
                n = a.n
                dm = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
                db = rng.normal(size=n) + 1j * rng.normal(size=n)
                b = GaussianSection(a.frame, a.m + 0.05 * size * (dm + dm.T), a.b + size * db,
                                    a.c + size * (rng.normal() + 1j * rng.normal()))
                ref = difference_norm_pointwise(a, b, nodes=48 if n == 1 else 32)
                rel = ref / norm(a)
                assert abs(difference_norm(a, b) - ref) <= 500 * eps / rel * ref

    @pytest.mark.parametrize("kind", ["kaehler", "polarization"])
    def test_polynomial_pairs_match_a_fine_pointwise_reference(self, rng, kind):
        # each degree gets a residual-like pair (a and a perturbed copy) and a
        # pair of polynomials on one Gaussian part; two unrelated Gaussian parts
        # over a polarization differ by a chirp that 48 nodes do not resolve
        def cnormal(shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        for degree in range(1, 9):
            base = random_gaussian_section(rng, random_siegel(rng, 1)) if kind == "kaehler" else random_profile(rng, poly=False)
            a = GaussianSection(base.frame, base.m, base.b, base.c, cnormal(degree + 1))
            size = 10.0 ** -(1 + degree % 3)
            dm = cnormal((1, 1))
            perturbed = GaussianSection(a.frame, a.m + 0.1 * size * dm, a.b + size * cnormal(1),
                                        a.c + size * cnormal(()), a.coeffs + size * cnormal(degree + 1))
            other = GaussianSection(a.frame, a.m, a.b, a.c, cnormal(degree + 1))
            for b in (perturbed, other):
                ref = difference_norm_pointwise(a, b, QUAD_NODES_MAX)
                assert abs(difference_norm(a, b) - ref) <= 1e-6 * ref

    def test_pointwise_reference_sums_its_own_grid(self, rng, monkeypatch):
        # with the library's difference norm and grid sum made to raise, the reference gives the same values
        om, psi = random_siegel(rng, 1), _section_over(rng, 2)
        pairs = [(GaussianSection(om, [[0.2]], [0.3j], 0.1, [1.0, -0.5, 0.25j]), random_gaussian_section(rng, om)),
                 (random_profile(rng), random_profile(rng)),
                 (CorrectedSection(scaled(random_gaussian_section(rng, om), np.exp(0.4j))),
                  CorrectedSection(vacuum(om))),
                 (psi, GaussianSection(psi.frame, psi.m, psi.b, psi.c + 0.1))]
        want = [difference_norm_pointwise(a, b, 24) for a, b in pairs]

        def library_reached(*args, **kwargs):
            raise AssertionError("the pointwise reference reached the library's norm")

        for name in ("_norms", "_hermite_grid_sum"):
            monkeypatch.setattr(sections, name, library_reached)
        assert [difference_norm_pointwise(a, b, 24) for a, b in pairs] == want
        assert all(np.isfinite(want)) and min(want) > 0

    def test_independent_polynomial_profile_pairs_match_the_gram_formula(self, rng):
        # far apart, ||a||^2 + ||b||^2 - 2 Re <a, b> does not cancel and is a
        # reference; unrelated Gaussian parts leave a chirp in the cross term
        pairs = 0
        while pairs < 60:
            a, b = random_profile(rng), random_profile(rng)
            if not (a.degree or b.degree):
                continue
            pairs += 1
            gram = np.sqrt(norm(a) ** 2 + norm(b) ** 2 - 2 * inner_product(a, b).real)
            assert abs(difference_norm(a, b) - gram) <= 1e-9 * gram

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_distant_cross_frame_corrected_pair(self, rng, n):
        # far apart, ||a||^2 + ||b||^2 - 2 Re <a, b> does not cancel and is a reference
        a = CorrectedSection(scaled(random_gaussian_section(rng, random_siegel(rng, n)), np.exp(0.4j)))
        b = CorrectedSection(scaled(random_gaussian_section(rng, random_siegel(rng, n)), np.exp(-2.9j)))
        gram = norm(a.section) ** 2 + norm(b.section) ** 2 - 2 * corrected_inner_product(a, b).real
        assert abs(difference_norm(a, b) - np.sqrt(gram)) < 1e-12 * np.sqrt(gram)
        if n == 1:
            ref = difference_norm_pointwise(a, b, nodes=96)
            assert abs(difference_norm(a, b) - ref) < 1e-12 * ref

    @pytest.mark.parametrize("frame", [1, 2, 3, *BOUNDARY_FRAMES])
    def test_equal_inputs_give_exactly_zero(self, rng, frame):
        psi = _section_over(rng, frame)
        copy = GaussianSection(psi.frame, psi.m.copy(), psi.b.copy(), psi.c)
        assert difference_norm(psi, copy) == 0.0
        corrected = CorrectedSection(scaled(psi, np.exp(2.5j)))
        assert difference_norm(corrected, CorrectedSection(scaled(copy, np.exp(2.5j)))) == 0.0

    def test_halfform_phase_only_difference(self, rng):
        theta = 3e-9
        for n in (1, 2):
            psi = random_gaussian_section(rng, random_siegel(rng, n))
            a, b = (CorrectedSection(scaled(psi, np.exp(1j * x))) for x in (0.7, 0.7 + theta))
            got = difference_norm(a, b)
            want = 2 * np.sin(0.5 * theta) * norm(psi)
            assert abs(got - want) < 1e3 * np.finfo(float).eps / theta * want


class TestNonFiniteData:
    @pytest.mark.parametrize(
        "m, b, c, coeffs",
        [
            ([[0.1]], [np.nan], 0.0, [1.0]),
            ([[0.1]], [0.0], np.inf, [1.0]),
            ([[np.nan]], [0.0], 0.0, [1.0]),
            ([[0.1]], [0.0], 0.0, [1.0, np.inf]),
        ],
    )
    def test_section_rejects_non_finite_data(self, m, b, c, coeffs):
        with pytest.raises(NonFiniteError):
            GaussianSection(I1, m, b, c, coeffs)

    def test_huge_m_is_halved_before_the_norm_guard(self):
        with pytest.raises(NotIntegrableError):
            GaussianSection(I1, [[1e308]], [0.0], 0.0)

    @pytest.mark.parametrize(
        "coeffs, m, b, c",
        [([1.0], [[np.nan]], [0.0], 0.0), ([1.0], [[-1.0]], [np.inf], 0.0), ([np.nan], [[-1.0]], [0.0], 0.0)],
    )
    def test_profile_rejects_non_finite_data(self, coeffs, m, b, c):
        with pytest.raises(NonFiniteError):
            GaussianSection(BoundaryPolarization.position(1), m, b, c, coeffs)

    def test_profile_with_huge_m_is_not_mistaken_for_integrable(self):
        with pytest.raises(NotIntegrableError):
            GaussianSection(BoundaryPolarization.position(1), [[1e308]], [0.0], 0.0)

    # each overflow raises where it is made, before any RuntimeWarning
    def test_overflowing_pairing_raises_where_made(self):
        overflowing = [
            GaussianSection(I1, [[0.0]], [0.0], 400.0),  # exp of the Gaussian integral
            GaussianSection(I1, [[0.0]], [0.0], 400.0, [1.0, 1.0]),
            GaussianSection(I1, [[0.0]], [0.0], 0.0, [1.0, 1e300]),  # the polynomial moments
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for psi in overflowing:
                with pytest.raises(NonFiniteError):
                    inner_product(psi, psi)

    def test_overflowing_difference_norm_raises_where_made(self):
        pairs = [
            (GaussianSection(I1, [[0.0]], [0.0], 800.0), GaussianSection(I1, [[0.1]], [0.2], 800.0)),
            (GaussianSection(I1, [[0.0]], [0.0], 400.0, [1.0, 1.0]), GaussianSection(I1, [[0.1]], [0.2], 400.0)),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a, b in pairs:
                with pytest.raises(NonFiniteError):
                    difference_norm(CorrectedSection(a), CorrectedSection(b))


def _raw_entry(rng, frame, degree):
    """(m, b, c, coeffs) of a random section over ``frame`` as a caller hands them in, before the guard: a constant
    coefficient is not folded yet."""
    n = frame.n
    if isinstance(frame, BoundaryPolarization):
        base = random_profile(rng, n, poly=False, frame=frame)
    else:
        base = random_gaussian_section(rng, frame)
    return base.m, base.b, base.c, rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)


def _stacked(entries):
    """The entries' m, b and c stacked and their coeffs zero-padded, as ``sections._stack`` lays out a stack."""
    coeffs = np.zeros((len(entries), max(len(e[3]) for e in entries)), dtype=complex)
    for row, e in zip(coeffs, entries):
        row[: len(e[3])] = e[3]
    return (*(np.array([e[i] for e in entries], dtype=complex) for i in range(3)), coeffs)


def _degrees(entries):
    """Stand-ins that carry each entry's degree, all ``sections._sections`` reads of its ``psis``."""
    return [SimpleNamespace(degree=len(e[3]) - 1) for e in entries]


def _frames(rng, n):
    return [("kaehler", random_siegel(rng, n)), ("position", BoundaryPolarization.position(n)),
            ("polarization", BoundaryPolarization(MetaplecticElement.principal_lift(random_symplectic(rng, n))))]


class TestStackedGuard:
    """A stack of sections is checked once (``sections._checked`` on the stacked fields) and each entry gets the
    fields, the errors and the messages that the constructor gives it alone."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_stacked_fields_are_the_constructors_bit_for_bit(self, rng, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _, frame in _frames(rng, n):
                for k in range(1, 6):
                    entries = [_raw_entry(rng, frame, int(rng.integers(0, 5)) if n == 1 else 0) for _ in range(k)]
                    got = sections._sections(frame, *_stacked(entries), _degrees(entries))
                    for psi, entry in zip(got, entries, strict=True):
                        want = GaussianSection(frame, *entry)
                        assert type(psi) is GaussianSection and psi.frame is frame and type(psi.c) is complex
                        assert np.array(psi.c).tobytes() == np.array(want.c).tobytes()
                        for x, y in ((psi.m, want.m), (psi.b, want.b), (psi.coeffs, want.coeffs)):
                            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
                            assert not x.flags.writeable

    # (label, entry with one bad field); the good entries are random sections of degree 0..2
    BAD = [
        ("non-integrable m", lambda frame: (np.eye(frame.n) * (1.5 if isinstance(frame, SiegelPoint) else 0.5),
                                            np.zeros(frame.n), 0.0, [1.0])),
        ("non-finite m", lambda frame: (np.full((frame.n, frame.n), np.nan), np.zeros(frame.n), 0.0, [1.0])),
        ("non-finite b", lambda frame: (-0.5 * np.eye(frame.n), np.full(frame.n, np.inf), 0.0, [1.0])),
        ("non-finite c", lambda frame: (-0.5 * np.eye(frame.n), np.zeros(frame.n), complex(0.0, np.inf), [1.0])),
        ("non-finite coeffs", lambda frame: (-0.5 * np.eye(frame.n), np.zeros(frame.n), 0.0,
                                             [1.0, np.nan] if frame.n == 1 else [np.nan])),
        ("coeffs fold to log 0", lambda frame: (-0.5 * np.eye(frame.n), np.zeros(frame.n), 0.0, [0.0])),
        ("asymmetric m", lambda frame: (np.array([[-0.5, 1e-3], [0.0, -0.5]]) if frame.n == 2 else None,
                                        np.zeros(frame.n), 0.0, [1.0])),
    ]

    @pytest.mark.parametrize("label, bad", BAD, ids=[b[0] for b in BAD])
    def test_one_bad_entry_raises_what_the_constructor_raises(self, rng, label, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (1, 2):
                for _, frame in _frames(rng, n):
                    entry = bad(frame)
                    if entry[0] is None:
                        continue
                    with pytest.raises((ValueError, NonFiniteError, NotIntegrableError)) as alone:
                        GaussianSection(frame, *entry)
                    for k in range(1, 5):
                        for pos in range(k):
                            entries = [_raw_entry(rng, frame, int(rng.integers(0, 3)) if n == 1 else 0) for _ in range(k)]
                            entries[pos] = entry
                            with pytest.raises(type(alone.value)) as stacked:
                                sections._sections(frame, *_stacked(entries), _degrees(entries))
                            assert str(stacked.value) == str(alone.value), (label, k, pos)


class TestStackedIntegrability:
    """``check_integrable`` takes a stack (..., n, n) and rejects it when any entry is not integrable."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_entry_is_checked(self, rng, n):
        for label, frame in _frames(rng, n):
            kaehler = isinstance(frame, SiegelPoint)
            good, bad = (0.3 * np.eye(n), 1.2 * np.eye(n)) if kaehler else (-np.eye(n), 0.5 * np.eye(n))
            for k in (1, 2, 3):
                frame.check_integrable(np.array([good] * k, dtype=complex))
                for pos in range(k):
                    stack = np.array([good] * k, dtype=complex)
                    stack[pos] = bad
                    with pytest.raises(NotIntegrableError):
                        frame.check_integrable(stack)

    def test_entries_near_the_bound_pass_when_their_summed_squares_do_not(self):
        # ||diag(0.9, 0.9)||_F^2 = 1.62 is past the bound, its ||m||_2 = 0.9 is not
        m = np.array([np.diag([0.9, 0.9]), np.diag([0.9, -0.9j]), 0.999 * np.eye(2)], dtype=complex)
        standard_point(2).check_integrable(m)
        for entry in m:
            GaussianSection(standard_point(2), entry, np.zeros(2), 0.0)
        with pytest.raises(NotIntegrableError):
            standard_point(2).check_integrable(np.array([np.diag([0.9, 0.9]), np.diag([1.0, 0.0])], dtype=complex))


class TestStackedDifferenceNorm:
    """``difference_norm`` of two sequences, over one frame object a side, equals ``difference_norm`` pair by pair."""

    @staticmethod
    def _pairs(rng, frame, k, degrees):
        xs, ys = [], []
        for _ in range(k):
            a = GaussianSection(frame, *_raw_entry(rng, frame, int(rng.choice(degrees))))
            size = 10.0 ** -rng.integers(1, 6)
            dm = rng.normal(size=(frame.n, frame.n)) + 1j * rng.normal(size=(frame.n, frame.n))
            b = GaussianSection(frame, a.m + 0.05 * size * (dm + dm.T), a.b + size * rng.normal(size=frame.n),
                                a.c + size * rng.normal(), a.coeffs + size * rng.normal(size=a.degree + 1))
            xs.append(CorrectedSection(scaled(a, np.exp(1j * rng.normal()))))
            ys.append(CorrectedSection(scaled(b, np.exp(1j * rng.normal()))))
        return xs, ys

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stacks_match_one_call_per_pair(self, rng, n):
        for _, frame in _frames(rng, n):
            for degrees in ([0], [1, 2], [0, 1, 2]) if n == 1 else ([0],):
                xs, ys = self._pairs(rng, frame, 5, degrees)
                for got, x, y in zip(difference_norm(xs, ys), xs, ys, strict=True):
                    want = difference_norm(x, y)
                    assert abs(got - want) <= 1e-15 * want

    def test_a_sequence_gives_a_list_and_the_two_sides_match_in_length(self, rng):
        xs, ys = self._pairs(rng, standard_point(1), 3, [0])
        assert difference_norm(xs[:1], ys[:1]) == [difference_norm(xs[0], ys[0])]
        for a, b in ((xs, ys[:2]), ([], [])):
            with pytest.raises(ValueError):
                difference_norm(a, b)

    def test_a_stack_mixing_frame_objects_raises(self, rng):
        for pair in (([0], BoundaryPolarization.position(1)), ([1, 2], BoundaryPolarization.position(1)),
                     ([0], standard_point(2))):
            degrees, frame = pair
            xs, ys = self._pairs(rng, frame, 3, degrees)
            twin = BoundaryPolarization(frame.reference) if isinstance(frame, BoundaryPolarization) else \
                SiegelPoint(frame.omega1, frame.omega2)
            s = xs[1].section
            xs[1] = CorrectedSection(GaussianSection(twin, s.m, s.b, s.c, s.coeffs))
            with pytest.raises(ValueError, match="one frame object"):
                difference_norm(xs, ys)

    def test_an_overflowing_entry_raises(self, rng):
        frame = standard_point(1)
        for degrees in ([0], [1]):
            xs, ys = self._pairs(rng, frame, 3, degrees)
            a, b = xs[2].section, ys[2].section
            xs[2] = CorrectedSection(GaussianSection(frame, a.m, a.b, 800.0, a.coeffs))
            ys[2] = CorrectedSection(GaussianSection(frame, b.m, b.b, 800.0 + 1e-3, b.coeffs))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteError):
                    difference_norm(xs, ys)


class TestStackedPairing:
    """``inner_product``, ``inner_product_cross_frame`` and ``corrected_inner_product`` of two sequences, over one frame
    object a side, equal the one-pair calls bit for bit: the degree-0 pairs go through one stacked integral."""

    @staticmethod
    def _sides(rng, frames, k, degrees):
        return [[GaussianSection(f, *_raw_entry(rng, f, int(rng.choice(degrees)))) for _ in range(k)] for f in frames]

    @staticmethod
    def _same_bits(got, want):
        assert type(got) is type(want) and np.array(got).tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_stack_entries_are_the_one_pair_calls_bit_for_bit(self, rng, n):
        for label, frame in _frames(rng, n):
            # across Kaehler frames the right side lives over a second point
            other = random_siegel(rng, n) if label == "kaehler" else frame
            for degrees in ([0], [0, 1, 3]) if n == 1 else ([0],):
                for k in (1, 2, 6):
                    xs, ys = self._sides(rng, (frame, frame), k, degrees)
                    zs = self._sides(rng, (other,), k, degrees)[0]
                    for got, x, y in zip(inner_product(xs, ys), xs, ys, strict=True):
                        self._same_bits(got, inner_product(x, y))
                    for got, x, z in zip(inner_product_cross_frame(xs, zs), xs, zs, strict=True):
                        self._same_bits(got, inner_product_cross_frame(x, z))
                    hats, zhats = ([CorrectedSection(x) for x in side] for side in (xs, zs))
                    for got, x, z in zip(corrected_inner_product(hats, zhats), hats, zhats, strict=True):
                        self._same_bits(got, corrected_inner_product(x, z))

    def test_a_single_section_returns_a_complex_and_a_sequence_a_list(self, rng):
        xs, ys = self._sides(rng, (I1, I1), 3, [0, 2])
        for pairing in (inner_product, inner_product_cross_frame):
            assert isinstance(pairing(xs[0], ys[0]), complex) and isinstance(pairing(xs[1], ys[1]), complex)
            assert pairing(xs[:1], ys[:1]) == [pairing(xs[0], ys[0])]
        hat = CorrectedSection(xs[0])
        assert isinstance(corrected_inner_product(hat, hat), complex)
        assert corrected_inner_product([hat], [hat]) == [corrected_inner_product(hat, hat)]

    def test_unequal_lengths_and_two_frame_objects_on_a_side_raise(self, rng):
        xs, ys = self._sides(rng, (I1, I1), 3, [0])
        twin = SiegelPoint(I1.omega1, I1.omega2)
        mixed = xs[:2] + [GaussianSection(twin, xs[2].m, xs[2].b, xs[2].c)]
        for pairing in (inner_product, inner_product_cross_frame):
            for a, b in ((xs, ys[:2]), (xs[:1], ys), ([], []), (xs[0], ys)):
                with pytest.raises(ValueError):
                    pairing(a, b)
            for a, b in ((mixed, ys), (ys, mixed)):
                with pytest.raises(ValueError, match="one frame object"):
                    pairing(a, b)

    @pytest.mark.parametrize("pairing", [inner_product, inner_product_cross_frame, corrected_inner_product,
                                         difference_norm], ids=lambda f: f.__name__)
    def test_a_section_against_a_sequence_or_unequal_lengths_raise_naming_both_shapes(self, rng, pairing):
        xs, ys = self._sides(rng, (I1, I1), 3, [0])
        if pairing is corrected_inner_product:
            xs, ys = ([CorrectedSection(x) for x in side] for side in (xs, ys))
        for a, b, shapes in ((xs[0], ys[:1], "a section and a sequence of 1"),
                             (xs[:1], ys[0], "a sequence of 1 and a section"),
                             (xs[0], ys, "a section and a sequence of 3"),
                             (xs, ys[:2], "a sequence of 3 and a sequence of 2")):
            message = f"^{pairing.__name__} takes two sections or two sequences of as many, not {shapes}$"
            with pytest.raises(ValueError, match=message):
                pairing(a, b)

    def test_degree_171_overflows_alone_and_in_a_stack(self):
        # the float factorial weights of the polynomial route overflow past 170!, one pair or a stack
        bad = from_fock_coefficients(np.full(172, 0.1), I1)
        plain = [vacuum(I1), coherent_state([0.3], I1)]
        for pairing in (inner_product, inner_product_cross_frame):
            with pytest.raises(OverflowError):
                pairing(bad, bad)
            with pytest.raises(OverflowError):
                pairing([plain[0], bad, plain[1]], [plain[1], bad, plain[0]])

    def test_an_overflowing_degree_0_entry_raises(self):
        plain = [vacuum(I1), GaussianSection(I1, [[0.1]], [0.2], 400.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="pairing overflows"):
                inner_product(plain, plain)


class TestSectionKinds:
    """An entry given the other kind of section raises ValueError naming the kind it takes and the kind it got."""

    def test_transport_uncorrected_takes_plain_sections(self):
        for arg in (CorrectedSection(vacuum(I1)), [vacuum(I1), CorrectedSection(vacuum(I1))]):
            with pytest.raises(ValueError, match="transport_uncorrected takes a GaussianSection, not a CorrectedSection"):
                transport_uncorrected(arg, diagonal_point([2.0]))

    def test_transport_corrected_takes_corrected_sections(self):
        with pytest.raises(ValueError, match="transport_corrected takes a CorrectedSection, not a GaussianSection"):
            transport_corrected(vacuum(I1), diagonal_point([2.0]))

    def test_segal_bargmann_inverse_takes_corrected_sections(self):
        with pytest.raises(ValueError, match="segal_bargmann_inverse takes a CorrectedSection, not a GaussianSection"):
            segal_bargmann_inverse(vacuum(I1))

    def test_inner_product_takes_plain_sections(self):
        hat = CorrectedSection(vacuum(I1))
        for pairing in (inner_product, inner_product_cross_frame):
            for a, b in ((hat, vacuum(I1)), (vacuum(I1), hat)):
                with pytest.raises(ValueError, match="takes a GaussianSection, not a CorrectedSection"):
                    pairing(a, b)
        with pytest.raises(ValueError, match="corrected_inner_product takes a CorrectedSection, not a GaussianSection"):
            corrected_inner_product(hat, vacuum(I1))

    def test_difference_norm_takes_one_kind_on_both_sides(self):
        # one pair and a stack in both orders, and a stack mixed on one side: each used to give 0.0
        plain, hat = vacuum(I1), CorrectedSection(vacuum(I1))
        for a, b in ((hat, plain), (plain, hat), ([hat, hat], [plain, plain]), ([plain, plain], [hat, hat]),
                     ([plain, hat], [plain, plain])):
            with pytest.raises(ValueError, match="^difference_norm takes sections of one kind, not a CorrectedSection "
                                                 "and a GaussianSection$"):
                difference_norm(a, b)


class TestFrameKinds:
    """A profile on L- and a section over a Kaehler point are functions on
    different spaces; at n = 1 their real forms would otherwise broadcast."""

    def test_close_to_is_false_across_kinds(self):
        for n in (1, 2):
            assert not standard_point(n).close_to(BoundaryPolarization.position(n))
            assert not BoundaryPolarization.position(n).close_to(standard_point(n))
            assert BoundaryPolarization.position(n).close_to(BoundaryPolarization.position(n))
        assert not BoundaryPolarization.position(1).close_to(BoundaryPolarization.position(2))
        assert not standard_point(1).close_to(standard_point(2))

    @pytest.mark.parametrize(
        "n_boundary, n_kaehler, frame", [(1, 1, None), (2, 1, None), (1, 2, None), (1, 1, SHEARED)],
        ids=["1-1", "2-1", "1-2", "sheared-1"],
    )
    def test_cross_kind_pairings_raise_naming_both_frames(self, rng, n_boundary, n_kaehler, frame):
        prof = random_profile(rng, n_boundary, poly=False, frame=frame)
        psi = random_gaussian_section(rng, random_siegel(rng, n_kaehler))
        for a, b in ((prof, psi), (psi, prof)):
            for pairing in (inner_product_cross_frame, difference_norm):
                with pytest.raises(ValueError) as exc:
                    pairing(a, b)
                assert "BoundaryPolarization" in str(exc.value) and "SiegelPoint" in str(exc.value)
            with pytest.raises(ValueError, match="different frames"):
                inner_product(a, b)
            with pytest.raises(ValueError, match="BoundaryPolarization"):
                corrected_inner_product(CorrectedSection(a), CorrectedSection(b))
        with pytest.raises(ValueError, match="BoundaryPolarization"):
            bergman_project(prof, psi.frame)

    def test_polynomial_profile_in_a_kaehler_computation_raises(self):
        prof = GaussianSection(BoundaryPolarization.position(1), [[-1.0]], [0.0], 0.0, [0.0, 1.0])
        with pytest.raises(ValueError, match="BoundaryPolarization"):
            difference_norm(prof, fock_state(1, I1))
        with pytest.raises(ValueError, match="BoundaryPolarization"):
            fock_coefficients(prof)

    def test_the_other_lift_of_one_polarization_raises(self):
        # a lift built again compares close, the other lift of the same map does not
        for pol in (BoundaryPolarization.momentum(1), SHEARED, BoundaryPolarization.momentum(2)):
            twin, other = (BoundaryPolarization(MetaplecticElement(pol.reference.g, s * pol.reference.branch))
                           for s in (1, -1))
            assert pol.close_to(twin) and twin.close_to(pol)
            assert not pol.close_to(other) and not other.close_to(pol)
        # the unitary map into i honours the lift: the two unit Gaussians pair to -1 there
        p = BoundaryPolarization.position(1)
        q = BoundaryPolarization(other_lift(p.reference))
        assert not p.close_to(q) and not q.close_to(p)
        a, b = (CorrectedSection(GaussianSection(f, [[-1.0]], [0.0], 0.25 * np.log(2.0))) for f in (p, q))
        assert abs(corrected_inner_product(segal_bargmann(a, I1), segal_bargmann(b, I1)) + 1.0) < 1e-12
        for x, y in ((a, b), (b, a)):
            with pytest.raises(PolarizationMismatchError):
                corrected_inner_product(x, y)
            with pytest.raises(PolarizationMismatchError):
                difference_norm(x, y)

    def test_each_pairing_compares_the_lifts_once(self, rng, monkeypatch):
        # two equal copies of one polarization: both lifts are anchored at i*I, so the lift
        # check compares their branches and evaluates no phase_at; the other lift still raises
        calls, phase_at = [], MetaplecticElement.phase_at
        monkeypatch.setattr(MetaplecticElement, "phase_at", lambda *a: calls.append(1) or phase_at(*a))
        a = random_profile(rng, 1, poly=False, frame=BoundaryPolarization.momentum(1))
        b = GaussianSection(BoundaryPolarization(a.frame.reference), a.m, a.b, a.c)
        c = GaussianSection(BoundaryPolarization(other_lift(a.frame.reference)), a.m, a.b, a.c)
        for pairing in (inner_product, inner_product_cross_frame):
            assert abs(pairing(a, b) - pairing(a, a)) < 1e-12 * abs(pairing(a, a))
            pairing(a, a)
        with pytest.raises(PolarizationMismatchError):
            inner_product_cross_frame(a, c)
        assert not calls

    def test_same_subspace_with_another_reference_raises(self, rng):
        position = BoundaryPolarization.position(1)
        shared = np.abs(SHEARED.span - position.span @ (position.span.T @ SHEARED.span)).max()
        assert shared < 1e-12 and not position.close_to(SHEARED)
        assert not position.transverse_to(position) and not position.transverse_to(SHEARED)
        a = CorrectedSection(random_profile(rng, poly=False))
        b = CorrectedSection(random_profile(rng, poly=False, frame=SHEARED))
        for x, y in ((a, b), (b, a)):
            with pytest.raises(PolarizationMismatchError):
                corrected_inner_product(x, y)
            with pytest.raises(PolarizationMismatchError):
                difference_norm(x, y)

    def test_oracle_rejects_polarized_sections_naming_the_frame(self, rng):
        prof = random_profile(rng, poly=False)
        psi = random_gaussian_section(rng, I1)
        for a, b in ((prof, prof), (prof, psi), (psi, prof)):
            with pytest.raises(ValueError, match="BoundaryPolarization"):
                oracle_inner_product(a, b)
        with pytest.raises(ValueError, match="different spaces") as exc:
            oracle_inner_product(vacuum(I1), vacuum(standard_point(2)))
        assert str(exc.value).count("SiegelPoint") == 2

    def test_transport_to_a_point_of_another_n_names_both_frames(self):
        # the half-form root, taken before the Bergman kernel is built, checks the two frames
        with pytest.raises(ValueError, match="different spaces") as exc:
            transport_uncorrected(vacuum(I1), standard_point(2))
        assert str(exc.value).count("SiegelPoint") == 2

    @pytest.mark.parametrize("call", [lambda a, b: transport_corrected(CorrectedSection(vacuum(a)), b), bogoliubov_scale],
                             ids=["corrected", "scale"])
    def test_half_form_root_of_frames_of_two_n_names_both_frames(self, call):
        with pytest.raises(ValueError, match="are frames of different spaces") as exc:
            call(I1, standard_point(2))
        assert str(exc.value).count("SiegelPoint") == 2

    def test_standard_point_is_built_once_per_n(self):
        assert standard_point(2) is standard_point(2)
        assert standard_point(1) is I1 and standard_point(1) is not standard_point(2)

    def test_section_to_json_rejects_polarized_sections_naming_the_frame(self, rng):
        with pytest.raises(ValueError, match="BoundaryPolarization"):
            section_to_json(random_profile(rng))
