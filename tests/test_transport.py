import io
import json
import sys

import numpy as np
import pytest

from siegelflow import (
    CorrectedSection,
    GaussianSection,
    GridTooCoarseError,
    MetaplecticElement,
    NonFiniteError,
    SiegelPoint,
    TruncationOverflowError,
    bogoliubov_scale,
    coherent_state,
    corrected_inner_product,
    diagonal_point,
    difference_norm,
    fock_coefficients,
    fock_state,
    inner_product,
    metaplectic_act,
    norm,
    random_siegel,
    random_symplectic,
    standard_point,
    transport_coherent,
    transport_corrected,
    transport_equals_scaled_projection_check,
    transport_kernel_apply,
    transport_ode,
    transport_uncorrected,
    vacuum,
)
from siegelflow import _gaussint as gaussint
from siegelflow import sections, suites, transport
from siegelflow.cli import main
from siegelflow.sections import QUAD_NODES_DEFAULT, _hermite_grid_sum, _placement
from siegelflow.sympl import act_on_siegel
from siegelflow.transport import (
    _halfform_log,
    bogoliubov_scale_via_structures,
    transport_ode_coeffs,
)

from _reference import bogoliubov_operator_deformation, ladder_matrices, scaled, transport_coherent_standard
from conftest import random_gaussian_section

I1 = standard_point(1)


def _on_geodesic(lam: float, t: float) -> SiegelPoint:
    """The point i exp(2 lam t) of the standard geodesic."""
    return diagonal_point([np.exp(2.0 * lam * t)])


def cli_corrected_transport(om, omp, capsys, monkeypatch) -> dict:
    """outputs.transport of `siegelflow transport --corrected` for the vacuum at om."""
    points = [{"omega1": p.omega1.tolist(), "omega2": p.omega2.tolist()} for p in (om, omp)]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"omega": points[0], "omega_p": points[1]})))
    assert main(["transport", "--corrected"]) == 0
    return json.loads(capsys.readouterr().out)["outputs"]["transport"]


class TestStandardTransport:
    def test_time_zero_is_identity(self):
        alpha = np.array([0.4 + 0.3j])
        out = transport_coherent_standard(alpha, [1.0], 0.0)
        assert difference_norm(out, coherent_state(alpha, I1)) < 1e-14

    def test_vacuum_row(self):
        # sqrt(sech t) exp(-z^2 tanh(t)/2 - |z|^2/2)
        t = 0.8
        out = transport_coherent_standard([0.0], [1.0], t)
        assert abs(out.m[0, 0] + np.tanh(t)) < 1e-15
        assert abs(out.b[0]) < 1e-15
        assert abs(np.exp(out.c) - np.sqrt(1 / np.cosh(t))) < 1e-15

    def test_quadratic_row(self):
        # z0^2 -> sqrt(sech)(z^2 sech^2 + tanh) exp(-z^2 tanh/2 - |z|^2/2)
        t = 0.7
        sh, th = 1 / np.cosh(t), np.tanh(t)
        moved = transport_uncorrected(fock_state(2, I1), _on_geodesic(1.0, t))
        pts = np.array([[0.3, 0.1], [0.5, -0.7], [0.0, 0.4], [1.1, 0.9], [-0.8, 0.2]])
        z = (pts @ moved.frame.coord_matrix.T)[:, 0]
        printed = (
            np.sqrt(sh)
            * (z**2 * sh**2 + th)
            * np.exp(-0.5 * z**2 * th - 0.5 * np.abs(z) ** 2)
            / np.sqrt(2.0)
        )
        assert np.abs(moved.value(pts) - printed).max() < 1e-14


    def test_displaced_state_matches_coherent_closed_form(self):
        # c_5 written as a Gaussian-polynomial state with b = conj(alpha) = 5
        displaced = GaussianSection(I1, [[0.0]], [5.0], 0.0, [1.0])
        moved = transport_uncorrected(displaced, _on_geodesic(0.5, 1.0))
        ref = transport_coherent_standard([5.0], 0.5, 1.0)
        assert difference_norm(moved, ref) < 1e-12 * norm(ref)

    def test_squeezed_polynomial_state_matches_ode(self):
        psi = GaussianSection(I1, [[0.3 - 0.2j]], [0.4 + 0.1j], 0.1, [0.3, -0.4j, 0.5])
        closed = fock_coefficients(transport_uncorrected(psi, _on_geodesic(0.5, 1.0)), 32)
        ode = transport_ode(fock_coefficients(psi, 128), 0.5, 1.0, 2000)[:32]
        assert np.linalg.norm(ode - closed) < 1e-8 * np.linalg.norm(closed)


class TestGeneralTransport:
    def test_same_point_identity(self, rng):
        om = random_siegel(rng, 2)
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = transport_coherent(alpha, om, om)
        assert difference_norm(out, coherent_state(alpha, om)) < 1e-12

    def test_reduces_to_standard_form(self):
        alpha = np.array([1 + 1j])
        for t in (0.3, 1.0):
            a = transport_coherent(alpha, I1, diagonal_point([np.exp(2 * t)]))
            b = transport_coherent_standard(alpha, [1.0], t)
            assert difference_norm(a, b) < 1e-12

    def test_group_equivariance(self, rng):
        for n in (1, 2):
            g = random_symplectic(rng, n)
            mp = MetaplecticElement.principal_lift(g)
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            moved_then_acted = metaplectic_act(mp, transport_coherent(alpha, om, omp))
            acted = metaplectic_act(mp, coherent_state(alpha, om))
            acted_then_moved = transport_uncorrected(acted, act_on_siegel(g, omp))
            assert (
                difference_norm(moved_then_acted, acted_then_moved)
                < 1e-9 * norm(acted)
            )

    def test_unitarity(self, rng):
        for n in (1, 2):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = coherent_state(alpha, om)
            assert abs(norm(transport_coherent(alpha, om, omp)) - norm(c)) < 1e-8 * norm(c)


def halfform_phase(psi, omp) -> complex:
    """The half-form phase corrected transport of psi picks up on the way to omp: exp of the
    constant c it has over uncorrected transport."""
    corrected = transport_corrected(CorrectedSection(psi), omp).section
    return complex(np.exp(corrected.c - transport_uncorrected(psi, omp).c))


class TestHalfFormTransport:
    def test_same_point_unit_phase(self):
        om = random_siegel(np.random.default_rng(2), 1)
        assert abs(halfform_phase(vacuum(om), om) - 1.0) < 1e-12

    def test_real_positive_determinant(self):
        assert abs(halfform_phase(vacuum(I1), diagonal_point([np.e**2])) - 1.0) < 1e-12

    def test_golden_value(self):
        # Xi'(1+i, i) = (1 + 2i)/2i = 1 - i/2; phase is its principal half-argument
        out = halfform_phase(vacuum(I1), SiegelPoint.from_complex([[1.0 + 1.0j]]))
        xi = 1.0 - 0.5j
        expected = np.exp(0.5j * np.angle(xi))
        assert abs(out - expected) < 1e-10


class TestBogoliubov:
    def test_unit_scale_at_equal_points(self, rng):
        om = random_siegel(rng, 2)
        assert abs(bogoliubov_scale(om, om) - 1.0) < 1e-12

    def test_standard_scale_is_sqrt_cosh(self):
        for t in (0.25, 0.9, 2.0):
            val = bogoliubov_scale(I1, diagonal_point([np.exp(2 * t)]))
            assert abs(val - np.sqrt(np.cosh(t))) < 1e-12

    def test_two_formulas_agree(self, rng):
        for n in (1, 2, 3):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            a = bogoliubov_scale(om, omp)
            b = bogoliubov_scale_via_structures(om, omp)
            assert abs(a - b) < 1e-10 * a

    def test_residual_zero_at_equal_points(self, rng):
        om = random_siegel(rng, 1)
        assert transport_equals_scaled_projection_check([0.3], om, om) < 1e-13

    def test_example_residuals(self, rng):
        r1 = transport_equals_scaled_projection_check(
            [1 + 1j], I1, diagonal_point([np.e**2])
        )
        assert r1 < 1e-8
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        alpha = rng.normal(size=2) + 1j * rng.normal(size=2)
        assert transport_equals_scaled_projection_check(alpha, om, omp) < 1e-7
        # the closed-form residual norm has no grid, so n = 3 is checked too
        om, omp = random_siegel(rng, 3), random_siegel(rng, 3)
        alpha = rng.normal(size=3) + 1j * rng.normal(size=3)
        assert transport_equals_scaled_projection_check(alpha, om, omp) < 1e-7


class TestSuiteWork:
    """The randomized suites push the sections of one frame pair through one Bergman kernel, take a frame pair's
    integrals once, and compute the seed-free Bogoliubov row once per process, at import."""

    @staticmethod
    def kernels_built(monkeypatch, suite, **kwargs) -> int:
        built = []
        bergman = transport._bergman
        monkeypatch.setattr(transport, "_bergman", lambda *a: built.append(a) or bergman(*a))
        assert all(row["passed"] for row in suite(**kwargs))
        return len(built)

    def test_flatness_trial_builds_one_kernel_per_leg(self, monkeypatch):
        # three legs, each pushing the three states of the uncorrected triangle and the corrected start together
        assert self.kernels_built(monkeypatch, suites.suite_flatness, trials=1) == 3

    def test_unitarity_trial_builds_one_kernel_per_frame_pair(self, monkeypatch):
        # the closed trial's uncorrected and corrected pairs together, and the oracle trial's pair
        assert self.kernels_built(monkeypatch, suites.suite_unitarity, trials=1, oracle_trials=1) == 2

    def test_flatness_trial_takes_its_holonomy_products_in_one_integral(self, monkeypatch):
        # the six products of the uncorrected triangle are base integrals: integrate_out with no variable left
        left, integrate_out = [], gaussint.integrate_out
        monkeypatch.setattr(gaussint, "integrate_out", lambda s, l, *a: left.append(np.shape(l)[-1]) or
                            integrate_out(s, l, *a))
        assert all(row["passed"] for row in suites.suite_flatness(trials=1))
        assert left.count(0) == 1

    def test_refined_oracle_fits_once_whatever_its_levels(self, monkeypatch):
        fits, levels, fit, grid_sum = [], [], sections._fit_log_quadratic, sections._hermite_grid_sum
        monkeypatch.setattr(sections, "_fit_log_quadratic", lambda *a: fits.append(1) or fit(*a))
        monkeypatch.setattr(sections, "_hermite_grid_sum", lambda *a: levels.append(a[-1]) or grid_sum(*a))
        # a pair that settles by 64 nodes from 32, and one that never settles from 2
        m1 = [[-0.54 - 0.67j, -0.15 - 0.03j], [-0.15 - 0.03j, 0.25 + 0.38j]]
        m2 = [[-0.71 + 0.52j, -0.03 - 0.14j], [-0.03 - 0.14j, -0.2 - 0.34j]]
        p1 = GaussianSection(standard_point(2), m1, [0.7 - 0.19j, -0.01 - 0.86j], 0.0)
        p2 = GaussianSection(standard_point(2), m2, [0.0, 0.0], 0.0)
        sections.oracle_inner_product(p1, p2, nodes=32, tol=1e-7)
        assert fits == [1] and len(levels) > 1
        psi = GaussianSection(diagonal_point([30.0]), [[0.5]], [2.0], 0.0)
        fits.clear()
        levels.clear()
        with pytest.raises(GridTooCoarseError):
            sections.oracle_inner_product(psi, psi, 2, tol=1e-12)
        assert fits == [1] and levels == [2, 4, 8, 16]

    def test_second_bogoliubov_call_builds_none_of_the_fixed_points(self, monkeypatch):
        built, make_point = [], suites.diagonal_point
        monkeypatch.setattr(suites, "diagonal_point", lambda *a: built.append(a) or make_point(*a))
        first = suites.suite_bogoliubov(trials=1)
        assert not built and all(row["passed"] for row in first)  # filled at import
        suites._STANDARD_SCALE.clear()
        assert suites.suite_bogoliubov(trials=1) == first and len(built) == 8
        assert suites.suite_bogoliubov(trials=1) == first and len(built) == 8

    def test_the_fixed_row_cache_hides_no_mutation(self, monkeypatch):
        scale = suites.bogoliubov_scale
        monkeypatch.setattr(suites, "bogoliubov_scale", lambda *a: scale(*a) * (1.0 + 1e-9))
        suites._STANDARD_SCALE.clear()
        try:
            passed = {row["name"]: row["passed"] for row in suites.suite_bogoliubov(trials=1)}
        finally:  # no mutated value outlives the test: the row is filled again as at import
            monkeypatch.undo()
            suites._STANDARD_SCALE.clear()
            suites._standard_scale_residual()
        assert not passed["bogoliubov/standard_scale_sqrt_cosh"]


class TestSharedPush:
    """Plain and corrected sections of one frame pair share one half-form root, one kernel and one push
    (``transport._transport``); each keeps the prefactor of its own bundle."""

    @staticmethod
    def _sections(rng, om, degree):
        out = [random_gaussian_section(rng, om) for _ in range(4)]
        if degree:
            out = [GaussianSection(om, p.m, p.b, p.c, rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1))
                   for p in out]
        return out[:2] + [CorrectedSection(p) for p in out[2:]]

    @pytest.mark.parametrize("n, degree", [(1, 0), (2, 0), (3, 0), (1, 3)])
    def test_mixed_stack_entries_are_the_public_calls_bit_for_bit(self, rng, n, degree):
        for _ in range(5):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            psis = self._sections(rng, om, degree)
            got = transport._transport(psis, omp)
            want = transport_uncorrected(psis[:2], omp) + transport_corrected(psis[2:], omp)
            assert [type(x) for x in got] == [type(x) for x in psis]
            for x, y in zip(got, want, strict=True):
                x, y = (z.section if isinstance(z, CorrectedSection) else z for z in (x, y))
                assert x.frame is omp and y.frame is omp
                for field in ("m", "b", "c", "coeffs"):
                    assert np.array(getattr(x, field)).tobytes() == np.array(getattr(y, field)).tobytes(), field

    def test_a_shifted_half_form_phase_moves_only_the_corrected_row(self, monkeypatch):
        # a phase shared by the three uncorrected states cancels in their holonomy ratios, so only the corrected
        # triangle, whose start now rides in the same push, reads the phase
        before = {row["name"]: row["residual"] for row in suites.suite_flatness(seed=42, trials=4)}
        log_h = transport._halfform_log
        monkeypatch.setattr(transport, "_halfform_log", lambda *a: log_h(*a) + 1e-9j)
        after = {row["name"]: row["residual"] for row in suites.suite_flatness(seed=42, trials=4)}
        assert before["flatness/corrected_triangle_identity"] < 1e-13
        assert after["flatness/corrected_triangle_identity"] > 1e-9
        for name in ("flatness/uncorrected_unit_modulus", "flatness/uncorrected_scalar_consistency"):
            assert repr(after[name]) == repr(before[name])


class TestKernels:
    def test_coherent_state_bergman_matches_closed_form(self, rng):
        om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
        alpha = rng.normal(size=1) + 1j * rng.normal(size=1)
        c = coherent_state(alpha, om)
        a = transport_kernel_apply(c, om, omp, "bergman")[0]
        b = transport_coherent(alpha, om, omp)
        assert difference_norm(a, b) < 1e-10 * norm(c)

    def test_vacuum_under_both_kernels(self, rng):
        for n in (1, 2):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            (a, log_a), (b, log_b) = (transport_kernel_apply(vacuum(om), om, omp, k) for k in ("bergman", "holomorphic"))
            assert difference_norm(a, b) < 1e-10
            # each returns the one half-form root whose modulus is the Bogoliubov scale
            assert log_a == log_b and np.exp(log_a.real) == bogoliubov_scale(om, omp)

    @pytest.mark.parametrize("kernel", ["bergman", "holomorphic"])
    def test_section_must_live_at_the_source_point(self, rng, kernel):
        om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
        with pytest.raises(ValueError, match="source point"):
            transport_kernel_apply(vacuum(om), omp, omp, kernel)

    def test_holomorphic_kernel_takes_polynomial_states(self):
        psi = GaussianSection(I1, [[0.1]], [0.2 + 0.1j], 0.0, [1.0, 0.5, 0.2])
        omp = SiegelPoint.from_complex([[0.3 + 2.0j]])
        a = transport_kernel_apply(psi, I1, omp, "holomorphic")[0]
        b = transport_kernel_apply(psi, I1, omp, "bergman")[0]
        assert a.degree == 2
        assert difference_norm(a, b) < 1e-12 * norm(b)

    def test_kernel_linearity(self, rng):
        om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
        phi1 = random_gaussian_section(rng, om, m_cap=0.5)
        phi2 = random_gaussian_section(rng, om, m_cap=0.5)
        out1 = transport_kernel_apply(phi1, om, omp, "holomorphic")[0]
        out2 = transport_kernel_apply(phi2, om, omp, "holomorphic")[0]
        # homogeneity in closed form
        twice = transport_kernel_apply(scaled(phi1, 2.5j), om, omp, "holomorphic")[0]
        pts = np.array([[0.2, -0.4], [0.7, 0.3]])
        assert np.abs(twice.value(pts) - 2.5j * out1.value(pts)).max() < 1e-12
        # additivity through the quadrature evaluation of the kernel integral
        from siegelflow.transport import _xi_blocks

        k11, k12, k22, log_h = _xi_blocks(om, omp)
        log_pref = -log_h.real
        e, ebar, g = om.coord_matrix, np.conj(om.coord_matrix), om.gram_matrix
        for v_out in pts:
            zp = (omp.coord_matrix @ v_out)[0]

            def kernel_integral(phi):
                sv = e.T @ phi.m @ e + ebar.T @ k11 @ ebar - 2.0 * g

                def f(v):
                    z = (v @ e.T)[..., 0]
                    zbar = np.conj(z)
                    holo = np.exp(0.5 * phi.m[0, 0] * z**2 + phi.b[0] * z + phi.c)
                    kern = np.exp(
                        0.5 * k11[0, 0] * zbar**2 + zbar * k12[0, 0] * zp - np.abs(z) ** 2
                    )
                    return holo * kern

                base = _hermite_grid_sum(f, _placement(-0.5 * sv.real), QUAD_NODES_DEFAULT)
                return (
                    np.exp(log_pref + 0.5 * k22[0, 0] * zp**2 - 0.5 * abs(zp) ** 2) * base
                )

            total = kernel_integral(phi1) + kernel_integral(phi2)
            closed = out1.value(v_out) + out2.value(v_out)
            assert abs(total - closed) < 1e-8 * max(1.0, abs(closed))


class TestCorrectedTransport:
    def test_identity_path(self, rng):
        om = random_siegel(rng, 1)
        psi = CorrectedSection(random_gaussian_section(rng, om))
        res = transport_corrected(psi, om)
        assert difference_norm(res, psi) < 1e-12
        assert abs(halfform_phase(psi.section, om) - 1.0) < 1e-12

    def test_routes_agree_on_coherent_states(self, rng):
        for n in (1, 2):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi = CorrectedSection(coherent_state(alpha, om))
            a = transport_corrected(psi, omp)
            b = CorrectedSection(scaled(transport_coherent(alpha, om, omp), np.exp(1j * _halfform_log(om, omp).imag)))
            assert difference_norm(a, b) < 1e-8 * norm(a.section)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_phase_and_section_match_the_coherent_route(self, rng, n):
        pairs = [(random_siegel(rng, n), random_siegel(rng, n)) for _ in range(4)]
        if n == 3:
            # a principal root of det Xi would flip sign on this leg
            pairs.append((SiegelPoint(np.zeros((3, 3)), np.eye(3)), SiegelPoint(4 * np.eye(3), np.eye(3))))
        for om, omp in pairs:
            alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi = CorrectedSection(coherent_state(alpha, om))
            res = transport_corrected(psi, omp)
            phase = np.exp(1j * _halfform_log(om, omp).imag)
            ref = CorrectedSection(scaled(transport_coherent(alpha, om, omp), phase))
            assert abs(halfform_phase(psi.section, omp) - phase) < 1e-12
            # closed-form inner products: the quadrature grid stops at n = 2
            ref_norm2 = inner_product(ref.section, ref.section).real
            overlap = corrected_inner_product(ref, res)
            assert abs(overlap / ref_norm2 - 1.0) < 1e-12
            assert abs(inner_product(res.section, res.section).real / ref_norm2 - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_constants_differ_by_the_phase_of_the_half_form_root(self, rng, n):
        # one Bergman push for both: corrected transport adds log_h to c, uncorrected Re log_h
        for _ in range(6):
            om, omp = random_siegel(rng, n), random_siegel(rng, n)
            psi = random_gaussian_section(rng, om)
            corrected, plain = transport_corrected(CorrectedSection(psi), omp).section, transport_uncorrected(psi, omp)
            assert np.array_equal(corrected.m, plain.m) and np.array_equal(corrected.b, plain.b)
            assert abs(corrected.c - plain.c - 1j * _halfform_log(om, omp).imag) <= 1e-15

    def test_n3_triangle_holonomy_is_one(self):
        # each leg a I + i I with a > 2 sqrt(3) would flip a principal root of det Xi
        pts = [SiegelPoint(a * np.eye(3), np.eye(3)) for a in (0.0, 4.0, -4.0, 0.0)]
        start = CorrectedSection(coherent_state([0.3, -0.2j, 0.5], pts[0]))
        around = start
        for p in pts[1:]:
            around = transport_corrected(around, p)
        holonomy = corrected_inner_product(start, around) / norm(start.section) ** 2
        assert abs(holonomy - 1.0) < 1e-12

    def test_triangle_flatness(self, rng):
        pts = [random_siegel(rng, 1) for _ in range(3)]
        psi = CorrectedSection(coherent_state([0.2 - 0.7j], pts[0]))
        step = transport_corrected(psi, pts[1])
        step = transport_corrected(step, pts[2])
        around = transport_corrected(step, pts[0])
        assert difference_norm(around, psi) < 1e-8 * norm(psi.section)
        pts = [random_siegel(rng, 3) for _ in range(3)]
        psi = CorrectedSection(coherent_state([0.2 - 0.7j, 0.4, -0.3j], pts[0]))
        around = transport_corrected(transport_corrected(transport_corrected(psi, pts[1]), pts[2]), pts[0])
        assert difference_norm(around, psi) < 1e-8 * norm(psi.section)

    def test_uncorrected_triangle_is_a_pure_phase(self, rng):
        pts = [random_siegel(rng, 1) for _ in range(3)]
        s = coherent_state([0.5], pts[0])
        h = transport_uncorrected(
            transport_uncorrected(transport_uncorrected(s, pts[1]), pts[2]), pts[0]
        )
        ratio = inner_product(s, h) / inner_product(s, s)
        assert abs(abs(ratio) - 1.0) < 1e-10
        assert abs(ratio - 1.0) > 1e-3  # the phase is generically nontrivial

    def test_scale_used_matches_formula(self, rng, capsys, monkeypatch):
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        data = cli_corrected_transport(om, omp, capsys, monkeypatch)
        assert abs(data["scale"] - bogoliubov_scale(om, omp)) < 1e-12

    def test_polynomial_states_transport_unitarily(self, rng):
        om = I1
        omp = random_siegel(rng, 1)
        psi = CorrectedSection(fock_state(2, om))
        moved = transport_corrected(psi, omp)
        from siegelflow import inner_product_cross_frame

        n0 = inner_product_cross_frame(psi.section, psi.section).real
        n1 = inner_product_cross_frame(moved.section, moved.section).real
        assert abs(n1 - n0) < 1e-10

    def test_mp_equivariance_with_phase(self, rng):
        g = random_symplectic(rng, 1)
        mp = MetaplecticElement.principal_lift(g)
        om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
        psi = CorrectedSection(coherent_state([0.4 + 0.1j], om))
        lhs = metaplectic_act(mp, transport_corrected(psi, omp))
        rhs = transport_corrected(metaplectic_act(mp, psi), act_on_siegel(g, omp))
        assert difference_norm(lhs, rhs) < 1e-8 * norm(psi.section)


def _dense_generator(lam, t, n_basis):
    """-(A_tau tau' + A_taubar conj(tau')) on tau(t) = i exp(2 lam t), with the exact tau' = 2 lam tau, from the
    Fock-frame connection 1-form on the upper half-plane:

        A_tau[k, l]    = (i / 4 tau2) (k delta_{kl} - sqrt(k(k-1)) delta_{k, l+2}),  A_taubar = A_tau^T.
    """
    tau = 1j * np.exp(2.0 * lam * t)
    k = np.arange(n_basis, dtype=float)
    a_tau = 0.25j / tau.imag * (np.diag(k) - np.diag(np.sqrt(k[2:] * k[1:-1]), -2))
    return -(a_tau * (2.0 * lam * tau) + a_tau.T * np.conj(2.0 * lam * tau))


def _dense_exponential(c0, lam, t_end):
    """exp(t K) c0 for the whole dense generator K, from eigh(i K): no chain split, no phase conjugation."""
    evals, vecs = np.linalg.eigh(1j * _dense_generator(lam, 0.0, len(c0)))
    return vecs @ (np.exp(-1j * t_end * evals) * (vecs.conj().T @ c0))


class TestTransportODE:
    def test_zero_rate_is_identity(self):
        out = transport_ode(np.eye(8)[3], 0.0, 1.0, 100)
        assert len(out) == 128 and np.abs(out - np.eye(128)[3]).max() < 1e-12

    def test_matches_closed_form(self):
        out = transport_ode(fock_coefficients(fock_state(0, I1), 32), 1.0, 0.5, 10000)
        closed = transport_uncorrected(fock_state(0, I1), _on_geodesic(1.0, 0.5))
        b = fock_coefficients(closed, 32)
        assert np.linalg.norm(out[:32] - b) / np.linalg.norm(b) < 1e-6

    @pytest.mark.parametrize("lam, n_amp", [(0.5, 16), (0.25, 32), (0.5, 32)])
    def test_gaussian_state_matches_coherent_closed_form(self, lam, n_amp):
        # the truncated amplitudes of a Gaussian section enter the ODE directly
        out = transport_ode(fock_coefficients(coherent_state([0.3], I1), n_amp), lam, 1.0, 2000)
        closed = fock_coefficients(transport_coherent_standard([0.3], lam, 1.0), 32)
        assert np.linalg.norm(out[:32] - closed) < 1e-8 * np.linalg.norm(closed)

    def test_vacuum_doubles_its_basis_and_keeps_its_norm(self):
        # at lam t = 1.6 the vacuum leaks out of 128 and 256 states; 512 hold it
        out = transport_ode([1.0], 1.6, 1.0, 0)
        closed = fock_coefficients(transport_uncorrected(fock_state(0, I1), _on_geodesic(1.6, 1.0)), 32)
        assert len(out) == 512
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-12
        assert np.linalg.norm(out[:32] - closed) <= 1e-12 * np.linalg.norm(closed)

    def test_genuine_leak_at_the_cap_names_the_rate(self):
        # the vacuum at lam t = 2.6 keeps 4.9e-4 of its norm in the top 10% of 1024 states
        with pytest.raises(TruncationOverflowError, match=r"^amplitude .* lam \* t_end = 2\.6; .*ODE_BASIS_MAX = 1024"):
            transport_ode(fock_coefficients(coherent_state([1.0], I1), 32), 2.6, 1.0, 0)

    def test_amplitudes_whose_squares_overflow_propagate_without_a_warning(self):
        # |c0_k|^2 leaves the float range, the norm of c0 does not
        big, unit = transport_ode([1e200, 1e200], 0.7, 1.0, 0), transport_ode([1.0, 1.0], 0.7, 1.0, 0)
        assert len(big) == len(unit) == 128
        assert np.abs(big / 1e200 - unit).max() <= 1e-15 * np.abs(unit).max()

    @pytest.mark.parametrize(
        "c0, error", [([], ValueError), (np.zeros(5), ValueError), ([1.0, np.nan], NonFiniteError),
                      ([np.inf], NonFiniteError)]
    )
    def test_bad_start_raises_before_any_propagation(self, c0, error, monkeypatch):
        monkeypatch.setattr(transport, "transport_ode_coeffs", None)  # never reached
        with pytest.raises(error, match="^amplitude vector c0 "):
            transport_ode(c0, 0.5, 1.0, 0)

    @pytest.mark.parametrize("lam, t_end", [(np.nan, 1.0), (np.inf, 0.0), (0.5, -np.inf), (0.0, np.nan)])
    def test_non_finite_rate_or_end_raises_before_any_propagation(self, lam, t_end, monkeypatch):
        monkeypatch.setattr(transport, "transport_ode_coeffs", None)  # never reached
        with pytest.raises(NonFiniteError, match=f"^lam = {lam} and t_end = {t_end} must be finite$"):
            transport_ode([1.0], lam, t_end, 0)

    def test_shares_nothing_with_the_closed_forms(self, monkeypatch):
        c0 = fock_coefficients(coherent_state([0.4 + 0.2j], I1), 32)
        want = transport_ode(c0, 0.8, 1.0, 0)

        def closed_form(*args, **kwargs):
            raise AssertionError("the Fock ODE reached a closed form")

        monkeypatch.setattr(sections, "fock_coefficients", closed_form)
        for name in ("_bergman", "_xi_blocks", "half_logdet"):
            monkeypatch.setattr(transport, name, closed_form)
        assert np.array_equal(transport_ode(c0, 0.8, 1.0, 0), want)

    def test_propagator_group_law(self):
        # U(s) U(t) = U(s + t), U(-t) U(t) = I, and U(t) keeps the norm
        lam, s, t = 0.7, 0.45, -0.8

        def u(tt, c):
            return transport_ode_coeffs(c, lam, tt, 0)

        for n_basis in (8, 48, 256):
            rng = np.random.default_rng(n_basis)
            c0 = rng.normal(size=n_basis) + 1j * rng.normal(size=n_basis)
            c0 /= np.linalg.norm(c0)
            assert np.linalg.norm(u(s, u(t, c0)) - u(s + t, c0)) <= 1e-13
            assert np.linalg.norm(u(-t, u(t, c0)) - c0) <= 1e-13
            assert abs(np.linalg.norm(u(t, c0)) - 1.0) <= 1e-13

    def test_start_basis_past_the_cap_raises_before_expanding(self, monkeypatch):
        monkeypatch.setattr(transport, "transport_ode_coeffs", None)  # never reached
        with pytest.raises(TruncationOverflowError, match="^amplitude vector of 300 states needs a starting basis "
                                                          "of 1200 states"):
            transport_ode(np.ones(300), 0.3, 1.0, 0)

    def test_state_longer_than_its_basis_is_not_cut(self):
        # at lam = 0 the propagator is the identity: all 40 coefficients come back, zero-padded to 160 states
        c0 = np.linspace(1.0, 0.1, 40) * np.exp(0.3j * np.arange(40))
        out = transport_ode(c0, 0.0, 1.0, 0)
        assert len(out) == 160 and np.abs(out[:40] - c0).max() < 1e-12 and np.abs(out[40:]).max() < 1e-12

    def test_truncation_overflow_guard(self):
        # the vacuum squeezed to lam t = 4 still holds amplitude 4.5e-2 at 922..1023
        with pytest.raises(TruncationOverflowError, match="ODE_BASIS_MAX = 1024"):
            transport_ode([1.0], 4.0, 1.0, 2000)

    def test_large_squeeze_overflows_with_a_finite_amplitude(self):
        # the orthogonal propagator stays bounded at any lam t; the leak is truncation alone
        with np.errstate(over="raise", invalid="raise"):
            with pytest.raises(TruncationOverflowError, match="ODE_BASIS_MAX") as info:
                transport_ode([1.0], 10.0, 1.0, 400)
        assert "nan" not in str(info.value)
        amplitude = float(str(info.value).split()[1])
        assert 0.0 < amplitude < 1.0

    def test_non_finite_amplitude_is_a_leak(self, monkeypatch):
        # a NaN never passes ``leak <= TRUNCATION_LEAK_TOL``
        monkeypatch.setattr("siegelflow.transport.transport_ode_coeffs", lambda c0, *args: np.full(c0.size, np.nan))
        with pytest.raises(TruncationOverflowError, match="amplitude nan"):
            transport_ode([1.0], 1.0, 1.0, 0)

    @pytest.mark.parametrize("n_basis", [8, 48, 256])
    @pytest.mark.parametrize("steps", [1, 200])
    def test_banded_rhs_matches_dense_reference(self, n_basis, steps):
        # on the geodesic the dense connection is one constant matrix, the squeeze generator
        lam = 0.7
        j = np.arange(n_basis - 2)
        w = 0.5 * lam * np.sqrt((j + 2.0) * (j + 1.0))
        banded = np.diag(w, 2) - np.diag(w, -2)
        for t in (0.0, 0.35, 1.2, -0.8):
            dense = _dense_generator(lam, t, n_basis)
            assert np.abs(dense - banded).max() <= 1e-15 * np.abs(banded).max()
        rng = np.random.default_rng(n_basis + steps)
        c0 = rng.normal(size=n_basis) + 1j * rng.normal(size=n_basis)
        c0 /= np.sqrt(np.arange(1, n_basis + 1)) ** 3
        for t in (0.6, -0.8):
            # ``steps`` is ignored: the propagator is exact
            got = transport_ode_coeffs(c0, lam, t, steps)
            want = _dense_exponential(c0, lam, t)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_coherent_state_matches_closed_form_to_round_off(self):
        # the exact propagator leaves only round-off in the 32-state window
        psi = coherent_state([0.4 + 0.2j], I1)
        out = transport_ode(fock_coefficients(psi, 32), 0.8, 1.0, 2000)[:32]
        closed = fock_coefficients(transport_uncorrected(psi, _on_geodesic(0.8, 1.0)), 32)
        assert np.linalg.norm(out - closed) <= 1e-12 * np.linalg.norm(closed)

    def test_result_serialization_schema(self, rng, capsys, monkeypatch):
        om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
        data = cli_corrected_transport(om, omp, capsys, monkeypatch)
        assert set(data) == {"section", "halfform_phase", "scale"}
        assert isinstance(data["scale"], float)
        assert len(data["halfform_phase"]) == 2


class TestLadderDeformation:
    def test_zero_time_identity(self):
        assert np.allclose(bogoliubov_operator_deformation(0.0), np.eye(2))

    def test_unit_determinant(self, rng):
        for t in rng.uniform(-2, 2, size=5):
            m = bogoliubov_operator_deformation(t)
            assert abs(np.linalg.det(m) - 1.0) < 1e-12

    def test_deformed_annihilator_kills_transported_vacuum(self):
        t = 0.5
        n_basis = 64
        c = fock_coefficients(transport_uncorrected(fock_state(0, I1), _on_geodesic(1.0, t)), n_basis)
        a, adag = ladder_matrices(n_basis)
        m = bogoliubov_operator_deformation(t)
        b = m[0, 0] * a + m[0, 1] * adag
        out = b @ c
        # ignore the top boundary rows of the truncated creation operator
        assert np.linalg.norm(out[: n_basis - 4]) < 1e-8
