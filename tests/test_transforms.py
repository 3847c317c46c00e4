import numpy as np
import pytest

from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GaussianSection,
    LagrangianFrame,
    MetaplecticElement,
    NoBoundaryLimitError,
    NonTransverseError,
    PolarizationMismatchError,
    coherent_state,
    composition_identities_check,
    corrected_inner_product,
    diagonal_point,
    difference_norm,
    fourier,
    fourier_general,
    from_momentum_profile,
    geodesic_between,
    inner_product,
    limit_transport_to_bargmann,
    limit_transport_to_fourier,
    metaplectic_act,
    momentum_profile,
    norm,
    random_siegel,
    random_symplectic,
    segal_bargmann,
    segal_bargmann_inverse,
    standard_point,
    vacuum,
    value_on_V,
)
from siegelflow.sympl import act_on_siegel
from siegelflow.transforms import default_test_profiles

from conftest import random_profile, standard_profile

I1 = standard_point(1)


class TestBoundaryInnerProducts:
    def test_standard_gaussian_norm_fixed_by_convention(self):
        # ||exp(-x^2/2)||^2 = 2^{-1/2} under the (2 pi)^{n/2} convention;
        # the bundled standard profile carries the normalizing 2^{1/4}
        bare = GaussianSection(BoundaryPolarization.position(1), [[-1.0]], [0.0], 0.0)
        assert abs(inner_product(bare, bare) - 2.0**-0.5) < 1e-14
        assert abs(norm(standard_profile(1)) - 1.0) < 1e-14

    def test_odd_even_orthogonality(self):
        even = CorrectedSection(standard_profile(1))
        odd = CorrectedSection(GaussianSection(BoundaryPolarization.position(1), [[-1.0]], [0.0], 0.0, [0.0, 1.0]))
        assert abs(corrected_inner_product(even, odd)) < 1e-15

    def test_conjugate_symmetry(self, rng):
        s1 = CorrectedSection(random_profile(rng))
        s2 = CorrectedSection(random_profile(rng))
        a = corrected_inner_product(s1, s2)
        b = corrected_inner_product(s2, s1)
        assert abs(a - np.conj(b)) < 1e-13 * max(1.0, abs(a))

    def test_polarization_mismatch_rejected(self):
        pos = CorrectedSection(standard_profile(1))
        mom = from_momentum_profile(standard_profile(1))
        with pytest.raises(PolarizationMismatchError):
            corrected_inner_product(pos, mom)


class TestSegalBargmann:
    def test_standard_gaussian_maps_to_vacuum(self):
        out = segal_bargmann(CorrectedSection(standard_profile(1)), I1)
        assert difference_norm(out, CorrectedSection(vacuum(I1))) < 1e-14

    def test_standard_gaussian_maps_to_vacuum_higher_dim(self):
        out = segal_bargmann(CorrectedSection(standard_profile(2)), standard_point(2))
        target = CorrectedSection(vacuum(standard_point(2)))
        assert difference_norm(out, target) < 1e-13

    def test_unitarity_random_profiles(self, rng):
        om = random_siegel(rng, 1)
        for _ in range(6):
            s1 = CorrectedSection(random_profile(rng))
            s2 = CorrectedSection(random_profile(rng))
            lhs = corrected_inner_product(segal_bargmann(s1, om), segal_bargmann(s2, om))
            rhs = corrected_inner_product(s1, s2)
            assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))

    def test_intertwines_lifted_action(self, rng):
        # acting on the polarization data before the transform agrees with
        # acting on the image after it (multiplicativity of the lifts)
        g = random_symplectic(rng, 1)
        mp = MetaplecticElement.principal_lift(g)
        prof = random_profile(rng)
        s = CorrectedSection(prof)
        om = random_siegel(rng, 1)
        lhs = segal_bargmann(metaplectic_act(mp, s), act_on_siegel(g, om))
        rhs = metaplectic_act(mp, segal_bargmann(s, om))
        assert difference_norm(lhs, rhs) < 1e-9 * norm(rhs.section)

    def test_lifted_action_on_polarized_sections_seeded(self):
        # the action moves a polarized section to the composed reference;
        # the pairing map intertwines it with the action on Kaehler sections
        rng = np.random.default_rng(1313)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(1, 3))
            mp = MetaplecticElement.principal_lift(random_symplectic(rng, n))
            pol = BoundaryPolarization.from_metaplectic(MetaplecticElement.principal_lift(random_symplectic(rng, n)))
            s = CorrectedSection(random_profile(rng, n, frame=pol), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            moved = metaplectic_act(mp, s)
            assert moved.frame.close_to(BoundaryPolarization(mp.compose(pol.reference)))
            assert moved.halfform_phase == s.halfform_phase and np.array_equal(moved.section.m, s.section.m)
            om = random_siegel(rng, n)
            lhs = segal_bargmann(moved, act_on_siegel(mp.g, om))
            rhs = metaplectic_act(mp, segal_bargmann(s, om))
            worst = max(worst, difference_norm(lhs, rhs, 48) / norm(rhs.section))
        assert worst < 1e-9

    def test_inverse_round_trip_on_profiles(self, rng):
        om = random_siegel(rng, 1)
        for _ in range(4):
            s = CorrectedSection(random_profile(rng))
            back = segal_bargmann_inverse(segal_bargmann(s, om))
            assert difference_norm(back, s, 48) < 1e-9 * norm(s.section)

    def test_forward_round_trip_on_sections(self, rng):
        om = random_siegel(rng, 1)
        psi = CorrectedSection(coherent_state([0.3 - 0.5j], om))
        again = segal_bargmann(segal_bargmann_inverse(psi), om)
        assert difference_norm(again, psi) < 1e-9 * norm(psi.section)

    def test_vacuum_inverse_is_standard_gaussian(self):
        psi = CorrectedSection(vacuum(I1))
        out = segal_bargmann_inverse(psi)
        target = CorrectedSection(standard_profile(1))
        assert difference_norm(out, target, 48) < 1e-14


class TestFourier:
    def test_gaussian_fixed_point_with_phase(self):
        out = fourier(CorrectedSection(standard_profile(1)))
        chi = momentum_profile(out)
        pts = np.array([[0.0], [0.5], [-1.2]])
        target = np.exp(0.25j * np.pi) * 2.0**0.25 * np.exp(-0.5 * pts[:, 0] ** 2)
        assert np.abs(chi.value(pts) - target).max() < 1e-13

    def test_hermite_profiles_are_eigenvectors(self):
        # h_k transforms with eigenvalue i^k under the unitary kernel;
        # checked against direct quadrature of the transform integral
        from numpy.polynomial.hermite import hermgauss

        coeffs = {1: [0.0, 2.0], 2: [-2.0, 0.0, 4.0], 3: [0.0, -12.0, 0.0, 8.0]}
        for k, poly in coeffs.items():
            prof = GaussianSection(BoundaryPolarization.position(1), [[-1.0]], [0.0], 0.0, np.array(poly, dtype=complex))
            out = momentum_profile(fourier(CorrectedSection(prof)))
            ys = np.array([[0.4], [1.1], [-0.7]])
            # oracle: (2 pi)^{-1/2} integral h_k(x) e^{-x^2/2} e^{i x y} dx
            u, w = hermgauss(96)
            x = u * np.sqrt(2.0)
            hval = np.polynomial.polynomial.polyval(x, poly)
            for y, expect_scale in zip(ys[:, 0], (1j**k,) * 3):
                orac = (w * np.exp(u**2) * hval * np.exp(-0.5 * x**2 + 1j * x * y)).sum()
                orac *= np.sqrt(2.0) / np.sqrt(2 * np.pi)
                direct = prof.value(np.array([[y]]))[0]
                assert abs(orac - expect_scale * direct) < 1e-10
            target = 1j**k * np.exp(0.25j * np.pi) * prof.value(ys)
            assert np.abs(out.value(ys) - target).max() < 1e-10

    def test_unitarity(self, rng):
        for _ in range(5):
            s1 = CorrectedSection(random_profile(rng))
            s2 = CorrectedSection(random_profile(rng))
            a = corrected_inner_product(fourier(s1), fourier(s2))
            b = corrected_inner_product(s1, s2)
            assert abs(a - b) < 1e-8 * max(1.0, abs(b))

    def test_reconstruction_matches_direct_formula(self, rng):
        # acceptance-style: the pairing-pair route reproduces the direct
        # kernel including its quarter-turn phase, n = 1 and n = 2
        mom1 = BoundaryPolarization.momentum(1)
        for _ in range(4):
            s = CorrectedSection(random_profile(rng))
            direct = fourier(s)
            rebuilt = fourier_general(s, mom1, random_siegel(rng, 1))
            assert difference_norm(direct, rebuilt, 48) < 1e-9 * norm(s.section)
        mom2 = BoundaryPolarization.momentum(2)
        s2 = CorrectedSection(random_profile(rng, n=2, poly=False))
        direct2 = fourier(s2)
        rebuilt2 = fourier_general(s2, mom2, random_siegel(rng, 2))
        assert difference_norm(direct2, rebuilt2, 48) < 1e-9 * norm(s2.section)

    def test_non_transverse_rejected(self):
        s = CorrectedSection(standard_profile(1))
        with pytest.raises(NonTransverseError):
            fourier_general(s, BoundaryPolarization.position(1))


class TestBoundaryLimits:
    def setup_method(self):
        self.spec = geodesic_between(I1, diagonal_point([np.e**2]))
        self.psi = CorrectedSection(vacuum(I1))

    def test_bargmann_side_report(self):
        rep = limit_transport_to_bargmann(self.psi, self.spec, [-8, -6, -5, -4, -3])
        assert rep.rows[-1].t == -8 and rep.rows[-1].sup_error < 1e-3
        assert rep.monotone_decreasing()
        assert rep.slope_within(0.2)
        # the absorbed frame factor is det(sqrt(2) e^{Lambda t})^{1/2}
        for row in rep.rows:
            assert abs(row.absorbed_factor - 2**0.25 * np.exp(0.5 * row.t)) < 1e-12

    def test_fourier_side_report(self):
        rep = limit_transport_to_fourier(self.psi, self.spec, [3, 4, 5, 6, 8])
        assert rep.rows[-1].t == 8 and rep.rows[-1].sup_error < 1e-3
        assert rep.monotone_decreasing()
        assert rep.slope_within(0.2)
        for row in rep.rows:
            assert abs(row.absorbed_factor - 2**0.25 * np.exp(-0.5 * row.t)) < 1e-12

    def test_error_ordering_between_depths(self):
        rep = limit_transport_to_bargmann(self.psi, self.spec, [-8, -4])
        err4 = next(r.sup_error for r in rep.rows if r.t == -4)
        err8 = next(r.sup_error for r in rep.rows if r.t == -8)
        assert err4 > err8

    def test_zero_rate_rejected(self):
        degenerate = geodesic_between(I1, I1)
        with pytest.raises(NoBoundaryLimitError):
            limit_transport_to_bargmann(self.psi, degenerate, [-2])

    def test_general_geodesic_reduction(self, rng):
        g = random_symplectic(rng, 1)
        om0 = act_on_siegel(g, I1)
        mp = MetaplecticElement.principal_lift(g)
        psi = metaplectic_act(mp, self.psi)
        from siegelflow.siegel import GeodesicSpec

        spec = GeodesicSpec(g, np.ones(1), om0, act_on_siegel(g, diagonal_point([np.e**2])))
        rep = limit_transport_to_bargmann(psi, spec, [-6, -8])
        assert rep.rows[-1].sup_error < 1e-3


class TestCompositionIdentities:
    def test_standard_configuration(self):
        pol_l = BoundaryPolarization.position(1)
        pol_lp = BoundaryPolarization.momentum(1)
        pol_lpp = BoundaryPolarization.from_frame(LagrangianFrame.graph_of_shear([[0.8]]))
        rep = composition_identities_check(
            I1, diagonal_point([np.e**2]), pol_l, pol_lp, pol_lpp
        )
        assert rep.max_residual < 1e-8

    def test_transport_pairing_identity_spec_example(self):
        # pairing into ie^2 equals transport of the pairing into i, on L-
        s = CorrectedSection(standard_profile(1))
        from siegelflow import transport_corrected

        lhs = segal_bargmann(s, diagonal_point([np.e**2]))
        rhs = transport_corrected(segal_bargmann(s, I1), diagonal_point([np.e**2]))
        assert difference_norm(lhs, rhs) < 1e-10

    def test_random_transverse_configurations(self, rng):
        for _ in range(5):
            g = random_symplectic(rng, 1)
            pol_l = BoundaryPolarization.from_metaplectic(MetaplecticElement.principal_lift(g))
            pol_lp = BoundaryPolarization.from_frame(LagrangianFrame(g, plus=True))
            pol_lpp = BoundaryPolarization.from_frame(
                LagrangianFrame.graph_of_shear([[rng.normal()]])
            )
            if not (
                pol_l.frame.transverse_to(pol_lpp.frame)
                and pol_lp.frame.transverse_to(pol_lpp.frame)
            ):
                continue
            rep = composition_identities_check(
                random_siegel(rng, 1), random_siegel(rng, 1), pol_l, pol_lp, pol_lpp
            )
            assert rep.max_residual < 1e-8

    def test_non_transverse_configuration_rejected(self):
        pol_l = BoundaryPolarization.position(1)
        with pytest.raises(NonTransverseError):
            composition_identities_check(I1, diagonal_point([2.0]), pol_l, pol_l, pol_l)

    def test_five_section_family_is_square_integrable(self):
        for prof in default_test_profiles():
            assert norm(prof) > 0

    def test_transport_pairing_identity_two_degrees_of_freedom(self, rng):
        # identity 1 with Gaussian profiles in two degrees of freedom
        from siegelflow import transport_corrected

        g = random_symplectic(rng, 2)
        pol = BoundaryPolarization.from_metaplectic(MetaplecticElement.principal_lift(g))
        s = _polarized_section(pol, rng)
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        lhs = segal_bargmann(s, omp)
        rhs = transport_corrected(segal_bargmann(s, om), omp)
        assert difference_norm(lhs, rhs) < 1e-8 * norm(rhs.section)


def _polarized_section(pol, rng):
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = 0.5 * (m + m.T)
    m = m - (np.linalg.eigvalsh(m.real).max() + rng.uniform(0.5, 1.0)) * np.eye(2)
    b = 0.4 * (rng.normal(size=2) + 1j * rng.normal(size=2))
    return CorrectedSection(GaussianSection(pol, m, b, 0.1))


class TestMomentumRepresentation:
    def test_momentum_profile_round_trip(self, rng):
        for _ in range(3):
            chi = random_profile(rng)
            s = from_momentum_profile(chi)
            back = momentum_profile(s)
            pts = rng.normal(size=(5, 1))
            assert np.abs(back.value(pts) - chi.value(pts)).max() < 1e-13

    def test_momentum_value_on_phase_space(self):
        chi = standard_profile(1)
        s = from_momentum_profile(chi)
        grid = np.array([[0.5, 1.0], [-0.3, 0.2]])
        target = chi.value(grid[:, 1:]) * np.exp(-0.5j * grid[:, 0] * grid[:, 1])
        # combined value differs from the sqrt(d^n y)-relative one by i^n
        assert np.abs(1j * value_on_V(s, grid) - target).max() < 1e-14
