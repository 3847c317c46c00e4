from dataclasses import astuple

import numpy as np
import pytest

from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GaussianSection,
    GeodesicSpec,
    MetaplecticElement,
    NoBoundaryLimitError,
    NonTransverseError,
    PolarizationMismatchError,
    SiegelPoint,
    SymplecticMap,
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
    metaplectic_act,
    momentum_profile,
    norm,
    random_siegel,
    random_symplectic,
    segal_bargmann,
    segal_bargmann_inverse,
    standard_point,
    transport_limits,
    vacuum,
)
from siegelflow import _gaussint as gaussint
from siegelflow import sections, siegel, suites, sympl, transforms, transport
from siegelflow.sympl import act_on_siegel
from siegelflow.transforms import default_test_profiles

from _reference import inverse_pairing_in_three_steps, other_lift, pairing_in_three_steps, value_on_V
from conftest import random_gaussian_section, random_profile, standard_profile

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
            pol = BoundaryPolarization(MetaplecticElement.principal_lift(random_symplectic(rng, n)))
            s = CorrectedSection(random_profile(rng, n, frame=pol), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
            moved = metaplectic_act(mp, s)
            assert moved.frame.close_to(BoundaryPolarization(mp.compose(pol.reference)))
            assert moved.halfform_phase == s.halfform_phase and np.array_equal(moved.section.m, s.section.m)
            om = random_siegel(rng, n)
            lhs = segal_bargmann(moved, act_on_siegel(mp.g, om))
            rhs = metaplectic_act(mp, segal_bargmann(s, om))
            worst = max(worst, difference_norm(lhs, rhs) / norm(rhs.section))
        assert worst < 1e-9

    def test_inverse_round_trip_on_profiles(self, rng):
        om = random_siegel(rng, 1)
        for _ in range(4):
            s = CorrectedSection(random_profile(rng))
            back = segal_bargmann_inverse(segal_bargmann(s, om))
            assert difference_norm(back, s) < 1e-9 * norm(s.section)

    def test_forward_round_trip_on_sections(self, rng):
        om = random_siegel(rng, 1)
        psi = CorrectedSection(coherent_state([0.3 - 0.5j], om))
        again = segal_bargmann(segal_bargmann_inverse(psi), om)
        assert difference_norm(again, psi) < 1e-9 * norm(psi.section)

    def test_vacuum_inverse_is_standard_gaussian(self):
        psi = CorrectedSection(vacuum(I1))
        out = segal_bargmann_inverse(psi)
        target = CorrectedSection(standard_profile(1))
        assert difference_norm(out, target) < 1e-14


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
        # acceptance-style: the pairing-pair route through any Kaehler frame
        # reproduces the direct kernel including its quarter-turn phase, n = 1, 2 and 3
        mom1 = BoundaryPolarization.momentum(1)
        for _ in range(4):
            s = CorrectedSection(random_profile(rng))
            direct = fourier(s)
            rebuilt = segal_bargmann_inverse(segal_bargmann(s, random_siegel(rng, 1)), mom1)
            assert difference_norm(direct, rebuilt) < 1e-9 * norm(s.section)
            assert difference_norm(direct, fourier_general(s, mom1)) < 1e-9 * norm(s.section)
        mom2 = BoundaryPolarization.momentum(2)
        s2 = CorrectedSection(random_profile(rng, n=2, poly=False))
        direct2 = fourier(s2)
        rebuilt2 = segal_bargmann_inverse(segal_bargmann(s2, random_siegel(rng, 2)), mom2)
        assert difference_norm(direct2, rebuilt2) < 1e-9 * norm(s2.section)
        assert difference_norm(direct2, fourier_general(s2, mom2)) < 1e-9 * norm(s2.section)
        # at n = 3 the momentum frame's branch is the continued e^{3 i pi / 4}, not the principal e^{-i pi / 4}
        mom3 = BoundaryPolarization.momentum(3)
        s3 = CorrectedSection(random_profile(rng, n=3, poly=False))
        direct3 = fourier(s3)
        rebuilt3 = segal_bargmann_inverse(segal_bargmann(s3, random_siegel(rng, 3)), mom3)
        assert difference_norm(direct3, rebuilt3) < 1e-9 * norm(s3.section)
        assert difference_norm(direct3, fourier_general(s3, mom3)) < 1e-9 * norm(s3.section)

    def test_non_transverse_rejected(self):
        s = CorrectedSection(standard_profile(1))
        with pytest.raises(NonTransverseError):
            fourier_general(s, BoundaryPolarization.position(1))


class TestBoundaryLimits:
    def setup_method(self):
        self.spec = geodesic_between(I1, diagonal_point([np.e**2]))
        self.psi = CorrectedSection(vacuum(I1))

    @staticmethod
    def _check_displaced_gaussians(rng, side, sign):
        """For n = 1..3, a displaced Gaussian with off-diagonal M over i I_n on
        i exp(2 Lambda t), rates in [0.8, 1.2]: the (S, l, k) distance at
        |t| = 6.5 and its decay from |t| = 5 at the heat-kernel width."""
        for n in (1, 2, 3):
            start = standard_point(n)
            psi = CorrectedSection(random_gaussian_section(rng, start))
            lam = rng.uniform(0.8, 1.2, size=n)
            spec = GeodesicSpec(SymplecticMap.identity(n), lam, start, diagonal_point(np.exp(2.0 * lam)))
            rep = transport_limits(psi, spec, [6.5, 5.0])[side]
            near, far = rep.rows
            assert (near.t, far.t) == (5.0 * sign, 6.5 * sign)
            assert rep.predicted_rate == 2.0 * lam.min()
            assert far.distance < 3e-3
            assert far.distance <= 1.15 * near.distance * np.exp(-rep.predicted_rate * 1.5)
            # the absorbed frame factor is det(sqrt(2) e^{-sign Lambda t})^{1/2}
            for row in rep.rows:
                expected = 2 ** (n / 4) * np.exp(-0.5 * sign * row.t * lam.sum())
                assert abs(row.absorbed_factor - expected) < 1e-12 * expected

    def test_bargmann_side_report(self, rng):
        self._check_displaced_gaussians(rng, 0, -1.0)

    def test_fourier_side_report(self, rng):
        self._check_displaced_gaussians(rng, 1, 1.0)

    def test_error_ordering_between_depths(self):
        rep = transport_limits(self.psi, self.spec, [8, 4])[0]
        d4 = next(r.distance for r in rep.rows if r.t == -4)
        d8 = next(r.distance for r in rep.rows if r.t == -8)
        assert d4 > d8

    def test_zero_rate_rejected(self):
        degenerate = geodesic_between(I1, I1)
        with pytest.raises(NoBoundaryLimitError):
            transport_limits(self.psi, degenerate, [2])
        # one vanishing rate among positive ones leaves the curve inside too
        start = standard_point(2)
        spec = GeodesicSpec(SymplecticMap.identity(2), [1.0, 0.0], start, diagonal_point([np.e**2, 1.0]))
        with pytest.raises(NoBoundaryLimitError):
            transport_limits(CorrectedSection(vacuum(start)), spec, [2])

    def test_reports_are_the_suite_rows(self):
        # suite_limits' draws, through the one public entry: the worst distance at |t| = 6.5 and slowdown from 5
        rng = np.random.default_rng(2004)
        worst = dict.fromkeys(("bargmann_distance", "bargmann_rate", "fourier_distance", "fourier_rate"), 0.0)
        for n in (1, 2, 3):
            start = standard_point(n)
            psi = CorrectedSection(suites._random_gaussian_section(rng, start))
            lam = rng.uniform(0.8, 1.2, size=n)
            spec = GeodesicSpec(SymplecticMap.identity(n), lam, start, diagonal_point(np.exp(2.0 * lam)))
            for side, rep in zip(("bargmann", "fourier"), transport_limits(psi, spec, [5.0, 6.5])):
                near, far = rep.rows
                slowdown = far.distance / near.distance * np.exp(rep.predicted_rate * 1.5) - 1.0
                worst[f"{side}_distance"] = max(worst[f"{side}_distance"], far.distance)
                worst[f"{side}_rate"] = max(worst[f"{side}_rate"], slowdown)
        assert {r["name"]: r["residual"] for r in suites.suite_limits()} == {f"limits/{k}": v for k, v in worst.items()}

    def test_polynomial_section_rejected_naming_its_degree(self):
        psi = CorrectedSection(GaussianSection(I1, [[0.1]], [0.2], 0.0, [1.0, 0.5]))
        with pytest.raises(ValueError, match="degree 1"):
            transport_limits(psi, self.spec, [2])

    def test_general_geodesic_reduction(self, rng):
        g = random_symplectic(rng, 1)
        om0 = act_on_siegel(g, I1)
        mp = MetaplecticElement.principal_lift(g)
        psi = metaplectic_act(mp, self.psi)
        spec = GeodesicSpec(g, np.ones(1), om0, act_on_siegel(g, diagonal_point([np.e**2])))
        for rep in transport_limits(psi, spec, [6, 8]):
            assert rep.rows[-1].distance < 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plus_end_carries_the_lift_of_a_moved_momentum_section(self, n):
        # principal_lift(g g0) has the other sign on 46, 104 and 154 of these 200 draws at n = 1, 2, 3
        rng = np.random.default_rng(100 + n)
        profile = GaussianSection(BoundaryPolarization.position(n), -np.eye(n), np.zeros(n), 0.0)
        moved = from_momentum_profile(profile)
        for _ in range(200):
            g = random_symplectic(rng, n)
            end = act_on_siegel(g, diagonal_point(np.full(n, np.e**2)))
            spec = GeodesicSpec(g, np.ones(n), act_on_siegel(g, standard_point(n)), end)
            l_plus = siegel.geodesic_boundary_limits(spec)[1]
            assert metaplectic_act(MetaplecticElement.principal_lift(g), moved).frame.close_to(l_plus)

    @pytest.mark.parametrize("mutation", ["absorbed", "fourier"])
    def test_suite_rows_fail_a_wrong_normalisation(self, monkeypatch, mutation):
        if mutation == "absorbed":
            # the absorbed factor without its 2^{n/4}
            monkeypatch.setattr(
                transforms, "_absorbed_factor", lambda lam, t, sign: float(np.exp(-0.5 * sign * t * lam.sum()))
            )
            failing = {"bargmann_distance", "bargmann_rate", "fourier_distance", "fourier_rate"}
        else:
            # the Fourier transform with i^{-n/2} in place of i^{n/2}
            def wrong_root(shat):
                out = fourier(shat)
                return CorrectedSection(out.section, out.halfform_phase * (-1j) ** shat.frame.n)

            monkeypatch.setattr(transforms, "fourier", wrong_root)
            failing = {"fourier_distance", "fourier_rate"}
        rows = {r["name"].split("/")[1]: r for r in suites.suite_limits()}
        for name, row in rows.items():
            if name in failing:
                assert row["residual"] >= 10.0 * row["tolerance"], name
            else:
                assert row["passed"], name


class TestCompositionIdentities:
    def test_standard_configuration(self):
        pol_l = BoundaryPolarization.position(1)
        pol_lp = BoundaryPolarization.momentum(1)
        pol_lpp = BoundaryPolarization.from_span([[1.0], [0.8]])
        rep = composition_identities_check(
            I1, diagonal_point([np.e**2]), pol_l, pol_lp, pol_lpp
        )
        assert max(astuple(rep)) < 1e-8

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
            pol_l = BoundaryPolarization(MetaplecticElement.principal_lift(g))
            pol_lp = BoundaryPolarization.from_span(g.matrix[:, :1])
            pol_lpp = BoundaryPolarization.from_span([[1.0], [rng.normal()]])
            if not (pol_l.transverse_to(pol_lpp) and pol_lp.transverse_to(pol_lpp)):
                continue
            rep = composition_identities_check(
                random_siegel(rng, 1), random_siegel(rng, 1), pol_l, pol_lp, pol_lpp
            )
            assert max(astuple(rep)) < 1e-8

    def test_non_transverse_configuration_rejected(self):
        pol_l = BoundaryPolarization.position(1)
        with pytest.raises(NonTransverseError):
            composition_identities_check(I1, diagonal_point([2.0]), pol_l, pol_l, pol_l)

    def test_five_section_family_is_square_integrable(self):
        for prof in default_test_profiles():
            assert norm(prof) > 0

    def test_the_profiles_are_built_once_and_read_only(self):
        profiles = default_test_profiles()
        assert type(profiles) is tuple and len(profiles) == 5 and default_test_profiles() is profiles
        assert not any(x.flags.writeable for p in profiles for x in (p.m, p.b, p.coeffs))

    def test_transport_pairing_identity_two_degrees_of_freedom(self, rng):
        # identity 1 with Gaussian profiles in two degrees of freedom
        from siegelflow import transport_corrected

        g = random_symplectic(rng, 2)
        pol = BoundaryPolarization(MetaplecticElement.principal_lift(g))
        s = _polarized_section(pol, rng)
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        lhs = segal_bargmann(s, omp)
        rhs = transport_corrected(segal_bargmann(s, om), omp)
        assert difference_norm(lhs, rhs) < 1e-8 * norm(rhs.section)

    def test_three_identities_two_degrees_of_freedom(self, monkeypatch):
        # all three identities on n = 2 Gaussian profiles, polarizations along [I; S]
        rng = np.random.default_rng(2718)
        profiles = [random_profile(rng, 2) for _ in range(3)]
        monkeypatch.setattr(transforms, "default_test_profiles", lambda: profiles)
        worst = 0.0
        for _ in range(4):
            pols = [BoundaryPolarization.from_span(np.vstack([np.eye(2), _symmetric(rng)])) for _ in range(3)]
            assert all(a.transverse_to(b) for a, b in ((pols[0], pols[1]), (pols[1], pols[2]), (pols[0], pols[2])))
            rep = composition_identities_check(random_siegel(rng, 2), random_siegel(rng, 2), *pols)
            worst = max(worst, max(astuple(rep)))
        assert worst <= 1e-10

    def test_frame_work_does_not_grow_with_the_profiles(self, monkeypatch):
        # the pairing maps are built once per frame pair, not once per profile; each map and
        # the transport push all profiles through one stacked integral, each stack of sections
        # is checked once, and each side's degree-0 residuals take one closed form
        calls = {"act_on_siegel": 0, "transform_z_coords": 0, "inverse": 0, "integrate_out": 0, "_halfform_log": 0,
                 "check_integrable": 0, "slogdet": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for module in (sympl, transport, transforms):
            monkeypatch.setattr(module, "act_on_siegel", counted("act_on_siegel", sympl.act_on_siegel))
        for module in (sympl, transport, transforms):
            monkeypatch.setattr(module, "transform_z_coords", counted("transform_z_coords", sympl.transform_z_coords))
        monkeypatch.setattr(MetaplecticElement, "inverse", counted("inverse", MetaplecticElement.inverse))
        monkeypatch.setattr(gaussint, "integrate_out", counted("integrate_out", gaussint.integrate_out))
        monkeypatch.setattr(transport, "_halfform_log", counted("_halfform_log", transport._halfform_log))
        for frame_kind in (SiegelPoint, BoundaryPolarization):
            monkeypatch.setattr(frame_kind, "check_integrable", counted("check_integrable", frame_kind.check_integrable))
        monkeypatch.setattr(np.linalg, "slogdet", counted("slogdet", np.linalg.slogdet))

        frames = (
            random_siegel(np.random.default_rng(5), 1),
            diagonal_point([2.0]),
            BoundaryPolarization.position(1),
            BoundaryPolarization.momentum(1),
            BoundaryPolarization.from_span([[1.0], [0.8]]),
        )
        composition_identities_check(*frames)  # fills the frames' cached inverse lifts
        counts = []
        for profiles in (default_test_profiles()[:1], default_test_profiles()):
            monkeypatch.setattr(transforms, "default_test_profiles", lambda p=profiles: p)
            calls.update(dict.fromkeys(calls, 0))
            composition_identities_check(*frames)
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert min(counts[0].values()) > 0

    def test_frames_of_another_n_than_the_profiles_raise_before_frame_work(self, monkeypatch):
        rng = np.random.default_rng(25)
        pols = [BoundaryPolarization.from_span(np.vstack([np.eye(2), _symmetric(rng)])) for _ in range(3)]
        monkeypatch.setattr(BoundaryPolarization, "transverse_to", lambda *a: pytest.fail("frame work done"))
        monkeypatch.setattr(transforms, "_pair", lambda *a: pytest.fail("frame work done"))
        with pytest.raises(ValueError, match="test profiles are n = 1"):
            composition_identities_check(random_siegel(rng, 2), random_siegel(rng, 2), *pols)

    def test_stacked_maps_match_one_call_per_section(self):
        # each public map, given a list of the five profiles with unit half-form phases, gives
        # the list of what it gives each profile alone
        rng = np.random.default_rng(26)
        pol, om, omp = _random_polarization(rng, 1), random_siegel(rng, 1), random_siegel(rng, 1)
        profiles = default_test_profiles()
        stack = [CorrectedSection(GaussianSection(pol, p.m, p.b, p.c, p.coeffs), _unit(rng)) for p in profiles]
        paired = segal_bargmann(stack, om)
        maps = (
            (lambda s: segal_bargmann(s, om), stack),
            (lambda s: segal_bargmann_inverse(s, pol), paired),
            (lambda s: fourier_general(s, BoundaryPolarization.position(1)), stack),
            (lambda s: transport.transport_corrected(s, omp), paired),
            (lambda s: transport.transport_uncorrected(s, omp), [p.section for p in paired]),
        )
        for apply, sections in maps:
            got_all = apply(sections)
            assert type(got_all) is list
            for got, want in zip(got_all, [apply(s) for s in sections], strict=True):
                got, want = (x if isinstance(x, CorrectedSection) else CorrectedSection(x) for x in (got, want))
                # segal_bargmann builds its target point anew on each call
                assert got.frame.close_to(want.frame, tol=0.0) and got.halfform_phase == want.halfform_phase
                for x, y in ((got.section.m, want.section.m), (got.section.b, want.section.b),
                             (got.section.c, want.section.c), (got.section.coeffs, want.section.coeffs)):
                    assert np.abs(np.asarray(x) - y).max() <= 1e-15 * max(1.0, np.abs(y).max())

    def test_stacks_take_sections_over_one_frame_object(self):
        pos = BoundaryPolarization.position(1)
        twin = BoundaryPolarization(pos.reference)  # an equal frame, but another object
        kernel = transport._xi_kernel(pos, I1)[0]
        pair = [standard_profile(1), GaussianSection(twin, [[-1.0]], [0.0], 0.0)]
        with pytest.raises(ValueError, match="one frame object"):
            kernel.apply_all(pair, [0.0, 0.0])
        points = [CorrectedSection(vacuum(diagonal_point([1.0]))) for _ in range(2)]
        om = diagonal_point([2.0])
        for call in (
            lambda: segal_bargmann([CorrectedSection(s) for s in pair], I1),
            lambda: fourier_general([CorrectedSection(s) for s in pair], BoundaryPolarization.momentum(1)),
            lambda: segal_bargmann_inverse(points),
            lambda: transport.transport_corrected(points, om),
            lambda: transport.transport_uncorrected([p.section for p in points], om),
        ):
            with pytest.raises(ValueError, match="one frame object"):
                call()
        with pytest.raises(ValueError, match="at least one section"):
            segal_bargmann([], I1)


def _symmetric(rng):
    s = rng.normal(size=(2, 2))
    return 0.5 * (s + s.T)


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


KAEHLER_SECTION = CorrectedSection(vacuum(I1))
POLARIZED_SECTION = CorrectedSection(GaussianSection(BoundaryPolarization.position(1), [[-1.0]], [0.0], 0.0))


@pytest.mark.parametrize(
    "call, frame",
    [
        (lambda: segal_bargmann(KAEHLER_SECTION, I1), "SiegelPoint"),
        (lambda: fourier_general(KAEHLER_SECTION, BoundaryPolarization.momentum(1)), "SiegelPoint"),
        (lambda: segal_bargmann_inverse(POLARIZED_SECTION), "BoundaryPolarization"),
    ],
    ids=["segal_bargmann", "fourier_general", "segal_bargmann_inverse"],
)
def test_transform_entries_reject_the_other_frame_kind(call, frame):
    # a plain ValueError naming the frame, not numpy's LinAlgError (a ValueError too)
    with pytest.raises(ValueError, match=frame) as exc:
        call()
    assert exc.type is ValueError


N1_SECTION = CorrectedSection(standard_profile(1))
N1_KAEHLER_SECTION = CorrectedSection(vacuum(I1))


@pytest.mark.parametrize(
    "call, frames",
    [
        (lambda: segal_bargmann(N1_SECTION, standard_point(2)), (N1_SECTION.frame, standard_point(2))),
        (
            lambda: segal_bargmann_inverse(N1_KAEHLER_SECTION, BoundaryPolarization.position(2)),
            (I1, BoundaryPolarization.position(2)),
        ),
        (
            lambda: fourier_general(N1_SECTION, BoundaryPolarization.momentum(2)),
            (N1_SECTION.frame, BoundaryPolarization.momentum(2)),
        ),
    ],
    ids=["segal_bargmann", "segal_bargmann_inverse", "fourier_general"],
)
def test_transform_entries_reject_frames_of_another_n(call, frames):
    # a plain ValueError naming both frames, not numpy's matmul mismatch
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError
    assert all(repr(f) in str(exc.value) for f in frames)


@pytest.mark.parametrize(
    "call, frames",
    [
        (lambda: segal_bargmann_inverse(KAEHLER_SECTION, diagonal_point([2.0])), (I1, diagonal_point([2.0]))),
        (
            lambda: segal_bargmann(POLARIZED_SECTION, BoundaryPolarization.momentum(1)),
            (POLARIZED_SECTION.frame, BoundaryPolarization.momentum(1)),
        ),
        (lambda: fourier_general(POLARIZED_SECTION, I1), (POLARIZED_SECTION.frame, I1)),
    ],
    ids=["segal_bargmann_inverse", "segal_bargmann", "fourier_general"],
)
def test_transform_entries_reject_a_target_of_the_wrong_kind(call, frames, monkeypatch):
    # a plain ValueError naming both frames, raised before any frame work
    for name in ("_xi_kernel", "act_on_siegel"):
        monkeypatch.setattr(transforms, name, lambda *a, **k: pytest.fail("frame work done"))
    with pytest.raises(ValueError) as exc:
        call()
    assert exc.type is ValueError
    assert all(repr(f) in str(exc.value) for f in frames)


def _random_polarization(rng, n):
    """The polarization along a random Lagrangian [I; S], with either lift of its
    orthogonal reference: well conditioned, so two routes agree to round-off."""
    s = rng.normal(size=(n, n))
    ref = BoundaryPolarization.from_span(np.vstack([np.eye(n), s + s.T])).reference
    return BoundaryPolarization(ref if rng.uniform() < 0.5 else other_lift(ref))


def _unit(rng):
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))


class TestFoldedMaps:
    """Each map application builds its result once, with the coordinate change
    and the unit phases folded into the Xi kernel; the three-step route of
    ``_reference`` builds the same section."""

    @pytest.mark.parametrize("n, poly", [(1, False), (1, True), (2, False), (3, False)])
    def test_forward_map_matches_three_steps(self, n, poly):
        rng = np.random.default_rng(40 + n + 10 * poly)
        for _ in range(8):
            pol = _random_polarization(rng, n)
            profile = random_profile(rng, n, poly=False, frame=pol)
            if poly:
                deg = int(rng.integers(1, 4))
                coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                profile = GaussianSection(pol, profile.m, profile.b, profile.c, coeffs)
            s, om = CorrectedSection(profile, _unit(rng)), random_siegel(rng, n)
            folded, ref = segal_bargmann(s, om), pairing_in_three_steps(s, om)
            assert folded.frame.close_to(ref.frame, tol=1e-13) and folded.halfform_phase == ref.halfform_phase
            assert difference_norm(folded, ref) <= 1e-13 * norm(ref.section)

    @pytest.mark.parametrize("n, poly", [(1, False), (1, True), (2, False), (3, False)])
    def test_inverse_map_matches_three_steps(self, n, poly):
        rng = np.random.default_rng(50 + n + 10 * poly)
        for _ in range(8):
            om = random_siegel(rng, n)
            section = random_gaussian_section(rng, om)
            if poly:
                deg = int(rng.integers(1, 4))
                coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
                section = GaussianSection(om, section.m, section.b, section.c, coeffs)
            psi, pol = CorrectedSection(section, _unit(rng)), _random_polarization(rng, n)
            folded, ref = segal_bargmann_inverse(psi, pol), inverse_pairing_in_three_steps(psi, pol)
            assert folded.frame is pol and ref.frame is pol
            assert difference_norm(folded, ref) <= 1e-13 * norm(ref.section)

    def test_each_application_builds_one_section(self, monkeypatch):
        rng = np.random.default_rng(61)
        pol, om = _random_polarization(rng, 2), random_siegel(rng, 2)
        s = CorrectedSection(random_profile(rng, 2, frame=pol), _unit(rng))
        psi = CorrectedSection(random_gaussian_section(rng, om), _unit(rng))
        pos = CorrectedSection(random_profile(rng, 1), _unit(rng))
        mom = fourier(pos)
        # every section is checked by the one guard, whether a constructor or a push builds it
        built, checked = [], sections._checked
        monkeypatch.setattr(sections, "_checked", lambda *a: built.append(1) or checked(*a))
        calls = [
            lambda: segal_bargmann(s, om),
            lambda: segal_bargmann_inverse(psi, pol),
            lambda: transport.transport_corrected(psi, random_siegel(rng, 2)),
            lambda: transport.transport_uncorrected(psi.section, random_siegel(rng, 2)),
            lambda: fourier(pos),
            lambda: momentum_profile(mom),
            lambda: from_momentum_profile(momentum_profile(mom)),
        ]
        counts = []
        for call in calls:
            built.clear()
            call()
            counts.append(len(built))
        assert counts == [1, 1, 1, 1, 1, 1, 2]

    def test_every_kernel_push_is_one_call_of_the_one_integral(self, monkeypatch):
        # the Bergman projection, the Xi kernel, the pairing maps and the Fourier transform are all
        # values of sections._Kernel, the one caller of kernel_apply_poly besides the closed-form pairing
        assert not hasattr(transforms, "kernel_apply_poly")
        rng = np.random.default_rng(63)
        om, omp = random_siegel(rng, 2), random_siegel(rng, 2)
        psi = random_gaussian_section(rng, om)
        pos = CorrectedSection(random_profile(rng, 2), _unit(rng))
        calls, push = [], sections.kernel_apply_poly
        monkeypatch.setattr(sections, "kernel_apply_poly", lambda *a: calls.append(1) or push(*a))
        for call in (
            lambda: sections.bergman_project(psi, omp),
            lambda: transport.transport_uncorrected(psi, omp),
            lambda: transport.transport_kernel_apply(psi, om, omp, "holomorphic")[0],
            lambda: segal_bargmann(pos, om),
            lambda: segal_bargmann_inverse(CorrectedSection(psi)),
            lambda: fourier(pos),
        ):
            calls.clear()
            call()
            assert len(calls) == 1

    def test_frame_identity_and_the_other_lift(self, monkeypatch):
        ref = MetaplecticElement.principal_lift(random_symplectic(np.random.default_rng(62), 2))
        pol = BoundaryPolarization(ref)
        assert not BoundaryPolarization(other_lift(ref)).close_to(pol)
        assert not pol.close_to(BoundaryPolarization(other_lift(ref)))
        assert BoundaryPolarization(ref).close_to(pol)
        monkeypatch.setattr(MetaplecticElement, "phase_at", lambda *a: pytest.fail("phase_at called"))
        assert pol.close_to(pol)

    def test_standard_polarizations_are_built_once_per_n(self):
        for n in (1, 2, 3):
            assert BoundaryPolarization.position(n) is BoundaryPolarization.position(n)
            assert BoundaryPolarization.momentum(n) is BoundaryPolarization.momentum(n)
            assert not BoundaryPolarization.position(n).close_to(BoundaryPolarization.momentum(n))
