import numpy as np
import pytest

from siegelflow import (
    MetaplecticElement,
    SpRelationViolatedError,
    SymplecticMap,
    act_on_siegel,
    compose,
    diagonal_point,
    random_siegel,
    random_symplectic,
    standard_point,
    transform_z_coords,
    xi_matrix,
)

from _reference import BranchDiscontinuityError, continue_sqrt_phase


def rotation(theta: float) -> SymplecticMap:
    c, s = np.cos(theta), np.sin(theta)
    return SymplecticMap([[c]], [[s]], [[-s]], [[c]])


def squeeze(lam: float) -> SymplecticMap:
    return SymplecticMap([[np.exp(lam)]], [[0.0]], [[0.0]], [[np.exp(-lam)]])


class TestSymplecticMap:
    def test_identity_composition(self):
        g = SymplecticMap.identity(2)
        assert np.allclose(compose(g, g).matrix, np.eye(4))

    def test_compose_with_inverse_is_identity(self, rng):
        g = random_symplectic(rng, 3)
        assert np.abs(compose(g, g.inverse()).matrix - np.eye(6)).max() < 1e-12

    def test_random_products_stay_symplectic(self, rng):
        for n in (1, 2):
            g = compose(random_symplectic(rng, n), random_symplectic(rng, n))
            m = g.matrix
            j0 = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
            assert np.abs(m.T @ j0 @ m - j0).max() < 1e-12 * max(1.0, np.abs(m).max() ** 2)

    def test_invalid_blocks_rejected(self):
        with pytest.raises(SpRelationViolatedError):
            SymplecticMap([[1.0]], [[0.5]], [[0.5]], [[1.0]])


class TestSiegelAction:
    def test_identity_fixes_everything(self, rng):
        om = random_siegel(rng, 2)
        assert act_on_siegel(SymplecticMap.identity(2), om).close_to(om)

    def test_rotation_fixes_base_point(self):
        out = act_on_siegel(rotation(np.pi / 2), standard_point(1))
        assert out.close_to(standard_point(1))

    def test_squeeze_moves_base_point(self):
        lam = 0.63
        out = act_on_siegel(squeeze(lam), standard_point(1))
        assert out.close_to(diagonal_point([np.exp(2 * lam)]))

    def test_action_composes(self, rng):
        for n in (1, 2):
            g1, g2 = random_symplectic(rng, n), random_symplectic(rng, n)
            om = random_siegel(rng, n)
            a = act_on_siegel(compose(g1, g2), om)
            b = act_on_siegel(g1, act_on_siegel(g2, om))
            assert np.abs(a.omega - b.omega).max() < 1e-10 * max(1.0, np.abs(a.omega).max())


class TestXi:
    def test_diagonal_case_is_imaginary_part(self):
        om = random_siegel(np.random.default_rng(3), 3)
        assert np.allclose(xi_matrix(om, om), om.omega2)

    def test_scalar_example(self):
        val = xi_matrix(standard_point(1), diagonal_point([np.e**2]))
        assert np.allclose(val, (np.e**2 + 1) / 2)

    def test_transformation_law(self, rng):
        for n in (1, 2):
            g = random_symplectic(rng, n)
            om0, omp0 = random_siegel(rng, n), random_siegel(rng, n)
            om, omp = act_on_siegel(g, om0), act_on_siegel(g, omp0)
            cd = g.cz_plus_d(om0)
            cdp = g.cz_plus_d(omp0)
            pred = np.linalg.inv(np.conj(cdp)).T @ xi_matrix(om0, omp0) @ np.linalg.inv(cd)
            assert np.abs(xi_matrix(om, omp) - pred).max() < 1e-9


class TestCoordinateChange:
    def test_identity(self):
        om = standard_point(2)
        assert np.allclose(transform_z_coords(SymplecticMap.identity(2), om, om), np.eye(2))

    def test_unitarity_random(self, rng):
        for n in (1, 2):
            g = random_symplectic(rng, n)
            om = random_siegel(rng, n)
            t = transform_z_coords(g, om, act_on_siegel(g, om))
            assert np.abs(t.conj().T @ t - np.eye(n)).max() < 1e-10

    def test_dual_formulas_agree(self, rng):
        for n in (1, 2):
            g = random_symplectic(rng, n)
            om = random_siegel(rng, n)
            target = act_on_siegel(g, om)
            t1 = transform_z_coords(g, om, target)
            t2 = om.imag_sqrt() @ np.linalg.inv(g.cz_plus_d(om)) @ target.imag_inv_sqrt()
            assert np.abs(t1 - t2).max() < 1e-10


class TestMetaplectic:
    def test_identity_phase(self):
        mp = MetaplecticElement.principal_lift(SymplecticMap.identity(1))
        assert abs(mp.phase_at(diagonal_point([3.0])) - 1.0) < 1e-12

    def test_two_lifts_differ_by_sign(self, rng):
        g = random_symplectic(rng, 1)
        mp = MetaplecticElement.principal_lift(g)
        om = random_siegel(rng, 1)
        assert abs(mp.phase_at(om) + mp.other_lift().phase_at(om)) < 1e-12

    def test_squared_phase_matches_determinant_factor(self, rng):
        for n in (1, 2):
            g = random_symplectic(rng, n)
            mp = MetaplecticElement.principal_lift(g)
            om = random_siegel(rng, n)
            det = np.conj(np.linalg.det(g.cz_plus_d(om)))
            assert abs(mp.phase_at(om) ** 2 - det / abs(det)) < 1e-10

    def test_multiplicative_under_composition(self, rng):
        for _ in range(5):
            g1, g2 = random_symplectic(rng, 1), random_symplectic(rng, 1)
            mp1 = MetaplecticElement.principal_lift(g1)
            mp2 = MetaplecticElement.principal_lift(g2)
            mp12 = mp1.compose(mp2)
            om = random_siegel(rng, 1)
            expected = mp1.phase_at(act_on_siegel(g2, om)) * mp2.phase_at(om)
            assert abs(mp12.phase_at(om) - expected) < 1e-10

    def test_inverse_lift_cancels(self, rng):
        g = random_symplectic(rng, 1)
        mp = MetaplecticElement.principal_lift(g)
        om = random_siegel(rng, 1)
        assert abs(mp.phase_at(act_on_siegel(g.inverse(), om)) * mp.inverse().phase_at(om) - 1) < 1e-10

    def test_branch_discontinuity_on_coarse_path(self):
        with pytest.raises(BranchDiscontinuityError):
            continue_sqrt_phase(np.array([1.0, 1j]), 1.0)
        c, s = np.cos(2.0), np.sin(2.0)
        i2 = np.eye(2)
        block_rotation = SymplecticMap(c * i2, s * i2, -s * i2, c * i2)
        mp = MetaplecticElement.principal_lift(block_rotation)
        target = diagonal_point([1e-3, 1e-3])
        # in one step this segment turns the argument by 2.28 > pi/2; the
        # closed form agrees with a fine sampling of it
        s = np.linspace(0.0, 1.0, 129)[:, None, None]
        path = (1 - s) * mp.reference.omega + s * target.omega
        vals = np.conj(np.linalg.det(block_rotation.c @ path + block_rotation.d))
        assert abs(mp.phase_at(target) - continue_sqrt_phase(vals, mp.branch)) < 1e-12
