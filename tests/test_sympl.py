import warnings
from functools import cached_property

import numpy as np
import pytest

from siegelflow import (
    BoundaryPolarization,
    MetaplecticElement,
    NonFiniteError,
    SpRelationViolatedError,
    SymplecticMap,
    act_on_siegel,
    compose,
    composition_identities_check,
    diagonal_point,
    random_siegel,
    random_symplectic,
    standard_point,
    transform_z_coords,
    xi_matrix,
)
from siegelflow import sympl
from siegelflow.sympl import _sp_residual

from _reference import BranchDiscontinuityError, continue_sqrt_phase, other_lift, random_symplectic_checked_per_factor


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


def _block_relations(a, b, c, d) -> list:
    """Residuals of A^T C = C^T A, B^T D = D^T B and A^T D - C^T B = I, each entry
    over max(1, the sum of the absolute values of its terms)."""
    n = a.shape[0]
    aa, ab, ac, ad = (np.abs(x) for x in (a, b, c, d))
    return [
        (np.abs(a.T @ c - c.T @ a) / np.maximum(aa.T @ ac + ac.T @ aa, 1.0)).max(),
        (np.abs(b.T @ d - d.T @ b) / np.maximum(ab.T @ ad + ad.T @ ab, 1.0)).max(),
        (np.abs(a.T @ d - c.T @ b - np.eye(n)) / np.maximum(aa.T @ ad + ac.T @ ab, 1.0)).max(),
    ]


def _fresh_maps(rng, n):
    """One map from each way of making one."""
    g1, g2 = random_symplectic(rng, n), random_symplectic(rng, n)
    return [SymplecticMap(g1.a, g1.b, g1.c, g1.d), SymplecticMap.from_matrix(g2.matrix),
            SymplecticMap.identity(n), compose(g1, g2), g1.inverse()]


class TestOneMatrix:
    def test_residual_is_the_largest_block_relation(self):
        rng = np.random.default_rng(2424)
        for i in range(200):
            n = 1 + i % 3
            m = random_symplectic(rng, n).matrix
            # off the group too, where the relations are far above rounding
            for noise in (0.0, 1e-6):
                p = m + noise * rng.normal(size=m.shape)
                blocks = p[:n, :n], p[:n, n:], p[n:, :n], p[n:, n:]
                assert abs(_sp_residual(p) - max(_block_relations(*blocks))) <= 1e-15

    @pytest.mark.parametrize("block, which", [("c", 0), ("b", 1), ("d", 2)])
    def test_each_block_relation_alone_is_checked(self, block, which):
        # a diagonal squeeze: one entry of c, b or d moves exactly one relation
        t = np.diag([3.0, 0.5])
        blocks = {"a": t, "b": np.zeros((2, 2)), "c": np.zeros((2, 2)), "d": np.linalg.inv(t)}
        scale = max(1.0, np.abs(t).max() ** 2)
        blocks[block] = blocks[block] + 1e-9 * scale * np.eye(2, k=1)
        rel = _block_relations(blocks["a"], blocks["b"], blocks["c"], blocks["d"])
        assert [r > 1e-9 for r in rel] == [i == which for i in range(3)]
        with pytest.raises(SpRelationViolatedError):
            SymplecticMap(**blocks)
        with pytest.raises(SpRelationViolatedError):
            SymplecticMap.from_matrix(np.block([[blocks["a"], blocks["b"]], [blocks["c"], blocks["d"]]]))

    def test_compose_is_one_checked_matmul(self, monkeypatch):
        rng = np.random.default_rng(7)
        for n in (1, 2, 3):
            g1, g2 = random_symplectic(rng, n), random_symplectic(rng, n)
            assert np.array_equal(compose(g1, g2).matrix, g1.matrix @ g2.matrix)
            monkeypatch.setattr(sympl, "COMPOSE_TOL", 0.0)
            with pytest.raises(SpRelationViolatedError):
                compose(g1, g2)
            monkeypatch.undo()

    def test_random_draw_is_one_checked_product(self, monkeypatch):
        # the six factors multiply as plain arrays; only the product is checked, as compose checks one
        stores = []
        store = SymplecticMap._store
        monkeypatch.setattr(SymplecticMap, "_store", lambda self, *a: stores.append(a) or store(self, *a))
        for n in (1, 2, 3):
            stores.clear()
            random_symplectic(np.random.default_rng(7), n)
            assert len(stores) == 1
        monkeypatch.setattr(sympl, "COMPOSE_TOL", 0.0)
        for n in (1, 2, 3):
            with pytest.raises(SpRelationViolatedError, match="composition left the group"):
                random_symplectic(np.random.default_rng(7), n)

    def test_random_draw_matches_the_factor_by_factor_product_bit_for_bit(self):
        for seed in range(30):
            for n in (1, 2, 3):
                got = random_symplectic(np.random.default_rng(seed), n).matrix
                want = random_symplectic_checked_per_factor(np.random.default_rng(seed), n).matrix
                assert np.array_equal(got, want)

    def test_inverse_is_the_block_formula(self, rng):
        for n in (1, 2, 3):
            g = random_symplectic(rng, n)
            assert np.array_equal(g.inverse().matrix, np.block([[g.d.T, -g.b.T], [-g.c.T, g.a.T]]))

    def test_inverse_is_built_once_bit_for_bit(self, rng):
        for n in (1, 2, 3):
            g = random_symplectic(rng, n)
            first = g.inverse()
            assert g.inverse() is first
            want = np.block([[g.d.T, -g.b.T], [-g.c.T, g.a.T]])
            assert first.matrix.tobytes() == want.tobytes() and first.matrix.shape == want.shape

    def test_matrix_and_blocks_are_read_only_views(self, rng):
        for n in (1, 2):
            for g in _fresh_maps(rng, n):
                blocks = (g.a, g.b, g.c, g.d)
                assert np.array_equal(g.matrix, np.block([[g.a, g.b], [g.c, g.d]]))
                for arr in (g.matrix, *blocks):
                    assert not arr.flags.writeable
                    with pytest.raises(ValueError):
                        arr[0, 0] = 1.0
                assert all(np.shares_memory(x, g.matrix) for x in blocks)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_rejected_without_a_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpRelationViolatedError):
                SymplecticMap.from_matrix([[bad, 0.0], [0.0, 1.0]])
            with pytest.raises(SpRelationViolatedError):
                SymplecticMap([[1.0]], [[bad]], [[0.0]], [[1.0]])

    @pytest.mark.parametrize("entry", [2e154, 1e160, 1e300])
    def test_entries_whose_square_overflows_raise_without_a_warning(self, entry):
        # a scale entry sums 2n products of entries, which leave the float range
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^symplectic map with an entry of .*scale is not finite"):
                SymplecticMap.from_matrix([[entry, 0.0], [0.0, 1.0 / entry]])

    def test_each_entry_is_checked_to_its_own_scale(self):
        # (1e100, 0; 0, 1) breaks A^T D - C^T B = I by 1e100 - 1, as much as that entry's own scale
        with pytest.raises(SpRelationViolatedError, match="residual 1.000e"):
            SymplecticMap.from_matrix([[1e100, 0.0], [0.0, 1.0]])
        with pytest.raises(SpRelationViolatedError):
            SymplecticMap([[1e100]], [[0.0]], [[0.0]], [[1.0]])
        g = SymplecticMap.from_matrix(np.diag([1e100, 1e-100]))
        assert _sp_residual(g.matrix) <= 1e-15

    def test_from_matrix_copies_its_input(self):
        m = np.eye(2)
        g = SymplecticMap.from_matrix(m)
        m[0, 1] = 5.0
        assert np.array_equal(g.matrix, np.eye(2))

    def test_blocks_of_unequal_shape_rejected(self):
        with pytest.raises(ValueError, match="blocks must all be 2 x 2"):
            SymplecticMap(np.eye(2), 0.0, 0.0, np.eye(2))


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
        assert abs(mp.phase_at(om) + other_lift(mp).phase_at(om)) < 1e-12

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

    def test_inverse_is_built_once(self, rng):
        mp = MetaplecticElement.principal_lift(random_symplectic(rng, 2))
        assert mp.inverse() is mp.inverse()
        pos = BoundaryPolarization.position(2)
        assert pos.reference.inverse() is BoundaryPolarization.position(2).reference.inverse()

    def test_identity_check_computes_one_inverse_per_target(self, monkeypatch):
        # five inverse pairing maps onto two polarizations need two inverse lifts
        built = []
        compute = MetaplecticElement.__dict__["_inverse"].func
        prop = cached_property(lambda self: built.append(self) or compute(self))
        prop.__set_name__(MetaplecticElement, "_inverse")
        monkeypatch.setattr(MetaplecticElement, "_inverse", prop)
        pols = [BoundaryPolarization.from_span([[1.0], [s]]) for s in (0.0, 0.8, -1.3)]
        rng = np.random.default_rng(3)
        composition_identities_check(random_siegel(rng, 1), random_siegel(rng, 1), *pols)
        assert len(built) == 2
        assert {id(mp) for mp in built} == {id(pols[1].reference), id(pols[2].reference)}

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
        path = (1 - s) * standard_point(2).omega + s * target.omega
        vals = np.conj(np.linalg.det(block_rotation.c @ path + block_rotation.d))
        assert abs(mp.phase_at(target) - continue_sqrt_phase(vals, mp.branch)) < 1e-12
