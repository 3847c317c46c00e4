"""Named verification suites: each runs a property battery and returns
per-check rows with residuals and tolerances.

The randomized suites draw from numpy's PCG64 generator seeded explicitly,
so a (suite, seed) pair is fully reproducible.
"""

from __future__ import annotations

import numpy as np

from ._point import SiegelPoint, diagonal_point, standard_point
from .errors import GridTooCoarseError
from .sections import (
    QUAD_NODES_MAX,
    CorrectedSection,
    GaussianSection,
    coherent_state,
    corrected_inner_product,
    difference_norm,
    inner_product,
    norm,
    oracle_inner_product,
    vacuum,
)
from .siegel import BoundaryPolarization, GeodesicSpec
from .sympl import (MetaplecticElement, SymplecticMap, act_on_siegel, compose, random_siegel, random_symplectic,
                    xi_matrix)
from .transforms import composition_identities_check, transport_limits
from .transport import (
    bogoliubov_scale,
    bogoliubov_scale_via_structures,
    fock_connection_matrix,
    transport_corrected,
    transport_equals_scaled_projection_check,
    transport_uncorrected,
)


def _row(name: str, residual: float, tolerance: float) -> dict:
    return {
        "name": name,
        "residual": float(residual),
        "tolerance": float(tolerance),
        "passed": bool(residual <= tolerance),
    }


def _random_gaussian_section(rng: np.random.Generator, omega: SiegelPoint, m_cap: float = 0.8) -> GaussianSection:
    n = omega.n
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = 0.5 * (m + m.T)
    nrm = np.linalg.norm(m, 2)
    if nrm > 0:
        m = m * (m_cap * rng.uniform(0.2, 1.0) / max(nrm, m_cap))
    b = 0.7 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return GaussianSection(omega, m, b, 0.1 * (rng.normal() + 1j * rng.normal()))


def suite_lemma21(seed: int = 42, trials: int = 200) -> list[dict]:
    """The change-of-point identities for Xi under the group action, plus the
    action's compatibility with composition; residuals are scale-relative."""
    rng = np.random.default_rng(seed)
    names = ("imag_part_transformation", "xi_transformation", "first_quotient_identity",
             "second_quotient_identity", "group_action_composes")
    worst = dict.fromkeys(names, 0.0)
    for k in range(trials):
        n = k % 3 + 1
        g = random_symplectic(rng, n)
        om0, omp0 = random_siegel(rng, n), random_siegel(rng, n)
        om, omp = act_on_siegel(g, om0), act_on_siegel(g, omp0)
        cd, cdp = g.cz_plus_d(om0), g.cz_plus_d(omp0)
        cd_inv = np.linalg.inv(cd)
        cdp_bar_invT = np.linalg.inv(np.conj(cdp)).T
        cd_bar_inv = np.linalg.inv(np.conj(cd))
        scale = max(1.0, np.abs(om.omega).max(), np.abs(omp.omega).max())

        pred = np.linalg.inv(np.conj(cd)).T @ om0.omega2 @ cd_inv
        xi, xi0 = xi_matrix(om, omp), xi_matrix(om0, omp0)
        xi_inv = np.linalg.inv(xi)
        q1_a = (np.linalg.inv(om.omega2) - xi_inv) @ om.omega2
        q1_b = np.linalg.solve(om.omega - np.conj(omp.omega), np.conj(om.omega) - np.conj(omp.omega))
        gap0 = om0.omega - np.conj(omp0.omega)
        q1_c = cd @ np.linalg.solve(gap0, np.conj(om0.omega) - np.conj(omp0.omega)) @ cd_bar_inv
        q2_a = omp.omega2 @ (np.linalg.inv(omp.omega2) - xi_inv)
        q2_b = (om.omega - omp.omega) @ np.linalg.inv(om.omega - np.conj(omp.omega))
        q2_c = np.linalg.inv(cdp).T @ ((om0.omega - omp0.omega) @ np.linalg.solve(gap0, np.conj(cdp).T))
        h = random_symplectic(rng, n)
        two_step = act_on_siegel(h, act_on_siegel(g, om0))
        one_step = act_on_siegel(compose(h, g), om0)
        residuals = (
            np.abs(om.omega2 - pred).max(),
            np.abs(xi - cdp_bar_invT @ xi0 @ cd_inv).max(),
            max(np.abs(q1_a - q1_b).max(), np.abs(q1_b - q1_c).max()),
            max(np.abs(q2_a - q2_b).max(), np.abs(q2_b - q2_c).max()),
            np.abs(two_step.omega - one_step.omega).max(),
        )
        worst = {name: max(worst[name], r / scale) for name, r in zip(names, residuals)}
    return [_row(f"lemma21/{k}", v, 1e-9) for k, v in worst.items()]


def _refined_oracle(p1: GaussianSection, p2: GaussianSection, nodes: int, tol: float) -> complex:
    """``oracle_inner_product`` from ``nodes`` per axis, doubling until two successive
    grids agree to ``tol`` (relative, absolute below 1), up to 4 * nodes against
    8 * nodes and never past ``QUAD_NODES_MAX``."""
    coarse_nodes = nodes
    coarse = oracle_inner_product(p1, p2, nodes=nodes)
    for _ in range(3):
        fine_nodes = min(2 * coarse_nodes, QUAD_NODES_MAX)
        if fine_nodes == coarse_nodes:
            break
        fine = oracle_inner_product(p1, p2, nodes=fine_nodes)
        if abs(fine - coarse) <= tol * max(1.0, abs(fine)):
            return fine
        coarse, coarse_nodes = fine, fine_nodes
    raise GridTooCoarseError(f"the oracle did not settle to {tol:.1e} by {coarse_nodes} nodes")


def suite_unitarity(seed: int = 42, trials: int = 20, oracle_trials: int = 6, nodes: int = 64) -> list[dict]:
    """Closed-form and corrected transport preserve inner products; so does the
    quadrature oracle, which starts each trial at ``nodes`` per axis and refines
    until two successive grids agree to 1e-7, 0.01 times its row's tolerance."""
    rng = np.random.default_rng(seed)
    worst_closed = worst_corrected = 0.0
    for k in range(trials):
        n = 1 if k % 2 == 0 else 2
        om, omp = random_siegel(rng, n), random_siegel(rng, n)
        p1 = _random_gaussian_section(rng, om)
        p2 = _random_gaussian_section(rng, om)
        before = inner_product(p1, p2)
        after = inner_product(*transport_uncorrected([p1, p2], omp))
        worst_closed = max(worst_closed, abs(after - before) / max(1.0, abs(before)))

        after_c = corrected_inner_product(*transport_corrected([CorrectedSection(p1), CorrectedSection(p2)], omp))
        worst_corrected = max(worst_corrected, abs(after_c - before) / max(1.0, abs(before)))

    worst_oracle = 0.0
    for k in range(oracle_trials):
        n = 1 if k < oracle_trials - 2 else 2
        om, omp = random_siegel(rng, n), random_siegel(rng, n)
        p1 = _random_gaussian_section(rng, om, m_cap=0.6)
        p2 = _random_gaussian_section(rng, om, m_cap=0.6)
        before = inner_product(p1, p2)
        after = _refined_oracle(*transport_uncorrected([p1, p2], omp), nodes, 1e-7)
        worst_oracle = max(worst_oracle, abs(after - before) / max(1.0, abs(before)))
    return [
        _row("unitarity/uncorrected_closed_form", worst_closed, 1e-8),
        _row("unitarity/corrected_closed_form", worst_corrected, 1e-8),
        _row("unitarity/quadrature_oracle", worst_oracle, 1e-5),
    ]


def suite_bogoliubov(seed: int = 42, trials: int = 100) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst = worst_scale = 0.0
    for k in range(trials):
        n = 1 if k % 2 == 0 else 2
        om, omp = random_siegel(rng, n), random_siegel(rng, n)
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        worst = max(worst, transport_equals_scaled_projection_check(alpha, om, omp))
        scale = bogoliubov_scale(om, omp)
        worst_scale = max(worst_scale, abs(scale - bogoliubov_scale_via_structures(om, omp)) / scale)
    ts = np.linspace(0.1, 2.0, 8)
    worst_alpha = max(
        abs(bogoliubov_scale(standard_point(1), diagonal_point([np.exp(2 * t)])) - np.sqrt(np.cosh(t)))
        for t in ts
    )
    return [
        _row("bogoliubov/transport_equals_scaled_projection", worst, 1e-8),
        _row("bogoliubov/scale_formulas_agree", worst_scale, 1e-10),
        _row("bogoliubov/standard_scale_sqrt_cosh", worst_alpha, 1e-12),
    ]


def suite_flatness(seed: int = 42, trials: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst_corrected = worst_modulus = worst_scalar = 0.0
    for k in range(trials):
        n = 1 if k % 2 == 0 else 2
        pts = [random_siegel(rng, n) for _ in range(3)]
        alpha = rng.normal(size=n) + 1j * rng.normal(size=n)
        start = CorrectedSection(coherent_state(alpha, pts[0]))
        around = transport_corrected(transport_corrected(transport_corrected(start, pts[1]), pts[2]), pts[0])
        worst_corrected = max(worst_corrected, difference_norm(around, start) / norm(start.section))

        # uncorrected holonomy: a unit-modulus scalar multiple of the identity, the three states as one stack
        states = [coherent_state(alpha, pts[0]), vacuum(pts[0]), coherent_state(0.5j * alpha + 0.3, pts[0])]
        around = states
        for pt in (pts[1], pts[2], pts[0]):
            around = transport_uncorrected(around, pt)
        ratios = [inner_product(s, h3) / inner_product(s, s) for s, h3 in zip(states, around)]
        worst_modulus = max(worst_modulus, *(abs(abs(r) - 1.0) for r in ratios))
        worst_scalar = max(worst_scalar, max(abs(r - ratios[0]) for r in ratios[1:]))
    return [
        _row("flatness/corrected_triangle_identity", worst_corrected, 1e-8),
        _row("flatness/uncorrected_unit_modulus", worst_modulus, 1e-8),
        _row("flatness/uncorrected_scalar_consistency", worst_scalar, 1e-7),
    ]


def suite_curvature() -> list[dict]:
    """Projective flatness, F tau2^2 = I / 8, in closed form: the Fock-frame
    connection is (i / 4 tau2) P with P constant, and d_tau (1 / tau2) =
    i / (2 tau2^2) = -d_taubar (1 / tau2), so F = (i / 2 tau2)(A_tau + A_taubar)
    + [A_tau, A_taubar].  Three tau test the 1 / tau2 scaling; the 16 x 16
    window leaves out the rows the 20-state truncation cuts."""
    worst_f = worst_skew = 0.0
    for tau in (1j, 0.3 + 2j, -1.2 + 0.4j):
        a_tau, a_taubar = fock_connection_matrix(tau, 20)
        tau2 = tau.imag
        a_real = a_tau + a_taubar  # A along the real direction d/dtau1
        f = 0.5j / tau2 * a_real + a_tau @ a_taubar - a_taubar @ a_tau
        worst_f = max(worst_f, np.abs(f[:16, :16] * tau2**2 - np.eye(16) / 8.0).max())
        worst_skew = max(worst_skew, np.abs(a_real.conj().T + a_real).max())
    return [
        _row("curvature/exact_vs_eighth", worst_f, 1e-12),
        _row("curvature/connection_skew_hermitian", worst_skew, 1e-12),
    ]


def suite_limits() -> list[dict]:
    """Transport converges to the pairing maps at both boundary ends.  For one
    displaced Gaussian with off-diagonal M per n = 1..3 and rates in [0.8, 1.2],
    each end reports the worst (S, l, k) distance at |t| = 6.5, and how much
    slower than the heat-kernel width e^{-2 lambda_min |t|} it decays from
    |t| = 5.  lambda_max |t| <= 8 keeps clear of the Kaehler norm margin (~10.4)."""
    rng = np.random.default_rng(2004)
    worst = dict.fromkeys(("bargmann_distance", "bargmann_rate", "fourier_distance", "fourier_rate"), 0.0)
    for n in (1, 2, 3):
        start = standard_point(n)
        psi = CorrectedSection(_random_gaussian_section(rng, start))
        lam = rng.uniform(0.8, 1.2, size=n)
        spec = GeodesicSpec(SymplecticMap.identity(n), lam, start, diagonal_point(np.exp(2.0 * lam)))
        for side, rep in zip(("bargmann", "fourier"), transport_limits(psi, spec, (5.0, 6.5))):
            near, far = rep.rows
            slowdown = far.distance / near.distance * np.exp(rep.predicted_rate * (abs(far.t) - abs(near.t))) - 1.0
            worst[f"{side}_distance"] = max(worst[f"{side}_distance"], far.distance)
            worst[f"{side}_rate"] = max(worst[f"{side}_rate"], slowdown)
    tols = {"distance": 3e-3, "rate": 0.15}
    return [_row(f"limits/{k}", v, tols[k.split("_")[1]]) for k, v in worst.items()]


def suite_identities(seed: int = 42, trials: int = 50) -> list[dict]:
    rng = np.random.default_rng(seed)
    worst = {"transport_vs_pairing": 0.0, "fourier_vs_pairing_pair": 0.0, "fourier_triple": 0.0}
    for _ in range(trials):
        g = random_symplectic(rng, 1)
        pol_l = BoundaryPolarization(MetaplecticElement.principal_lift(g))
        pol_lp = BoundaryPolarization.from_span(g.matrix[:, :1])
        pol_lpp = BoundaryPolarization.from_span(np.vstack([np.eye(1), [[rng.normal()]]]))
        if not (pol_l.transverse_to(pol_lpp) and pol_lp.transverse_to(pol_lpp)):
            continue
        om, omp = random_siegel(rng, 1), random_siegel(rng, 1)
        rep = composition_identities_check(om, omp, pol_l, pol_lp, pol_lpp)
        worst = {k: max(v, getattr(rep, k)) for k, v in worst.items()}
    return [_row(f"identities/{k}", v, 1e-8) for k, v in worst.items()]


SUITES = {
    "lemma21": suite_lemma21,
    "unitarity": suite_unitarity,
    "bogoliubov": suite_bogoliubov,
    "flatness": suite_flatness,
    "curvature": suite_curvature,
    "limits": suite_limits,
    "identities": suite_identities,
}
