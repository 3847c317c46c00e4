"""Acceptance battery: every criterion printed as one pass/fail line.

Run with `pytest -v tests/test_acceptance.py`; the lines are emitted
outside of capture so they appear in any mode.
"""

import numpy as np

from siegelflow import (
    BoundaryPolarization,
    CorrectedSection,
    GaussianSection,
    coherent_state,
    diagonal_point,
    difference_norm,
    fock_coefficients,
    fourier,
    norm,
    random_siegel,
    segal_bargmann,
    segal_bargmann_inverse,
    standard_point,
    transport_coherent,
    transport_kernel_apply,
    transport_ode,
    transport_uncorrected,
)
from siegelflow.suites import (
    suite_bogoliubov,
    suite_curvature,
    suite_flatness,
    suite_identities,
    suite_lemma21,
    suite_limits,
    suite_unitarity,
)

from conftest import random_gaussian_section, standard_profile

I1 = standard_point(1)


def _report(capsys, idx, name, passed, detail):
    with capsys.disabled():
        print(f"[acceptance {idx:02d}] {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {idx} ({name}): {detail}"


def test_criterion_01_ode_matches_closed_form(capsys):
    worst = 0.0
    for alpha in (0.0, 1.0, 1.0 + 1.0j):
        for t in (0.25, 0.5, 1.0):
            start = coherent_state([alpha], I1)
            # 64 amplitudes start the basis at 256 states
            a = transport_ode(fock_coefficients(start, 64), 1.0, t, 10000)[:32]
            closed = transport_coherent([alpha], I1, diagonal_point([np.exp(2 * t)]))
            b = fock_coefficients(closed, 32)
            worst = max(worst, np.linalg.norm(a - b) / np.linalg.norm(b))
    _report(
        capsys, 1, "coherent transport: propagator vs closed form (32-coefficient norm)",
        worst <= 1e-12, f"max relative error {worst:.3e} <= 1e-12",
    )


def test_criterion_02_fock_rows(capsys):
    t = 0.6
    sh, th = 1 / np.cosh(t), np.tanh(t)
    vs = np.array([[0.0, 0.0], [0.7, 0.0], [-0.3, 0.4], [1.0, 1.0], [0.0, -1.2]])
    worst = 0.0
    target_frame = diagonal_point([np.exp(2 * t)])
    z = (vs @ target_frame.coord_matrix.T)[:, 0]
    gaussian = np.exp(-0.5 * z**2 * th - 0.5 * np.abs(z) ** 2)
    printed = {
        0: np.sqrt(sh) * gaussian,
        1: np.sqrt(sh) * z * sh * gaussian,
        2: np.sqrt(sh) * (z**2 * sh**2 + th) * gaussian,
    }
    for k, target in printed.items():
        monomial = GaussianSection(I1, [[0.0]], [0.0], 0.0, np.eye(k + 1, dtype=complex)[k])
        moved = transport_uncorrected(monomial, target_frame)
        worst = max(worst, np.abs(moved.value(vs) - target).max())
    _report(
        capsys, 2, "printed transport rows for 1, z, z^2 on a 5-point grid",
        worst <= 1e-10, f"max deviation {worst:.3e} <= 1e-10",
    )


def test_criterion_03_bogoliubov_identity(capsys):
    rows = suite_bogoliubov(seed=42, trials=100)
    res = {r["name"].split("/")[1]: r for r in rows}
    ok = (
        res["transport_equals_scaled_projection"]["residual"] <= 1e-8
        and res["standard_scale_sqrt_cosh"]["residual"] <= 1e-12
    )
    _report(
        capsys, 3, "transport equals rescaled projection over 100 random pairs",
        ok,
        f"residual {res['transport_equals_scaled_projection']['residual']:.3e} <= 1e-8, "
        f"sqrt(cosh) deviation {res['standard_scale_sqrt_cosh']['residual']:.3e} <= 1e-12",
    )


def test_criterion_04_unitarity(capsys):
    rows = suite_unitarity(seed=42)
    res = {r["name"].split("/")[1]: r for r in rows}
    ok = all(r["passed"] for r in rows)
    _report(
        capsys, 4, "transport preserves inner products (closed form + oracle)",
        ok,
        f"closed {res['uncorrected_closed_form']['residual']:.3e} <= 1e-8, "
        f"corrected {res['corrected_closed_form']['residual']:.3e} <= 1e-8, "
        f"oracle(64) {res['quadrature_oracle']['residual']:.3e} <= 1e-5",
    )


def test_criterion_05_flatness(capsys):
    rows = suite_flatness(seed=42, trials=50)
    res = {r["name"].split("/")[1]: r for r in rows}
    ok = (
        res["corrected_triangle_identity"]["residual"] <= 1e-8
        and res["uncorrected_unit_modulus"]["residual"] <= 1e-8
    )
    _report(
        capsys, 5, "triangle holonomy: identity (corrected) / unit scalar (uncorrected)",
        ok,
        f"corrected {res['corrected_triangle_identity']['residual']:.3e}, "
        f"modulus deviation {res['uncorrected_unit_modulus']['residual']:.3e} <= 1e-8 "
        "over 50 triangles",
    )


def test_criterion_06_curvature(capsys):
    plain, halfform = (r["residual"] for r in suite_curvature())
    _report(
        capsys, 6, "triangle holonomy phase equals a quarter of the Kaehler area; half-form phases cancel it",
        plain <= 1e-9 and halfform <= 1e-11,
        f"phase {plain:.3e} <= 1e-9, half-form {halfform:.3e} <= 1e-11 over 30 triangles at n = 1..3",
    )


def test_criterion_07_kernel_equivalence(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for k in range(50):
        n = 1 if k < 40 else 2
        om, omp = random_siegel(rng, n), random_siegel(rng, n)
        phi = random_gaussian_section(rng, om, m_cap=0.7)
        a = transport_kernel_apply(phi, om, omp, "bergman")[0]
        b = transport_kernel_apply(phi, om, omp, "holomorphic")[0]
        worst = max(worst, difference_norm(a, b) / max(norm(a), 1e-12))
    _report(
        capsys, 7, "reproducing and holomorphic kernels agree on 50 random sections",
        worst <= 1e-8, f"max relative deviation {worst:.3e} <= 1e-8",
    )


def test_criterion_08_boundary_limits(capsys):
    rows = suite_limits()
    res = {r["name"].split("/")[1]: r for r in rows}
    ok = all(r["passed"] for r in rows)
    _report(
        capsys, 8, "boundary limits in closed form for n = 1..3 with the heat-width decay",
        ok,
        f"(S, l, k) distances {res['bargmann_distance']['residual']:.3e} / "
        f"{res['fourier_distance']['residual']:.3e} <= 3e-3, "
        f"decay shortfalls {res['bargmann_rate']['residual']:.1%} / "
        f"{res['fourier_rate']['residual']:.1%} <= 15%",
    )


def test_criterion_09_composition_identities(capsys):
    rows = suite_identities(seed=42, trials=50)
    worst = max(r["residual"] for r in rows)
    # the reconstructed transform matches the direct kernel with its phase
    rng = np.random.default_rng(9)
    mom = BoundaryPolarization.momentum(1)
    worst_phase = 0.0
    for prof in (standard_profile(1), GaussianSection(BoundaryPolarization.position(1), [[-1.0]], [0.0], 0.0, [0.0, 1.0])):
        s = CorrectedSection(prof)
        direct = fourier(s)
        rebuilt = segal_bargmann_inverse(segal_bargmann(s, random_siegel(rng, 1)), mom)
        worst_phase = max(
            worst_phase, difference_norm(direct, rebuilt) / norm(prof)
        )
    ok = worst <= 1e-8 and worst_phase <= 1e-8
    _report(
        capsys, 9, "operator identities over 50 transverse configurations",
        ok,
        f"max identity residual {worst:.3e} <= 1e-8, "
        f"direct-vs-rebuilt transform {worst_phase:.3e} <= 1e-8",
    )


def test_criterion_10_change_of_point_identities(capsys):
    rows = suite_lemma21(seed=42, trials=200)
    worst = max(r["residual"] for r in rows)
    _report(
        capsys, 10, "matrix change-of-point identities over 200 random draws",
        worst <= 1e-9, f"max residual {worst:.3e} <= 1e-9",
    )
