"""``verify curvature``: the holonomy of transport around a geodesic triangle against the triangle's Kaehler area.

The rows read the curvature constant off the library's own transport, so each named mutation of that transport
below has to fail its row, and ``_signed_area``, the closed form the rows compare against, is checked against the
loop integral of the connection form A = dx / y."""

import numpy as np
import pytest

from siegelflow import CorrectedSection, suites, transport


def _rows():
    return {r["name"].split("/")[1]: r for r in suites.suite_curvature()}


def _loop_integral(a, b, c):
    """The integral of dx / y along the geodesic sides a -> b -> c -> a: on a side of centre x0 on the real axis,
    x = x0 + rho cos(theta) and y = rho sin(theta), so dx / y = -d theta.  Vertical sides (dx = 0) do not occur in a
    random draw."""
    total = 0.0
    for q, r in ((a, b), (b, c), (c, a)):
        centre = (abs(r) ** 2 - abs(q) ** 2) / (2.0 * (r.real - q.real))
        total -= np.angle(r - centre) - np.angle(q - centre)
    return total


def test_rows_pass_at_the_default_draw():
    rows = _rows()
    assert list(rows) == ["holonomy_phase_vs_area", "halfform_phase_vs_area"]
    assert [r["tolerance"] for r in rows.values()] == [1e-9, 1e-11]
    assert all(r["passed"] for r in rows.values())


def test_plain_section_given_the_corrected_prefactor_fails_both_rows(monkeypatch):
    def mutant(psis, omega_p):
        log_h = transport._halfform_log(psis[0].frame, omega_p)
        corrected = [isinstance(p, CorrectedSection) for p in psis]
        out = transport._bergman(psis[0].frame, omega_p).apply_all(
            [p.section if c else p for p, c in zip(psis, corrected)], [-log_h] * len(psis))
        return [CorrectedSection(s) if c else s for s, c in zip(out, corrected)]

    monkeypatch.setattr(suites, "_transport", mutant)
    rows = _rows()
    assert not rows["holonomy_phase_vs_area"]["passed"] and not rows["halfform_phase_vs_area"]["passed"]


def test_halfform_phase_shift_fails_the_halfform_row(monkeypatch):
    halfform_log = transport._halfform_log
    monkeypatch.setattr(transport, "_halfform_log", lambda omega, omega_p: halfform_log(omega, omega_p) + 1e-9j)
    rows = _rows()
    assert rows["holonomy_phase_vs_area"]["passed"] and not rows["halfform_phase_vs_area"]["passed"]


def test_scaled_half_logdet_fails_the_halfform_row(monkeypatch):
    half_logdet = transport.half_logdet
    monkeypatch.setattr(transport, "half_logdet", lambda a: half_logdet(a) * (1.0 + 1e-9))
    rows = _rows()
    assert rows["holonomy_phase_vs_area"]["passed"] and not rows["halfform_phase_vs_area"]["passed"]


@pytest.fixture(scope="module")
def triangles():
    rng = np.random.default_rng(25)
    return rng.normal(size=(500, 3)) + 1j * np.exp(rng.normal(size=(500, 3)))


def test_signed_area_is_the_loop_integral_of_the_connection_form(triangles):
    worst = max(abs(suites._signed_area(*t) - _loop_integral(*t)) for t in triangles)
    assert worst <= 1e-14


def test_reversed_vertices_negate_the_signed_area(triangles):
    for a, b, c in triangles:
        assert suites._signed_area(a, c, b) == pytest.approx(-suites._signed_area(a, b, c), rel=0, abs=1e-15)


def test_signed_area_sums_over_the_factors():
    # the vertices i, 1 + i, 2i and their mirror image: areas of opposite sign on the two factors
    a, b, c = np.array([1j, 1j]), np.array([1 + 1j, -1 + 1j]), np.array([2j, 2j])
    assert abs(suites._signed_area(a, b, c)) <= 1e-15
    assert suites._signed_area(a[:1], b[:1], c[:1]) > 0
