"""The closed-form det^{1/2} branches against a finely sampled continuation.

Each branch in the library is the square root continued along a path from a
point where it is known.  ``continue_sqrt_phase`` follows the same path on a
fine sampling and is the independent reference here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np

import siegelflow
from siegelflow import (
    BoundaryPolarization,
    MetaplecticElement,
    geodesic_between,
    random_siegel,
    random_symplectic,
    standard_point,
)
from siegelflow.suites import suite_identities
from siegelflow.transport import _halfform_log

import _reference
from _reference import continue_sqrt_phase, other_lift

CASES = 102  # n = 1, 2, 3 in turn
SAMPLES = 1024
TOL = 1e-12


def _segment(start: np.ndarray, end: np.ndarray) -> np.ndarray:
    s = np.linspace(0.0, 1.0, SAMPLES + 1)[:, None, None]
    return (1 - s) * start + s * end


def _cases(seed: int):
    rng = np.random.default_rng(seed)
    for k in range(CASES):
        yield rng, 1 + k % 3


def test_phase_at_matches_sampled_continuation():
    for k, (rng, n) in enumerate(_cases(101)):
        g = random_symplectic(rng, n)
        mp = MetaplecticElement.principal_lift(g, random_siegel(rng, n))
        if k % 2:
            mp = other_lift(mp)
        omega = random_siegel(rng, n)
        path = _segment(mp.reference.omega, omega.omega)
        vals = np.conj(np.linalg.det(g.c @ path + g.d))
        assert abs(mp.phase_at(omega) - continue_sqrt_phase(vals, mp.branch)) < TOL


def test_transport_halfform_matches_sampled_continuation():
    for rng, n in _cases(202):
        omega, omega_p = random_siegel(rng, n), random_siegel(rng, n)
        spec = geodesic_between(omega, omega_p)
        g = spec.g
        ts = np.linspace(0.0, 1.0, SAMPLES + 1)
        x = np.zeros((SAMPLES + 1, n, n), dtype=complex)
        x[:, np.arange(n), np.arange(n)] = 1j * np.exp(2.0 * np.outer(ts, spec.lam))
        # gamma(t) = (A X + B)(C X + D)^{-1}, solved on the transposed side
        num, den = g.a @ x + g.b, g.c @ x + g.d
        gamma = np.linalg.solve(den.transpose(0, 2, 1), num.transpose(0, 2, 1))
        vals = np.linalg.det((gamma - np.conj(omega.omega)) / 2j)
        expected = continue_sqrt_phase(vals / np.abs(vals), 1.0)
        assert abs(np.exp(1j * _halfform_log(omega, omega_p).imag) - expected) < TOL


def test_pairing_root_matches_sampled_continuation():
    for rng, n in _cases(303):
        omega = random_siegel(rng, n)
        vals = np.linalg.det(-1j * _segment(standard_point(n).omega, omega.omega))
        root = continue_sqrt_phase(vals / np.abs(vals), 1.0) * np.sqrt(abs(vals[-1]))
        expected = np.linalg.det(2.0 * omega.omega2) ** 0.25 / root
        # the pairing map from L- carries exp(-_halfform_log(L-, Omega))
        assert abs(np.exp(-_halfform_log(BoundaryPolarization.position(n), omega)) / expected - 1.0) < TOL


def test_identities_seed_that_broke_the_sampled_branch():
    # a 64-step sampling of this seed's branch turned by 1.752 >= pi/2 in one step
    rows = suite_identities(seed=525633766, trials=1)
    assert all(r["passed"] for r in rows)
    assert max(r["residual"] for r in rows) < 1e-12


def test_references_stay_out_of_the_library():
    # a reference that is also library code would check the library against itself
    tree = ast.parse(Path(_reference.__file__).read_text())
    defined = {node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert {"continue_sqrt_phase", "BranchDiscontinuityError"} <= defined
    modules = [siegelflow] + [
        importlib.import_module(f"siegelflow.{info.name}") for info in pkgutil.iter_modules(siegelflow.__path__)
    ]
    shared = {(m.__name__, name) for m in modules for name in defined if hasattr(m, name)}
    assert not shared
