"""Every public function and method of ``siegelflow`` is a route that a check runs: each ``verify``
suite (one trial where the suite takes trials) or the README's CLI block reaches it, apart from the
named entries of ``ALLOWED_UNREACHED``.

The routes run in a fresh interpreter, so that a function reached only when a cache is cold (say,
``exchange_map`` under ``BoundaryPolarization.momentum``) is seen, under ``sys.settrace``: its global
function sees every Python call and no C call, where a ``sys.setprofile`` hook, called for each numpy
call too, makes the run about four times slower.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from test_readme import _cli_examples

ROOT = Path(__file__).resolve().parent.parent

# public names that no route reaches, each with its reason
ALLOWED_UNREACHED = {
    "sections.bergman_project": "its name is pinned by perfbench/tests/test_harness.py:83",
    "transport.metaplectic_act": "ROADMAP items 14 and 23 route a row through the lifted action",
    "sympl.MetaplecticElement.compose": "ROADMAP items 14 and 23",
    "siegel.geodesic_boundary_limits": "ROADMAP items 14 and 23",
    "transport.transport_ode": "ROADMAP item 7; the CLI's --ode-check propagates amplitudes instead",
    "sections.fock_state": "ROADMAP items 5 and 20",
    "transforms.momentum_profile": "the momentum representation, which no suite row reads",
    "transforms.from_momentum_profile": "the momentum representation, which no suite row reads",
    "cli.build_parser": "it runs at import, before the trace starts",
}

_TRACE = r"""
import contextlib, importlib, inspect, io, json, pkgutil, sys

import siegelflow
from siegelflow import cli, suites


def public_codes():
    # {dotted name: code object} of each public function, and each public method, property, classmethod,
    # staticmethod or cached property of a public class, defined in a siegelflow module
    out = {}
    for info in pkgutil.iter_modules(siegelflow.__path__):
        module = importlib.import_module(f"siegelflow.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(f".{attr}", m) for attr, m in vars(obj).items() if not attr.startswith("_")] \
                if isinstance(obj, type) else [("", obj)]
            for attr, member in members:
                for unwrap in ("__func__", "fget", "func"):
                    member = getattr(member, unwrap, None) or member
                member = inspect.unwrap(member)
                if inspect.isfunction(member):
                    out[f"{info.name}.{name}{attr}"] = member.__code__
    return out


examples, codes, reached = json.load(sys.stdin), public_codes(), set()
sys.settrace(lambda frame, event, arg: reached.add(frame.f_code))
try:
    for fn in suites.SUITES.values():
        fn(**({"trials": 1} if "trials" in inspect.signature(fn).parameters else {}))
    for argv, doc in examples:
        sys.stdin = io.StringIO(doc)
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0, argv
finally:
    sys.settrace(None)
print(json.dumps({"public": len(codes), "unreached": sorted(k for k, c in codes.items() if c not in reached)}))
"""


def test_every_public_entry_is_reached_by_verify_or_the_readme_cli():
    paths = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", _TRACE], cwd=ROOT, env=env,
                          input=json.dumps(_cli_examples()), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["public"] > 90
    unreached = set(result["unreached"])
    assert unreached - ALLOWED_UNREACHED.keys() == set(), "public entries that no route runs"
    assert ALLOWED_UNREACHED.keys() - unreached == set(), "allowlisted entries that a route now runs"
