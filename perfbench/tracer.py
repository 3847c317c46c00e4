"""Outside-in tracer: wraps the public functions and methods of each
siegelflow layer without touching its source.

``Tracer.install`` replaces every public function defined in a layer module,
and every public method of the classes defined there, with a wrapper that
records a span (id, parent id, group, start, end, failed, counts).  The
wrapper is bound under every ``siegelflow.*`` name that held the original,
including values of module-level dicts such as ``suites.SUITES``.
``Tracer.uninstall`` puts every original object back.

A span's *group* is ``<layer>`` or ``<layer>.<part>``; the layer is the
module name without a leading underscore.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

LAYER_MODULES = ("_gaussint", "sympl", "siegel", "sections", "transport", "transforms", "suites", "cli")
# metric names start with a letter, so the layer of ``_gaussint`` is ``gaussint``
LAYERS = tuple(m.lstrip("_") for m in LAYER_MODULES)

# Layer-module default group for names not listed in GROUPS.
DEFAULT_GROUP = {"sections": "sections.closed", "transport": "transport.closed"}

GROUPS = {
    "sympl.MetaplecticElement.phase_at": "sympl.phase_at",
    "siegel.geodesic_between": "siegel.geodesic",
    "sections.quadrature_integrate": "sections.quadrature",
    "sections.oracle_inner_product": "sections.quadrature",
    "sections.difference_norm": "sections.quadrature",
    "sections.GaussianSection.value": "sections.value",
    "sections.PolyFockSection.value": "sections.value",
    "transforms.BoundaryProfile.value": "sections.value",
    "transforms.segal_bargmann": "transforms.pairing",
    "transforms.segal_bargmann_inverse": "transforms.pairing",
    "transforms.fourier": "transforms.fourier",
    "transforms.fourier_general": "transforms.fourier",
    "transforms.limit_transport_to_bargmann": "transforms.limits",
    "transforms.limit_transport_to_fourier": "transforms.limits",
    "transport.transport_halfform": "transport.halfform",
    "transport.transport_ode": "transport.ode",
    "transport.transport_ode_coeffs": "transport.ode",
}

# Work counts taken from a call's bound arguments.
COUNTERS = {
    "sympl.MetaplecticElement.phase_at": lambda a: {"samples": a["steps"] + 1},
    "sections.quadrature_integrate": lambda a: {
        "points": a["nodes"] ** (2 * a["n"]) + (2 * a["nodes"]) ** (2 * a["n"]) * bool(a["check"])
    },
    "sections.GaussianSection.value": lambda a: {"points": math.prod(a["v"].shape[:-1])},
    "sections.PolyFockSection.value": lambda a: {"points": math.prod(a["v"].shape[:-1])},
    "transforms.BoundaryProfile.value": lambda a: {"points": math.prod(a["u"].shape[:-1])},
    "transport.transport_ode_coeffs": lambda a: {
        "steps": a["steps"], "basis_steps": a["steps"] * len(a["c0"])
    },
}


def group_layer(group: str) -> str:
    return group.split(".", 1)[0]


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    group: str
    t0: float
    t1: float
    failed: bool = False
    counts: dict | None = None


def _public_targets(module):
    """(key, owner, attr, descriptor, function) for each public function and
    method defined in ``module``."""
    layer = module.__name__.rsplit(".", 1)[-1].lstrip("_")
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield f"{layer}.{name}", module, name, obj, obj
        elif inspect.isclass(obj):
            for attr, desc in vars(obj).items():
                if attr.startswith("_"):
                    continue
                fn = desc.__func__ if isinstance(desc, (classmethod, staticmethod)) else desc
                if inspect.isfunction(fn):
                    yield f"{layer}.{name}.{attr}", obj, attr, desc, fn


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._last_failure: BaseException | None = None
        self._restore: list[tuple] = []

    # -- recording -------------------------------------------------------

    def _call(self, group: str, counts, fn, args, kwargs):
        sid, parent = self._next_id, (self._stack[-1] if self._stack else None)
        self._next_id += 1
        self._stack.append(sid)
        failed, t0 = False, time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            # count a failure once, in the innermost span the exception leaves
            failed = exc is not self._last_failure
            self._last_failure = exc
            raise
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, group, t0, t1, failed, counts))

    def span(self, group: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span of ``group`` (used for the benchmark's ops)."""
        return self._call(group, None, fn, args, kwargs)

    def _wrap(self, fn, group: str, counter):
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = None
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments)
            return self._call(group, counts, fn, args, kwargs)

        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "siegelflow" or name.startswith("siegelflow."))]
        replacement = {}  # id(original function or descriptor) -> wrapped
        for layer, name in zip(LAYERS, LAYER_MODULES):
            module = sys.modules[f"siegelflow.{name}"]
            for key, owner, attr, desc, fn in _public_targets(module):
                group = GROUPS.get(key, DEFAULT_GROUP.get(layer, layer))
                wrapped = self._wrap(fn, group, COUNTERS.get(key))
                if isinstance(desc, (classmethod, staticmethod)):
                    wrapped = type(desc)(wrapped)
                replacement[id(desc)] = wrapped
                self._set(owner, attr, wrapped)
        for module in modules:
            for name, value in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if inspect.isfunction(value) and id(value) in replacement:
                    self._set(module, name, replacement[id(value)])
                elif type(value) is dict:
                    for k, v in list(value.items()):
                        if inspect.isfunction(v) and id(v) in replacement:
                            self._restore.append((value.__setitem__, k, v))
                            value[k] = replacement[id(v)]

    def _set(self, owner, attr, new) -> None:
        old = vars(owner)[attr]
        if old is new:
            return
        self._restore.append((functools.partial(setattr, owner), attr, old))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output ----------------------------------------------------------

    def write(self, path) -> None:
        """Write every span once, as one compact JSON document."""
        fields = ["id", "parent", "group", "t0", "t1", "failed", "counts"]
        rows = [[s.id, s.parent, s.group, s.t0, s.t1, s.failed, s.counts] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": fields, "spans": rows}, fh, separators=(",", ":"))


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.t0
        for c0, c1 in sorted(children.get(s.id, ())):
            c0, c1 = max(c0, reach), min(c1, s.t1)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out[s.id] = (s.t1 - s.t0) - covered
    return out


# Per-layer metrics of a traced run, in the order they are printed.
PER_LAYER_METRICS = [
    *[(f"{layer}.{k}", u) for layer in LAYERS
      for k, u in (("calls", "count"), ("self_s", "s"), ("failed", "count"))],
    ("sympl.phase_at.calls", "count"),
    ("sympl.phase_at.samples", "count"),
    ("sympl.phase_at.self_s", "s"),
    ("siegel.geodesic.calls", "count"),
    ("siegel.geodesic.self_s", "s"),
    ("sections.quadrature.calls", "count"),
    ("sections.quadrature.points", "count"),
    ("sections.quadrature.self_s", "s"),
    ("sections.quadrature.points_per_s", "1/s"),
    ("sections.value.calls", "count"),
    ("sections.value.points", "count"),
    ("sections.value.self_s", "s"),
    ("sections.value.ns_per_point", "ns"),
    ("sections.closed.calls", "count"),
    ("sections.closed.self_s", "s"),
    ("transport.halfform.calls", "count"),
    ("transport.halfform.self_s", "s"),
    ("transport.closed.calls", "count"),
    ("transport.closed.self_s", "s"),
    ("transport.ode.calls", "count"),
    ("transport.ode.steps", "count"),
    ("transport.ode.basis_steps", "count"),
    ("transport.ode.self_s", "s"),
    ("transport.ode.steps_per_s", "1/s"),
    ("transforms.pairing.calls", "count"),
    ("transforms.pairing.self_s", "s"),
    ("transforms.fourier.calls", "count"),
    ("transforms.fourier.self_s", "s"),
    ("transforms.limits.calls", "count"),
    ("transforms.limits.self_s", "s"),
    ("failed_frac", "ratio"),
    ("trace.ops", "count"),
    ("trace.op_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]

OP_GROUP = "op"


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Sum calls, self time, failures and work counts per layer and group.

    ``op`` spans (one per benchmark op) give the op count and op time; their
    self time is the part of an op no layer span covers.  Points of a value
    span nested in another value span are not counted twice."""
    selfs = self_times(spans)
    groups = {s.id: s.group for s in spans}
    m = defaultdict(int)
    for s in spans:
        st = selfs[s.id]
        if s.group == OP_GROUP:
            m["trace.ops"] += 1
            m["trace.op_s"] += s.t1 - s.t0
            m["trace.unattributed_s"] += st
            continue
        layer = group_layer(s.group)
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += st
        m[f"{layer}.failed"] += s.failed
        if s.group != layer:
            m[f"{s.group}.calls"] += 1
            m[f"{s.group}.self_s"] += st
        if s.counts and not (s.group == "sections.value" and groups.get(s.parent) == s.group):
            for k, v in s.counts.items():
                m[f"{s.group}.{k}"] += v
    m["transport.ode.steps_per_s"] = _ratio(m["transport.ode.steps"], m["transport.ode.self_s"])
    m["sections.quadrature.points_per_s"] = _ratio(
        m["sections.quadrature.points"], m["sections.quadrature.self_s"])
    m["sections.value.ns_per_point"] = 1e9 * _ratio(
        m["sections.value.self_s"], m["sections.value.points"])
    return {name: m[name] for name, _ in PER_LAYER_METRICS if name not in RUN_METRICS}


# Per-layer metrics that come from the run, not from the spans.
RUN_METRICS = ("failed_frac", "trace.overhead_frac")
