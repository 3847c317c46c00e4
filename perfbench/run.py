"""siegelflow benchmark: seeded closed-loop workloads, one client, one process at a time.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the library is imported from
``src/``.  Each workload runs in worker processes of its own, with the
BLAS/OpenMP thread pools pinned to one thread.

``--trace 0`` starts the workload ``PARTS`` times, one process after the
other; each times ops for a ``PARTS``-th of ``--seconds`` on inputs of its own
(seeded by the workload seed and the part number), stopping on a period
boundary of the workload's op mix.  No input is used twice in a run.  Times
are rescaled to a reference host speed (``hostspeed.py``) measured by a
calibration kernel every ``CAL_EVERY_S`` between ops.  Latencies are pooled
over the parts and ``setup_s`` is the median over them.  ``--trace 1`` runs a
fixed, seed-determined list of ops, each period once untraced and once under
the outside-in tracer (``tracer.py``), and reports per-layer metrics; the spans
are written to ``.perfbench/spans-<workload>-seed<seed>.json``.

Informational lines come first on stdout; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
PARTS = 5
SETUP_ALLOWANCE_S = 15.0  # per worker start, on top of twice the timed seconds
CAL_EVERY_S = 0.25  # ops between two host-speed calibrations, in seconds
POOL_MARGIN = 4.0  # inputs for this many times the ops a part is expected to run
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0, 65.0, 50.0)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_METRICS = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def percentile(samples, p: float) -> tuple[float, int]:
    """(nearest-rank p-th percentile, number of samples above its rank)."""
    xs = sorted(samples)
    rank = max(1, math.ceil(len(xs) * p / 100.0))
    return xs[rank - 1], len(xs) - rank


def tail_rule(n: int) -> float:
    """The highest of TAIL_PERCENTILES that leaves at least ten of n samples
    above its rank (50 when none does).  Each workload fixes its ``tail_p`` by
    this rule at the lowest op count seen in runs of BENCHMARK.json's length,
    so that every run of it reports the same percentile."""
    return next((p for p in TAIL_PERCENTILES if n - math.ceil(n * p / 100.0) >= 10), 50.0)


# ---------------------------------------------------------------------------
# worker side: one process per workload start


def _run_op(op, call=None):
    """Time one op's call; check its output untimed.  Returns (seconds, outcome)
    with outcome "ok", "check" (wrong output) or the exception's type name."""
    t0 = time.perf_counter()
    try:
        result = call(op.call) if call else op.call()
    except Exception as exc:
        return time.perf_counter() - t0, type(exc).__name__
    dt = time.perf_counter() - t0
    return dt, "ok" if op.check(result) else "check"


def _pass(ops, call=None, outcomes=None) -> float:
    """Run ``ops`` in order, adding to ``outcomes``; returns the summed time of
    the calls."""
    busy = 0.0
    for op in ops:
        dt, outcome = _run_op(op, call)
        busy += dt
        if outcomes is not None:
            outcomes[outcome] += 1
    return busy


def measure(ops, period: int, seconds: float) -> dict:
    """Run ``ops`` in whole periods, each input once, until the period boundary
    nearest ``seconds`` of wall time.  Every ``CAL_EVERY_S`` of ops the host
    speed is measured, and the ops since the last measurement are rescaled by
    the mean slowdown of the two measurements around them."""
    import hostspeed

    outcomes, latencies, raw_latencies, slowdowns = Counter(), [], [], []
    busy = raw_busy = 0.0
    batch, batch_s = [], 0.0  # (seconds, outcome) of the ops since the last calibration
    kernel_s = first_kernel_s = hostspeed.measure()
    start, i = time.perf_counter(), 0

    def close_batch():
        nonlocal kernel_s, batch, batch_s, busy, raw_busy
        now_s = hostspeed.measure()
        slowdown = hostspeed.slowdown(kernel_s, now_s)
        slowdowns.append(slowdown)
        for dt, outcome in batch:
            busy += dt / slowdown
            raw_busy += dt
            if outcome == "ok":
                latencies.append(dt / slowdown)
                raw_latencies.append(dt)
        kernel_s, batch, batch_s = now_s, [], 0.0

    while i + period <= len(ops):
        for op in ops[i:i + period]:
            dt, outcome = _run_op(op)
            outcomes[outcome] += 1
            batch.append((dt, outcome))
            batch_s += dt
            if batch_s >= CAL_EVERY_S:
                close_batch()
        i += period
        elapsed = time.perf_counter() - start
        if elapsed * (1.0 + 0.5 * period / i) >= seconds:
            break
    if batch:
        close_batch()
    return {"kernel_s_first": first_kernel_s, "attempted": i, "pool": len(ops),
            "outcomes": outcomes, "busy_s": busy, "raw_busy_s": raw_busy,
            "latencies_s": latencies, "raw_latencies_s": raw_latencies, "slowdowns": slowdowns}


def traced_pass(ops, period: int):
    """Run ``ops`` one period at a time, untraced and traced, the two in turn
    first, so that both see the same machine conditions.  Returns (tracer,
    per-layer metrics without failed_frac, outcomes of the traced ops)."""
    import tracer

    tr, outcomes, plain_busy, busy = tracer.Tracer(), Counter(), 0.0, 0.0
    for k in range(0, len(ops), period):
        chunk = ops[k:k + period]
        if k // period % 2:
            plain_busy += _pass(chunk)
        with tr:
            busy += _pass(chunk, lambda call: tr.span(tracer.OP_GROUP, call), outcomes)
        if not k // period % 2:
            plain_busy += _pass(chunk)
    per_layer = tracer.layer_metrics(tr.spans)
    per_layer["trace.overhead_frac"] = busy / plain_busy - 1.0
    return tr, per_layer, outcomes


def _worker(args) -> dict:
    import resource

    import numpy as np

    import siegelflow

    src = (ROOT / "src").resolve()
    if src not in Path(siegelflow.__file__).resolve().parents:
        raise SystemExit(f"siegelflow imported from {siegelflow.__file__}, not from {src}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.worker == "trace":
        periods, seed = max(1, round(0.45 * args.seconds / wl.period_est_s)), args.seed
    else:
        periods = max(2, math.ceil(POOL_MARGIN * args.seconds / wl.period_est_s))
        seed = [args.seed, args.part]
    # a leading period gives the warm-up op (lru_cache, lazy imports) inputs of its own
    ops = workloads.make_ops(wl, seed, periods + 1)
    _run_op(ops[0])
    ops = ops[wl.period:]
    out = {"setup_s": time.monotonic() - args.spawned_at, "numpy": np.__version__}
    if args.worker == "measure":
        return {**out, **measure(ops, wl.period, args.seconds), "tail_p": wl.tail_p,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    tr, per_layer, outcomes = traced_pass(ops, wl.period)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"spans-{wl.name}-seed{args.seed}.json")
    return {**out, "attempted": len(ops), "outcomes": outcomes, "per_layer": per_layer}


# ---------------------------------------------------------------------------
# parent side


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), str(ROOT / "perfbench"), env.get("PYTHONPATH")) if p
    )
    return env


def _start_worker(role: str, args, env: dict, deadline: float, part: int = 0) -> dict:
    """Run one worker process.  A measure worker's ``setup_s`` is rescaled by
    the host slowdown measured here just before the spawn and in the worker
    just after its set-up."""
    import hostspeed

    seconds = args.seconds if role == "trace" else args.seconds / PARTS
    kernel_s = hostspeed.measure()
    spawned = time.monotonic()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", role,
           "--workload", args.workload, "--seed", str(args.seed), "--part", str(part),
           "--seconds", str(seconds), "--spawned-at", repr(spawned)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - spawned))
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if role == "measure":
        result["raw_setup_s"] = result["setup_s"]
        result["setup_s"] /= hostspeed.slowdown(kernel_s, result["kernel_s_first"])
    return result


def _environment(args, numpy_version: str) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy_version, "commit": commit,
    }


def timed_metrics(runs, tail_p: float, prefix: str = "") -> tuple[dict, int]:
    """End-to-end metrics of the measure workers' results, from the rescaled
    times, or from the times as measured with ``prefix="raw_"``.  Also returns
    the number of latencies beyond the tail percentile."""
    lat_ms = [1000.0 * t for r in runs for t in r[prefix + "latencies_s"]]
    tail, beyond = percentile(lat_ms, tail_p)
    return {
        "setup_s": statistics.median(r[prefix + "setup_s"] for r in runs),
        "ops_per_s": len(lat_ms) / sum(r[prefix + "busy_s"] for r in runs),
        "op_p50_ms": statistics.median(lat_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
    }, beyond


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--worker", choices=("measure", "trace"), help=argparse.SUPPRESS)
    parser.add_argument("--part", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        print(json.dumps(_worker(args)))
        return 0

    if not (ROOT / "src" / "siegelflow" / "__init__.py").is_file():
        print(f"no siegelflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + 2.0 * args.seconds + PARTS * SETUP_ALLOWANCE_S
    # before numpy is imported: the calibration kernel runs here and in the workers
    os.environ.update({var: "1" for var in THREAD_VARS})
    env = _worker_env()
    try:
        if args.trace:
            runs = [_start_worker("trace", args, env, deadline)]
        else:
            runs = [_start_worker("measure", args, env, deadline, part) for part in range(PARTS)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    outcomes = sum((Counter(r["outcomes"]) for r in runs), Counter())
    attempted = sum(r["attempted"] for r in runs)
    failed = attempted - outcomes.get("ok", 0)
    print(json.dumps({"environment": _environment(args, runs[0]["numpy"]), "outcomes": outcomes}))
    if args.trace:
        import tracer

        metrics = dict(runs[0]["per_layer"], failed_frac=failed / attempted)
        units = dict(tracer.PER_LAYER_METRICS)
    else:
        if not any(r["latencies_s"] for r in runs):
            print(f"benchmark failed: no op passed ({dict(outcomes)})", file=sys.stderr)
            return 1
        tail_p = runs[0]["tail_p"]
        metrics, beyond = timed_metrics(runs, tail_p)
        raw, _ = timed_metrics(runs, tail_p, prefix="raw_")
        units = dict(END_TO_END_METRICS)
        n_lat = sum(len(r["latencies_s"]) for r in runs)
        slowdowns = [x for r in runs for x in r["slowdowns"]]
        print(f"{'failed_frac':<34} {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
        print(f"{'op_tail_ms':<34} is p{tail_p:g} of {n_lat} completed ops, "
              f"{beyond} beyond it (the ten-beyond rule gives p{tail_rule(n_lat):g})")
        print(f"{'host slowdown':<34} median {statistics.median(slowdowns):.4g}, range "
              f"{min(slowdowns):.4g} to {max(slowdowns):.4g} over {len(slowdowns)} calibrations")
        print(f"{'unused inputs':<34} {sum(r['pool'] - r['attempted'] for r in runs)} ops")
        for name, unit in END_TO_END_METRICS[:4]:
            print(f"{'as timed, not rescaled: ' + name:<34} {raw[name]:.6g} {unit}")
    for name, unit in units.items():
        print(f"{name:<34} {metrics[name]:.6g} {unit}")
    print(json.dumps({
        "correct": outcomes.get("check", 0) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
