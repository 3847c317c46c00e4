"""Per-op A/B timing of two source trees on one benchmark workload.

    python tools/ab_ops.py --workload <name> [--parent <rev>] [--seed <n>] [--periods <p>] [--rounds <r>]

Compares the library at ``<rev>`` (default ``HEAD``), extracted by ``git archive`` into a temporary directory, with
the library of this working tree, staged or not.  Each round runs one worker process per tree, in ABBA order (the
parent first in even rounds, the working tree first in odd ones).  A worker imports its own tree's ``src/`` and this
tree's ``perfbench/workloads.py``, so both sides run the same op list.  It builds ``periods + 1`` periods of the named
workload for ``seed``, runs the first period untimed as a warm-up, and times each op of the others with
``time.thread_time``; each check runs untimed.  The BLAS and OpenMP pools are pinned to one thread.

For each op name, and for a whole period, it prints the median over rounds of the mean milliseconds per call on each
side, the parent's quartiles over rounds, the ratio change / parent of the medians and the number of rounds in which
the working tree was faster.  Ops whose check failed or that raised are counted per side and left out of the times.
Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def worker(tree: Path, workload: str, seed: int, periods: int) -> dict:
    """{op name: [seconds of each timed call that passed], "failed": {op name: count}} for ``tree``'s library."""
    sys.path[:0] = [str(tree / "src"), str(ROOT / "perfbench")]
    import workloads

    assert Path(workloads.siegelflow.__file__).resolve().is_relative_to(tree.resolve()), workloads.siegelflow.__file__
    w, raised = workloads.WORKLOADS[workload], object()
    times, failed = defaultdict(list), defaultdict(int)
    for k, op in enumerate(workloads.make_ops(w, seed, periods + 1)):
        t0 = time.thread_time()
        try:
            result = op.call()
        except Exception:
            result = raised
        dt = time.thread_time() - t0
        if k < w.period:
            continue  # the warm-up period
        if result is not raised and op.check(result):
            times[op.name].append(dt)
        else:
            failed[op.name] += 1
    return {"times": times, "failed": failed, "periods": periods}


def _run_worker(tree: Path, args) -> dict:
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree), "--workload", args.workload,
           "--seed", str(args.seed), "--periods", str(args.periods)]
    out = subprocess.run(cmd, env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _archive(rev: str, dest: Path) -> None:
    data = subprocess.run(["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True).stdout
    with tempfile.TemporaryFile() as f:
        f.write(data)
        f.seek(0)
        with tarfile.open(fileobj=f) as tar:
            tar.extractall(dest, filter="data")


def _quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def report(rounds: list[dict], name_width: int = 28) -> list[str]:
    """The table of ``main`` from per-round {"parent": worker result, "change": worker result}; the period row is
    the milliseconds of the passing calls per period."""
    names = sorted({n for r in rounds for side in r.values() for n in side["times"]})
    per_call = defaultdict(lambda: defaultdict(list))  # name -> side -> mean ms per call, one per round
    for r in rounds:
        for side, res in r.items():
            for n in names:
                xs = res["times"].get(n, [])
                if xs:
                    per_call[n][side].append(1e3 * sum(xs) / len(xs))
            per_call["(period)"][side].append(1e3 * sum(map(sum, res["times"].values())) / res["periods"])
    lines = [f"{'op':<{name_width}} {'calls':>5} {'parent_ms':>10} {'change_ms':>10} {'parent_q1':>10} "
             f"{'parent_q3':>10} {'ratio':>7} {'faster':>7}"]
    for n in [*names, "(period)"]:
        a, b = per_call[n]["parent"], per_call[n]["change"]
        if not a or not b:
            lines.append(f"{n:<{name_width}} no passing call on one side")
            continue
        q1, q3 = _quartiles(a)
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum(y < x for x, y in zip(a, b))
        calls = "" if n == "(period)" else len(rounds[0]["parent"]["times"].get(n, []))
        lines.append(f"{n:<{name_width}} {calls:>5} {ma:>10.4f} {mb:>10.4f} {q1:>10.4f} {q3:>10.4f} "
                     f"{mb / ma:>7.3f} {wins:>3}/{min(len(a), len(b)):<3}")
    for side in ("parent", "change"):
        failed = defaultdict(int)
        for r in rounds:
            for n, c in r[side]["failed"].items():
                failed[n] += c
        if failed:
            lines.append(f"failed on {side}: " + ", ".join(f"{n} {c}" for n, c in sorted(failed.items())))
    return lines


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", default="HEAD")
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--periods", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=11)
    parser.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.periods < 1 or args.rounds < 1:
        parser.error("--periods and --rounds take an integer >= 1")
    if args.worker is not None:
        print(json.dumps(worker(args.worker, args.workload, args.seed, args.periods)))
        return 0
    with tempfile.TemporaryDirectory(prefix="ab_ops_") as tmp:
        parent = Path(tmp)
        _archive(args.parent, parent)
        trees = {"parent": parent, "change": ROOT}
        rounds = []
        for k in range(args.rounds):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            rounds.append({side: _run_worker(trees[side], args) for side in order})
            print(f"round {k + 1}/{args.rounds} done", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, {args.periods} periods, {args.rounds} ABBA rounds; "
          f"parent {args.parent} against the working tree; thread_time ms per call")
    print("\n".join(report(rounds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
