"""Compiled-engine benchmark: naive executor vs compiled plans.

Standalone script (not a pytest bench) emitting machine-readable
``BENCH_engine.json``: for each (kernel, scheme, grid) workload it times the naive schedule interpreter and the compiled
engine on identical initial state, verifies bit-identical results, and
records points/sec plus the compiled/naive speedup.

Modes:

* default (full): the paper-scale Fig. 8 (Heat-1D, 40000 points,
  64 steps, b=8) and Fig. 10 (Heat-2D, 384x384, 24 steps, b=4)
  workloads plus merged/Life variants — the committed
  ``BENCH_engine.json`` comes from this mode and is the evidence for
  the >= 3x acceptance bar;
* ``--quick``: a small subset of the same workload keys for CI smoke.
  Quick rows are (by construction) a subset of the full rows, so a
  quick run can be regression-checked against the committed baseline.

``--check BASELINE.json`` compares the *speedup* of every row whose
key also appears in the baseline and exits 1 if any regressed by more
than ``--tolerance`` (default 20%).  Speedup is a same-machine ratio,
so the check is meaningful on hosts with different absolute throughput.

Usage::

    PYTHONPATH=src python benchmarks/bench_engine.py
    PYTHONPATH=src python benchmarks/bench_engine.py --quick \
        --out /tmp/bench.json --check BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import numpy as np

from repro import Grid, get_stencil, make_lattice
from repro.core.schedules import tess_schedule
from repro.engine import PlanCache
from repro.engine.plan import _execute_plan
from repro.runtime.schedule import _execute_schedule

SCHEMA = "bench-engine/1"


def env_fingerprint():
    """The measurement environment: enough to spot stale baselines."""
    return {
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
        "threads_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                      "MKL_NUM_THREADS")
            if k in os.environ
        },
    }

#: (name, kernel, shape, steps, b, merged, quick)
WORKLOADS = [
    ("fig8-heat1d-quick", "heat1d", (4000,), 16, 4, False, True),
    ("fig10-heat2d-quick", "heat2d", (96, 96), 8, 4, False, True),
    ("fig8-heat1d", "heat1d", (40000,), 64, 8, False, False),
    ("fig10-heat2d", "heat2d", (384, 384), 24, 4, False, False),
    ("fig10-heat2d-merged", "heat2d", (384, 384), 24, 4, True, False),
    ("fig9-life", "life", (256, 256), 16, 4, False, False),
]


def _min_of_k(run, repeat, warmup):
    for _ in range(warmup):
        run()
    best, out = float("inf"), None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = run()
        dt = time.perf_counter() - t0
        if dt < best:
            best, out = dt, out
    return best, out


def _restored(grid, init, fn):
    def run():
        for dst, src in zip(grid.buffers, init):
            np.copyto(dst, src)
        return fn()

    return run


def bench_workload(name, kernel, shape, steps, b, merged, cache, repeat,
                   warmup):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps, merged=merged)
    plan = cache.get(spec, sched, params=(b, bool(merged)))

    grid = Grid(spec, shape, init="random", seed=0)
    init = [buf.copy() for buf in grid.buffers]

    naive_fn = _restored(grid, init,
                         lambda: _execute_schedule(spec, grid, sched))
    comp_fn = _restored(grid, init, lambda: _execute_plan(plan, grid))

    naive_s, naive_out = _min_of_k(naive_fn, repeat, warmup)
    naive_out = np.array(naive_out, copy=True)
    comp_s, comp_out = _min_of_k(comp_fn, repeat, warmup)
    identical = bool(np.array_equal(naive_out, comp_out))

    points = sched.total_points()
    row = {
        "name": name,
        "kernel": kernel,
        "scheme": sched.scheme,
        "shape": list(shape),
        "steps": steps,
        "b": b,
        "merged": bool(merged),
        "threads": 1,  # part of the row key (see _row_key)
        "points": int(points),
        "naive_s": naive_s,
        "compiled_s": comp_s,
        "naive_pps": points / naive_s if naive_s > 0 else 0.0,
        "compiled_pps": points / comp_s if comp_s > 0 else 0.0,
        "speedup": naive_s / comp_s if comp_s > 0 else 0.0,
        "identical": identical,
        "plan": plan.stats.describe(),
    }
    return row


def _row_key(row):
    return (row["name"], row["threads"])


def check_regression(rows, baseline_path, tolerance, env=None):
    with open(baseline_path) as fh:
        base = json.load(fh)
    base_env = base.get("env")
    if env is not None and base_env is not None and base_env != env:
        print(f"WARNING: environment fingerprint differs from "
              f"{baseline_path}: baseline {base_env}, current {env} "
              f"(speedup ratios are still compared; absolute numbers "
              f"are not comparable)", file=sys.stderr)
    base_rows = {_row_key(r): r for r in base.get("rows", [])}
    compared, failures = 0, []
    for row in rows:
        ref = base_rows.get(_row_key(row))
        if ref is None:
            continue
        compared += 1
        floor = (1.0 - tolerance) * ref["speedup"]
        if row["speedup"] < floor:
            failures.append(
                f"  {row['name']} (threads={row['threads']}): speedup "
                f"{row['speedup']:.2f}x < {floor:.2f}x "
                f"(baseline {ref['speedup']:.2f}x - {tolerance:.0%})")
    if compared == 0:
        print(f"regression check: no rows in common with {baseline_path}",
              file=sys.stderr)
        return False
    if failures:
        print(f"regression check FAILED vs {baseline_path}:",
              file=sys.stderr)
        for f in failures:
            print(f, file=sys.stderr)
        return False
    print(f"regression check OK: {compared} row(s) within "
          f"{tolerance:.0%} of {baseline_path}")
    return True


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="CI smoke: small workloads only")
    ap.add_argument("--out", default="BENCH_engine.json",
                    help="output JSON path (default: %(default)s)")
    ap.add_argument("--repeat", type=int, default=None,
                    help="min-of-k repeats (default: 3, quick: 2)")
    ap.add_argument("--check", metavar="BASELINE",
                    help="compare speedups against a baseline JSON")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed speedup regression (default: 0.20)")
    args = ap.parse_args(argv)
    repeat = args.repeat or (2 if args.quick else 3)

    cache = PlanCache(capacity=16)
    rows = []
    for name, kernel, shape, steps, b, merged, quick in WORKLOADS:
        if args.quick and not quick:
            continue
        row = bench_workload(name, kernel, shape, steps, b, merged, cache,
                             repeat, warmup=1)
        rows.append(row)
        flag = "" if row["identical"] else "  ** MISMATCH **"
        print(f"{name:24s}  "
              f"naive {row['naive_s'] * 1e3:9.1f} ms  "
              f"compiled {row['compiled_s'] * 1e3:8.1f} ms  "
              f"{row['speedup']:6.1f}x{flag}")

    env = env_fingerprint()
    payload = {
        "schema": SCHEMA,
        "quick": bool(args.quick),
        "repeat": repeat,
        "env": env,
        "cache": cache.stats.as_dict(),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out} ({len(rows)} row(s))")

    ok = all(r["identical"] for r in rows)
    if not ok:
        print("FAILED: compiled results are not bit-identical",
              file=sys.stderr)
    if args.check:
        ok = check_regression(rows, args.check, args.tolerance,
                              env=env) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
