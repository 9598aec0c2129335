"""End-to-end request benchmark of the tessellating-stencils repo.

Run from the root of a checkout::

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):

* ``warm-mix``     — ``Session.run`` over four configs already in the
  plan cache;
* ``cold-mix``     — ``Session.run`` where every request lowers a plan
  never seen before;
* ``batched-exec`` — ``Session.run_many`` with 16 instances, warm;
* ``served``       — a ``repro serve`` subprocess driven over HTTP by
  one client.

Every output is compared byte for byte with ``reference_sweep`` of the
same seeded grid, outside the timed region.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones (spans recorded by
this benchmark around its calls into each layer; nothing in ``src/`` is
instrumented).  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--self-test`` runs every workload twice on one seed and checks that
the computed counts repeat exactly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench")
BASELINE = os.path.join(HERE, "baseline.json")
WORKLOADS = ("warm-mix", "cold-mix", "batched-exec", "served")
#: set-ups per run; setup_s is their median
SETUP_REPEATS = 3

#: counts that must repeat exactly for a given seed
EXACT_COUNTS = (
    "core.tasks", "core.groups", "engine.units", "engine.index_bytes",
    "engine.bytes_moved_computed", "work.cell_updates",
    "service.journal_records_per_job", "service.http_requests_per_job",
)

#: per-layer metrics, in the order BENCHMARK.json lists them; every
#: workload reports all of them, 0 where a layer is not on its path
LAYER_UNITS = {
    "core.schedule_build_s": "s",
    "runtime.schedule_stats_s": "s",
    "engine.compile_s": "s",
    "engine.lookup_s": "s",
    "engine.execute_s": "s",
    "engine.mstencil_s": "Mcell/s",
    "engine.cache_hit_ratio": "ratio",
    "engine.sliced_share": "ratio",
    "api.session_self_s": "s",
    "stencils.reference_sweep_s": "s",
    "trace.request_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
    "core.tasks": "count",
    "core.groups": "count",
    "engine.units": "count",
    "engine.index_bytes": "bytes",
    "engine.bytes_moved_computed": "bytes",
    "engine.traffic_bound_bytes": "bytes",
    "work.cell_updates": "count",
    "error_rate": "fraction",
    "e2e.latency_p50_s": "s",
    "e2e.latency_tail_s": "s",
    "e2e.throughput_mstencil_s": "Mcell/s",
    "service.submit_s": "s",
    "service.wait_s": "s",
    "service.result_fetch_s": "s",
    "service.overhead_s": "s",
    "service.replay_p50_s": "s",
    "service.polls_per_job": "count",
    "service.http_requests_per_job": "count",
    "service.journal_records_per_job": "count",
    "service.journal_bytes_per_job": "bytes",
    "service.dedup_hits": "count",
    "service.jobstore.submit_s": "s",
    "service.jobstore.record_result_s": "s",
    "service.jobstore.load_result_s": "s",
}

E2E_UNITS = {
    "setup_s": "s",
    "slowdown_vs_sweep": "ratio",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check that two runs of one seed give "
                    "identical computed counts")
    args = ap.parse_args(argv)
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    return args


def _run(workload: str, seed: int, seconds: float, traced: bool,
         setup_repeats: int):
    """``(samples, setups, counts, extra, tracer)`` of one workload."""
    from common import peak_rss_mb_self
    from tracing import Tracer

    tracer = Tracer() if traced else None
    extra: Dict[str, float] = {}
    if workload == "served":
        from served import jobstore_timings, run_served

        samples, setups, counts, extra = run_served(
            seed, seconds, tracer, SRC, WORK_DIR, setup_repeats)
        if traced:
            extra["jobstore"] = jobstore_timings(WORK_DIR, seed)
    else:
        from inproc import run_inprocess

        samples, setups, counts = run_inprocess(
            workload, seed, seconds, tracer, setup_repeats)
        extra["peak_rss_mb"] = peak_rss_mb_self()
    return samples, setups, counts, extra, tracer


def _latency_pool(workload, samples):
    ok = [s for s in samples if s.ok]
    if workload == "served":
        ok = [s for s in ok if not s.extra["replay"]]
    return ok


def latency_figures(workload, pool) -> Dict[str, object]:
    """Time figures of a pool of requests, built from per-config
    medians: the median wall time of each config of the mix, which
    holds while slow phases of the shared host cover under half of
    that config's requests.  The plain tail (11th-largest request) is
    given beside them."""
    from common import mean, median, per_config, tail

    configs = per_config(pool)
    clients = 1
    if workload == "served":
        from served import CLIENTS as clients

    typical = sum(c["n"] * c["wall_p50"] for c in configs.values())
    updates = sum(c["n"] * c["updates"] for c in configs.values())
    sweep = sum(c["n"] * c["sweep_p50"] for c in configs.values())
    # each request over the sweep run right after it on its inputs:
    # both see the same state of the host, so its speed cancels
    paired = sum(c["n"] * c["sweep_p50"] * c["ratio_p50"]
                 for c in configs.values())
    value, pct, n = tail([s.wall for s in pool])
    return {
        "per_config": configs,
        "latency_p50_s": mean([c["wall_p50"] for c in configs.values()]),
        "throughput_mstencil_s": (clients * updates / typical / 1e6
                                  if typical else 0.0),
        "slowdown_vs_sweep": paired / sweep if sweep else 0.0,
        "latency_tail_s": value,
        "latency_tail_percentile": pct,
        "latency_samples": n,
        "latency_p50_all_s": median([s.wall for s in pool]),
    }


def end_to_end(workload, samples, setups, extra):
    """``(metrics, details)``: the bounded end-to-end metrics and the
    report line's figures beside them."""
    from common import median

    pool = _latency_pool(workload, samples)
    details = latency_figures(workload, pool)
    timed = (extra["elapsed"] if workload == "served"
             else sum(s.wall for s in samples))
    details["throughput_measured_mstencil_s"] = (
        sum(s.updates for s in pool) / timed / 1e6 if timed else 0.0)
    metrics = {
        "setup_s": median(setups),
        "slowdown_vs_sweep": details["slowdown_vs_sweep"],
        "peak_rss_mb": extra["peak_rss_mb"],
    }
    return metrics, details


def per_layer(workload, samples, counts, extra, tracer) -> Dict[str, float]:
    from common import mean, median
    from tracing import self_times

    out = {name: 0.0 for name in LAYER_UNITS}
    out.update({k: float(v) for k, v in counts.items() if k in out})
    actions = counts.get("engine.actions", 0)
    if actions:
        out["engine.sliced_share"] = counts["engine.sliced_actions"] / actions
    ok = [s for s in samples if s.ok]
    out["error_rate"] = (len(samples) - len(ok)) / max(1, len(samples))
    hits = sum(s.cache_hits for s in ok)
    looks = hits + sum(s.cache_misses for s in ok)
    out["engine.cache_hit_ratio"] = hits / looks if looks else 0.0
    pool = _latency_pool(workload, samples)
    out["stencils.reference_sweep_s"] = mean([s.sweep for s in pool])

    traced = [s for s in pool if s.traced]
    untraced = [s for s in pool if not s.traced]
    figures = latency_figures(workload, untraced)
    for name in ("latency_p50_s", "latency_tail_s", "throughput_mstencil_s"):
        out[f"e2e.{name}"] = figures[name]
    out["trace.request_s"] = mean([s.wall for s in traced])
    out["trace.overhead_s"] = (mean([s.wall for s in traced])
                               - mean([s.wall for s in untraced]))
    per_request = self_times(tracer.spans)
    ids = {s.request_id for s in traced}

    def layer_mean(name):
        return mean([per_request.get(rid, {}).get(name, 0.0)
                     for rid in ids])

    out["trace.unaccounted_s"] = layer_mean("request")
    if workload != "served":
        out["core.schedule_build_s"] = layer_mean("core.schedule_build")
        out["runtime.schedule_stats_s"] = layer_mean(
            "runtime.schedule_stats")
        out["engine.compile_s"] = layer_mean("engine.compile")
        out["engine.lookup_s"] = layer_mean("engine.lookup")
        out["engine.execute_s"] = layer_mean("engine.execute")
        out["api.session_self_s"] = layer_mean("api.session_run")
        execute = out["engine.execute_s"] * len(ids)
        updates = sum(s.updates for s in traced)
        out["engine.mstencil_s"] = updates / execute / 1e6 if execute else 0.0
        return out

    # served: the server's own RunStats.phases stand in for the layers
    # inside the serve process; the client spans cover the service path
    def phase_mean(name, rows=pool):
        return mean([s.phases.get(name, 0.0) for s in rows])

    out["core.schedule_build_s"] = phase_mean("build")
    out["engine.execute_s"] = phase_mean("execute")
    missed = [s for s in pool if s.cache_misses]
    hit = [s for s in pool if not s.cache_misses]
    out["engine.compile_s"] = phase_mean("lower", missed)
    out["engine.lookup_s"] = phase_mean("lower", hit)
    execute = sum(s.phases.get("execute", 0.0) for s in pool)
    out["engine.mstencil_s"] = (sum(s.updates for s in pool) / execute
                                / 1e6 if execute else 0.0)
    out["service.submit_s"] = median([s.extra["submit_s"] for s in pool])
    out["service.wait_s"] = median([s.extra["wait_s"] for s in pool])
    out["service.result_fetch_s"] = median(
        [s.extra["fetch_s"] for s in pool])
    out["service.overhead_s"] = median(
        [s.wall - sum(s.phases.values()) for s in pool])
    out["service.polls_per_job"] = mean([s.extra["polls"] for s in pool])
    out["service.replay_p50_s"] = median(
        [s.wall for s in ok if s.extra["replay"]])
    out["service.journal_bytes_per_job"] = extra["journal_bytes_per_job"]
    out["service.dedup_hits"] = extra["dedup_hits"]
    store = extra.get("jobstore", {})
    out["service.jobstore.submit_s"] = store.get("submit", 0.0)
    out["service.jobstore.record_result_s"] = store.get("record_result", 0.0)
    out["service.jobstore.load_result_s"] = store.get("load_result", 0.0)
    return out


def _write(name: str, payload) -> str:
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, name)
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return os.path.relpath(path, ROOT)


def _self_test(args) -> int:
    """Two runs of one seed must give identical computed counts."""
    failures: List[str] = []
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    for workload in workloads:
        runs = []
        for _ in range(2):
            _, _, counts, _, _ = _run(workload, args.seed, 0.0, False, 1)
            runs.append({k: counts.get(k) for k in EXACT_COUNTS
                         if k in counts})
        same = runs[0] == runs[1]
        print(f"self-test {workload}: {'ok' if same else 'MISMATCH'} "
              f"{runs[0]}")
        if not same:
            failures.append(f"{workload}: {runs[0]} != {runs[1]}")
    if failures:
        print("self-test FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    if args.self_test:
        return _self_test(args)

    from common import env_fingerprint, warn_on_drift

    # repro serve journals with fsync on (its default)
    env = env_fingerprint(fsync=True if args.workload == "served" else None)
    warn_on_drift(env, BASELINE)
    samples, setups, counts, extra, tracer = _run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        SETUP_REPEATS)

    failed = sum(1 for s in samples if not s.ok)
    mismatched = sum(1 for s in samples
                     if s.error == "output differs from reference_sweep")
    e2e, details = end_to_end(args.workload, samples, setups, extra)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "attempted": len(samples),
        "error_rate": failed / max(1, len(samples)),
        "errors": sorted({s.error for s in samples if s.error}),
        "setup_runs_s": setups,
        "end_to_end_details": details,
        "counts_computed": counts,
    }
    tag = f"{args.workload}-{args.seed}-t{args.trace}"
    report["samples_file"] = _write(f"samples-{tag}.json", [
        {"label": s.label, "wall": s.wall, "sweep": s.sweep, "ok": s.ok,
         "traced": s.traced, "replay": bool(s.extra.get("replay"))}
        for s in samples])
    if args.trace:
        metrics = per_layer(args.workload, samples, counts, extra, tracer)
        report["spans_file"] = _write(f"spans-{tag}.json", tracer.spans)
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    report["metrics"] = metrics
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": mismatched == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
