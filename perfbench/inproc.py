"""The in-process workloads: ``warm-mix``, ``cold-mix`` and
``batched-exec``, each a closed loop of one client calling
:class:`repro.api.Session` directly."""

from __future__ import annotations

import itertools
import time
from math import ceil, prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from common import Problem, Sample, make_grid, seed_base, sweep_and_check
from tracing import Tracer, session_hooks

__all__ = ["WORKLOADS", "run_inprocess"]

#: four configs, warmed once in their plan caches before timing
WARM_MIX = (
    Problem("heat1d", (8000,), 32, 8),
    Problem("heat2d", (128, 128), 16, 4),
    Problem("life", (128, 128), 16, 4),
    Problem("fdtd2d", (96, 96), 16, 4),
)

#: the same sizes with heat3d for the staged system; every request
#: lowers a never-seen plan (fresh PlanCache, jittered shape)
COLD_MIX = (
    Problem("heat1d", (8000,), 32, 8),
    Problem("heat2d", (128, 128), 16, 4),
    Problem("heat3d", (32, 32, 32), 8, 4),
    Problem("life", (128, 128), 16, 4),
)

#: N instances of one plan per run_many call; 16 x 256^2 float64 x 2
#: parities = 16.8 MB, beyond the 4 MiB per-core L2
BATCHED = Problem("heat2d", (256, 256), 32, 8)
BATCH_N = 16

#: most cells a cold-mix shape may gain or lose, as a share
JITTER = 0.02

# input streams of seed_base: warm-up streams are 100 + setup repeat
_TIMED_STREAM = 1
_WARMUP_STREAM = 100


def jitter_shapes(shape: Tuple[int, ...], rng) -> List[Tuple[int, ...]]:
    """Every shape within ``JITTER`` of ``shape``'s cell count (the base
    shape itself excluded), in a seeded order."""
    base = prod(shape)
    reach = [max(3, int(n * JITTER)) for n in shape]
    out = []
    for delta in itertools.product(*(range(-r, r + 1) for r in reach)):
        cand = tuple(n + d for n, d in zip(shape, delta))
        if any(delta) and abs(prod(cand) / base - 1.0) < JITTER:
            out.append(cand)
    return [out[i] for i in rng.permutation(len(out))]


def _counts(spec, problem: Problem, batch: int, result,
            snapshot) -> Dict[str, float]:
    """Computed counts of one request: they depend only on the inputs,
    so one seed must reproduce them exactly."""
    stats = result.stats
    sched = getattr(stats, "schedule", None) or {}
    plan = result.plan
    pstats = getattr(plan, "stats", None)
    tasks = sched.get("tasks", getattr(pstats, "tasks", 0))
    groups = sched.get("groups", getattr(pstats, "groups", 0))
    index_bytes = int(getattr(pstats, "index_bytes", 0))
    fields = snapshot.interior(0).size // prod(problem.shape)
    taps = len(spec.operator.offsets)
    itemsize = np.dtype(spec.dtype).itemsize
    updates = problem.updates * batch
    return {
        "core.tasks": int(tasks),
        "core.groups": int(groups),
        "engine.units": int(getattr(pstats, "stream_units", 0)),
        "engine.actions": int(getattr(pstats, "actions", 0)),
        "engine.sliced_actions": int(getattr(pstats, "sliced_actions", 0)),
        "engine.index_bytes": index_bytes,
        # every update reads its taps and writes itself, from memory,
        # and every batched unit streams its index array once: the
        # no-reuse traffic of the lowered plan
        "engine.bytes_moved_computed":
            updates * fields * (taps + 1) * itemsize + index_bytes,
        # arXiv 1205.0606's bound for time tiles of depth b: the grid is
        # read and written once per tile pass
        "engine.traffic_bound_bytes":
            2 * snapshot.interior(0).nbytes * batch
            * ceil(problem.steps / problem.b),
        "work.cell_updates": updates,
    }


def _request(session, problem: Problem, grid_seed: int, *, batch: int = 1,
             tracer: Optional[Tracer] = None, request_id: str = "",
             check: bool = True, label: str = ""
             ) -> Tuple[Sample, Dict[str, float]]:
    """One timed Session.run (or run_many) call, checked afterwards.

    ``label`` names the mix entry the request belongs to (default: the
    problem's own label).
    """
    spec = session.spec
    grids = [make_grid(spec, problem.shape, grid_seed + i)
             for i in range(batch)]
    snapshots = [g.copy() for g in grids] if check else []
    if batch == 1:
        config = problem.run_config()

        def call():
            return [session.run(config, grid=grids[0])]
    else:
        config = problem.run_config("batched")

        def call():
            return session.run_many(config, grids=grids)

    sample = Sample(label=label or problem.label, wall=0.0,
                    updates=problem.updates * batch,
                    traced=tracer is not None, request_id=request_id)
    t0 = time.perf_counter()
    try:
        if tracer is None:
            results = call()
        else:
            with session_hooks(tracer, session):
                with tracer.span("request", request=request_id):
                    with tracer.span("api.session_run"):
                        results = call()
    except Exception as exc:  # a failed request is data, not a crash
        sample.wall = time.perf_counter() - t0
        sample.ok = False
        sample.error = f"{type(exc).__name__}: {exc}"
        return sample, {}
    sample.wall = time.perf_counter() - t0
    stats = results[0].stats
    sample.phases = dict(getattr(stats, "phases", {}) or {})
    cache = getattr(stats, "cache", None)
    sample.cache_hits = int(getattr(cache, "hits", 0))
    sample.cache_misses = int(getattr(cache, "misses", 0))
    counts: Dict[str, float] = {}
    if check:
        for snap, res in zip(snapshots, results):
            sweep, same = sweep_and_check(spec, snap, problem.steps,
                                          res.interior)
            sample.sweep += sweep
            if not same:
                sample.ok = False
                sample.error = "output differs from reference_sweep"
        counts = _counts(spec, problem, batch, results[0], snapshots[0])
    return sample, counts


def _sessions(problems: Sequence[Problem]):
    from repro import get_stencil
    from repro.api import Session
    from repro.engine.cache import PlanCache

    return {p: Session(get_stencil(p.kernel), cache=PlanCache())
            for p in problems}


def _shape_streams(seed: int) -> Dict[Problem, List[Tuple[int, ...]]]:
    rng = np.random.default_rng([int(seed), 7])
    return {p: jitter_shapes(p.shape, rng) for p in COLD_MIX}


def _mix_loop(workload: str, seed: int, seconds: float,
              tracer: Optional[Tracer], setup_repeats: int):
    """Setup, then rounds of the mix until ``seconds`` of request time.

    Each round runs every config once in a seeded order; only whole
    rounds are timed so every config weighs the same in the medians.
    With a tracer, every other round is traced.
    """
    mix = WARM_MIX if workload == "warm-mix" else COLD_MIX
    cold = workload == "cold-mix"
    setups: List[float] = []
    for r in range(setup_repeats):
        base = seed_base(seed, _WARMUP_STREAM + r)
        t0 = time.perf_counter()
        sessions = _sessions(mix)
        for i, p in enumerate(mix):
            _request(sessions[p], p, base + i, check=False)
        setups.append(time.perf_counter() - t0)

    shapes = _shape_streams(seed) if cold else {}
    rng = np.random.default_rng([int(seed), 1])
    grid_seed = seed_base(seed, _TIMED_STREAM)
    samples: List[Sample] = []
    counts: Dict[str, float] = {}
    timed = 0.0
    for rnd in itertools.count():
        if rnd > 0 and timed >= seconds:
            break
        traced = tracer is not None and rnd % 2 == 0
        for j in rng.permutation(len(mix)):
            entry = p = mix[j]
            if cold:
                stream = shapes[entry]
                shape = stream[rnd % len(stream)]
                session = _sessions([entry])[entry]
                p = Problem(entry.kernel, shape, entry.steps, entry.b)
            else:
                session = sessions[entry]
            sample, c = _request(session, p, grid_seed,
                                 tracer=tracer if traced else None,
                                 request_id=f"r{len(samples)}",
                                 label=entry.label)
            grid_seed += 1
            samples.append(sample)
            timed += sample.wall
            if rnd == 0:
                for k, v in c.items():
                    counts[k] = counts.get(k, 0) + v
    return samples, setups, counts


def _batched_loop(seed: int, seconds: float, tracer: Optional[Tracer],
                  setup_repeats: int):
    setups: List[float] = []
    for r in range(setup_repeats):
        base = seed_base(seed, _WARMUP_STREAM + r)
        t0 = time.perf_counter()
        session = _sessions([BATCHED])[BATCHED]
        _request(session, BATCHED, base, batch=BATCH_N, check=False)
        setups.append(time.perf_counter() - t0)

    grid_seed = seed_base(seed, _TIMED_STREAM)
    samples: List[Sample] = []
    counts: Dict[str, float] = {}
    timed = 0.0
    for i in itertools.count():
        if i > 0 and timed >= seconds:
            break
        traced = tracer is not None and i % 2 == 0
        sample, c = _request(session, BATCHED, grid_seed, batch=BATCH_N,
                             tracer=tracer if traced else None,
                             request_id=f"r{i}")
        grid_seed += BATCH_N
        samples.append(sample)
        timed += sample.wall
        if i == 0:
            counts = c
    return samples, setups, counts


WORKLOADS = ("warm-mix", "cold-mix", "batched-exec")


def run_inprocess(workload: str, seed: int, seconds: float,
                  tracer: Optional[Tracer], setup_repeats: int):
    """Run one in-process workload: ``(samples, setup seconds, counts)``."""
    if workload == "batched-exec":
        return _batched_loop(seed, seconds, tracer, setup_repeats)
    return _mix_loop(workload, seed, seconds, tracer, setup_repeats)
