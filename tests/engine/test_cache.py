"""Plan cache: LRU behaviour, disk tier, autotune and distributed reuse.

The acceptance-criteria assertions live here: the second autotune probe
of identical parameters is a plan-cache *hit* (observable on
``cache.stats``), and every distributed rank compiles its owned-block
plan exactly once per run (``CommStats.plan_compiles == ranks``).
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice
from repro.baselines import naive_schedule
from repro.core.schedules import tess_schedule
from repro.engine import (
    PlanCache,
    compile_plan,
    plan_key,
    spec_signature,
)
from repro.engine.plan import _execute_plan

pytestmark = pytest.mark.engine


def _sched(spec, shape=(128,), b=4, steps=8, merged=False):
    lat = make_lattice(spec, shape, b)
    return tess_schedule(spec, shape, lat, steps, merged=merged)


# -- keys ------------------------------------------------------------

def test_spec_signature_distinguishes_operators():
    heat = get_stencil("heat1d")
    five = get_stencil("1d5p")
    life = get_stencil("life")
    sigs = {spec_signature(heat), spec_signature(five),
            spec_signature(life)}
    assert len(sigs) == 3
    # same kernel fetched twice -> same signature
    assert spec_signature(heat) == spec_signature(get_stencil("heat1d"))


def test_plan_key_separates_params_and_options():
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    k0 = plan_key(spec, sched)
    assert k0 == plan_key(spec, sched)
    assert k0 != plan_key(spec, sched, params=(4,))
    assert k0 != plan_key(spec, sched, fuse=False)
    assert k0 != plan_key(spec, sched, batch_threshold=0)


# -- in-memory LRU ---------------------------------------------------

def test_hit_miss_counters_and_identity():
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    cache = PlanCache(capacity=4)
    p1 = cache.get(spec, sched)
    assert (cache.stats.hits, cache.stats.misses) == (0, 1)
    p2 = cache.get(spec, sched)
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert p1 is p2
    # a structurally identical schedule rebuilt from the same params
    # also hits: the key is parametric, not object identity
    cache.get(spec, _sched(spec))
    assert cache.stats.hits == 2
    assert cache.stats.compile_seconds > 0


def test_lru_eviction_order():
    spec = get_stencil("heat1d")
    cache = PlanCache(capacity=2)
    s_a = _sched(spec, steps=4)
    s_b = _sched(spec, steps=6)
    s_c = _sched(spec, steps=8)
    cache.get(spec, s_a)
    cache.get(spec, s_b)
    cache.get(spec, s_a)          # refresh A; B is now least-recent
    cache.get(spec, s_c)          # evicts B
    assert cache.stats.evictions == 1
    assert len(cache) == 2
    hits = cache.stats.hits
    cache.get(spec, s_a)
    cache.get(spec, s_c)
    assert cache.stats.hits == hits + 2
    cache.get(spec, s_b)          # really gone -> recompiled
    assert cache.stats.misses == 4


def test_cached_plan_still_correct():
    spec = get_stencil("heat2d")
    sched = _sched(spec, shape=(40, 40), b=4, steps=8)
    cache = PlanCache()
    plan = cache.get(spec, sched)
    plan2 = cache.get(spec, sched)
    g = Grid(spec, (40, 40), init="random", seed=3)
    g2 = g.copy()
    from repro.runtime.schedule import _execute_schedule
    ref = _execute_schedule(spec, g, sched)
    assert np.array_equal(ref, _execute_plan(plan2, g2))
    assert plan is plan2


# -- disk tier -------------------------------------------------------

def test_disk_tier_round_trip(tmp_path):
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(capacity=4, disk_dir=str(tmp_path))
    c1.get(spec, sched)
    assert c1.stats.disk_stores == 1
    assert list(tmp_path.glob("plan-*.pkl"))

    # a fresh cache (new process, conceptually) loads from disk
    c2 = PlanCache(capacity=4, disk_dir=str(tmp_path))
    plan = c2.get(spec, sched)
    assert c2.stats.disk_hits == 1
    assert c2.stats.misses == 0
    g = Grid(spec, (128,), init="random", seed=5)
    g2 = g.copy()
    from repro.runtime.schedule import _execute_schedule
    assert np.array_equal(_execute_schedule(spec, g, sched),
                          _execute_plan(plan, g2))


def test_disk_corruption_is_a_miss(tmp_path):
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched)
    (path,) = tmp_path.glob("plan-*.pkl")
    path.write_bytes(b"not a pickle")
    c2 = PlanCache(disk_dir=str(tmp_path))
    c2.get(spec, sched)
    assert c2.stats.disk_hits == 0
    assert c2.stats.misses == 1
    assert c2.stats.disk_corrupt == 1
    # the corrupted bytes were quarantined, then the recompiled plan
    # re-stored under the original name ...
    assert path.with_suffix(".pkl.corrupt").exists()
    assert c2.stats.disk_stores == 1
    # ... so the next lookup is a healthy disk hit, not a re-corruption
    c3 = PlanCache(disk_dir=str(tmp_path))
    c3.get(spec, sched)
    assert c3.stats.disk_corrupt == 0
    assert c3.stats.disk_hits == 1


def test_disk_truncated_pickle_is_quarantined(tmp_path):
    """A crashed writer leaves a prefix of a valid pickle: same verdict."""
    spec = get_stencil("heat1d")
    sched = _sched(spec)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched)
    (path,) = tmp_path.glob("plan-*.pkl")
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    c2 = PlanCache(disk_dir=str(tmp_path))
    plan = c2.get(spec, sched)
    assert plan is not None
    assert c2.stats.disk_corrupt == 1
    assert c2.stats.misses == 1
    assert path.with_suffix(".pkl.corrupt").exists()
    # the recompiled plan was re-stored under the original name
    assert c2.stats.disk_stores == 1


def test_disk_wrong_key_is_plain_miss_not_corruption(tmp_path):
    """A healthy pickle of the wrong entry (hash collision, foreign
    file) is a miss but NOT corruption — it is not quarantined."""
    import pickle

    spec = get_stencil("heat1d")
    sched_a = _sched(spec, steps=4)
    sched_b = _sched(spec, steps=8)
    c1 = PlanCache(disk_dir=str(tmp_path))
    c1.get(spec, sched_a)
    plan_b = compile_plan(spec, sched_b)
    (path,) = tmp_path.glob("plan-*.pkl")
    with open(path, "wb") as fh:
        pickle.dump((plan_key(spec, sched_b), plan_b), fh)
    c2 = PlanCache(disk_dir=str(tmp_path))
    c2.get(spec, sched_a)
    assert c2.stats.disk_corrupt == 0
    assert c2.stats.disk_hits == 0
    assert c2.stats.misses == 1
    assert path.exists()  # healthy file left alone (then overwritten)


def test_cache_stats_dict_round_trips_disk_corrupt():
    """cache_delta reconstructs CacheStats from as_dict keys; the new
    counter must survive the round trip."""
    from repro.api import cache_delta
    from repro.engine.cache import CacheStats

    before = CacheStats().as_dict()
    after = CacheStats(disk_corrupt=2, misses=3).as_dict()
    delta = cache_delta(before, after)
    assert delta.disk_corrupt == 2
    assert delta.misses == 3
    st = CacheStats(disk_corrupt=1)
    st.reset()
    assert st.disk_corrupt == 0


# -- plan-first Session runs: lookup before build -------------------

def _session_run(session, **kw):
    from repro.api import RunConfig

    config = RunConfig(**{**dict(shape=(64,), steps=8, b=4, scheme="tess",
                                 backend="compiled"), **kw})
    return session.run(config, grid=Grid(session.spec, (64,), seed=1))


def test_warm_run_hits_without_building():
    from repro.api import Session

    session = Session(get_stencil("heat1d"), cache=PlanCache())
    cold = _session_run(session)
    assert (cold.stats.cache.misses, cold.stats.cache.hits) == (1, 0)
    assert (cold.stats.plan_compiles, cold.stats.cache_hits) == (1, 0)
    assert "build" in cold.stats.phases
    warm = _session_run(session)
    assert warm.stats.cache_hits == 1
    assert warm.stats.plan_compiles == 0
    assert (warm.stats.cache.misses, warm.stats.cache.hits) == (0, 1)
    assert "build" not in warm.stats.phases
    assert warm.schedule is warm.plan.schedule
    assert warm.lattice is not None  # rebuilt for the tess family
    assert warm.interior.tobytes() == cold.interior.tobytes()


def test_one_entry_per_config():
    """The key derived from the config and the key the compile stores
    are one key space: no alias entries."""
    from repro.api import Session

    session = Session(get_stencil("heat1d"), cache=PlanCache(capacity=64))
    configs = [dict(scheme=scheme, b=b)
               for scheme in ("tess", "tess-unmerged", "naive", "pochoir")
               for b in (2, 4)]
    results = [_session_run(session, **kw) for kw in configs]
    assert len(session.cache) == len(configs)
    for kw in configs:
        _session_run(session, **kw)
    assert len(session.cache) == len(configs)
    assert session.cache.stats.hits == len(configs)
    assert session.cache.stats.misses == len(configs)
    # a caller holding the built schedule finds the same entries
    for res in results:
        assert session.lower(res.schedule, res.config.tile_params()) \
            is res.plan
    assert len(session.cache) == len(configs)
    assert session.cache.stats.misses == len(configs)


def test_hit_sanitizes_the_plan_schedule():
    from repro.api import Session

    session = Session(get_stencil("heat1d"), cache=PlanCache())
    _session_run(session)
    warm = _session_run(session, sanitize=True, verify=True)
    assert warm.stats.cache_hits == 1
    assert warm.sanitizer is not None and warm.sanitizer.ok
    assert warm.stats.verified is True


def test_schedule_stats_are_a_copy_per_run():
    from repro.api import Session
    from repro.runtime.schedule import schedule_stats

    session = Session(get_stencil("heat1d"), cache=PlanCache())
    first = _session_run(session)
    expected = schedule_stats(first.schedule)
    first.stats.schedule["tasks"] = -1
    hit = _session_run(session)
    assert hit.stats.schedule == expected
    hit.stats.schedule.clear()
    assert _session_run(session).stats.schedule == expected


def test_stats_describe_a_caller_schedule_not_the_plan():
    from repro.api import Session
    from repro.runtime.schedule import schedule_stats

    spec = get_stencil("heat1d")
    session = Session(spec, cache=PlanCache())
    plan = _session_run(session).plan
    other = naive_schedule(spec, (64,), 8, chunks=2)
    result = session.execute(Grid(spec, (64,), seed=1), other, plan=plan,
                             backend="compiled")
    assert result.stats.schedule == schedule_stats(other)
    assert plan.schedule_summary == schedule_stats(plan.schedule)


def test_concurrent_cold_runs_compile_once():
    """Threads that all miss the lookup and all build still leave one
    plan, one compile and one counted lookup each."""
    import sys
    import threading

    from repro.api import Session

    session = Session(get_stencil("heat1d"), cache=PlanCache())
    threads_n = 6
    # every thread reaches the build (so every lookup has missed)
    # before any of them compiles
    built = threading.Barrier(threads_n)
    build = session.builder.build

    def gated_build(*args, **kwargs):
        out = build(*args, **kwargs)
        built.wait(timeout=60)
        return out

    session.builder.build = gated_build
    results, errors = [], []

    def worker():
        try:
            results.append(_session_run(session))
        except Exception as exc:  # reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker)
                   for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert len(session.cache) == 1
    stats = session.cache.stats
    assert (stats.misses, stats.hits) == (1, threads_n - 1)
    assert len({r.interior.tobytes() for r in results}) == 1


def test_disk_tier_skips_build_in_a_fresh_cache(tmp_path):
    from repro.api import Session

    spec = get_stencil("heat1d")
    first = _session_run(Session(spec, cache=PlanCache(
        disk_dir=str(tmp_path))))
    assert first.stats.plan_compiles == 1
    fresh = PlanCache(disk_dir=str(tmp_path))
    again = _session_run(Session(spec, cache=fresh))
    assert fresh.stats.disk_hits == 1
    assert fresh.stats.misses == 0
    assert again.stats.plan_compiles == 0
    assert "build" not in again.stats.phases
    assert again.interior.tobytes() == first.interior.tobytes()
    assert again.stats.schedule == first.stats.schedule


# -- autotune: second probe of identical params hits -----------------

def test_autotune_second_probe_hits_cache():
    from repro.autotune import grid_search

    spec = get_stencil("heat1d")
    cache = PlanCache(capacity=64)
    kw = dict(machine=None, cores=1, objective="wallclock", cache=cache,
              repeat=1, depths=[2, 4], width_factors=(1, 2))
    first = grid_search(spec, (512,), 16, **kw)
    assert first and all(r.measured for r in first)
    probes = cache.stats.misses
    assert probes == len(first)
    assert cache.stats.hits == 0

    # identical sweep: every probe is now a hit, nothing recompiles
    second = grid_search(spec, (512,), 16, **kw)
    assert len(second) == len(first)
    assert cache.stats.misses == probes
    assert cache.stats.hits == probes


def test_tune_tessellation_wallclock_uses_cache():
    from repro.autotune import tune_tessellation

    spec = get_stencil("heat1d")
    cache = PlanCache(capacity=64)
    best = tune_tessellation(spec, (512,), 16, machine=None, cores=1,
                             objective="wallclock", cache=cache, repeat=1)
    assert best.measured and best.time_s > 0
    # coordinate descent revisits the coarse winner -> at least one hit
    assert cache.stats.hits >= 1


# -- distributed: each rank compiles exactly once per run ------------

@pytest.mark.dist
def test_distributed_ranks_compile_once():
    from repro.distributed.elastic import _execute_elastic

    spec = get_stencil("heat1d")
    shape, b, steps, ranks = (400,), 4, 16, 3
    lat = make_lattice(spec, shape, b)
    grid = Grid(spec, shape, seed=0)
    out, stats = _execute_elastic(spec, grid.copy(), lat, steps, ranks)
    from repro import reference_sweep
    assert np.array_equal(reference_sweep(spec, grid.copy(), steps), out)
    # one compile per rank process, never one per phase
    assert stats.plan_compiles == ranks
    assert (steps + b - 1) // b > 1  # multiple phases actually ran
