"""Bit-identical equivalence of the compiled engine vs every executor.

The engine's contract is *bit identity*, not approximate agreement:
``_execute_plan(compile_plan(spec, sched), grid)`` must produce exactly
the arrays ``_execute_schedule`` (or ``execute_overlapped`` for
ghost-zone schedules, or ``_run_blocked``/``run_pointwise`` for the
lattice executors) produces — the compiled kernels only change array
traversal and buffer reuse, never per-point float operation order.
"""

import numpy as np
import pytest

from repro import Grid, get_stencil
from repro.baselines import (
    diamond_schedule,
    mwd_schedule,
    naive_schedule,
    overlapped_schedule,
    skewed_schedule,
    spatial_schedule,
)
from repro.baselines.overlapped import execute_overlapped
from repro.core import make_lattice
from repro.core.executor import _run_blocked, _run_merged
from repro.core.pointwise import run_pointwise
from repro.core.schedules import tess_schedule
from repro.engine import compile_plan
from repro.engine.plan import _execute_plan
from repro.runtime.schedule import _execute_schedule

pytestmark = pytest.mark.engine


def _pair(spec, shape, seed=11):
    g = Grid(spec, shape, init="random", seed=seed)
    return g, g.copy()


def _assert_identical(spec, sched, seed=11):
    g_ref, g_cmp = _pair(spec, sched.shape, seed)
    if sched.private_tasks:
        ref = execute_overlapped(spec, g_ref, sched)
    else:
        ref = _execute_schedule(spec, g_ref, sched)
    plan = compile_plan(spec, sched)
    out = _execute_plan(plan, g_cmp)
    assert np.array_equal(ref, out)
    # the full buffer pair, not just the returned interior
    for b_ref, b_cmp in zip(g_ref.buffers, g_cmp.buffers):
        assert np.array_equal(b_ref, b_cmp)
    return plan


# -- tessellation ----------------------------------------------------

@pytest.mark.parametrize("kernel,shape,b,steps", [
    ("heat1d", (301,), 4, 16),
    ("heat1d", (301,), 4, 14),      # truncated last phase
    ("1d5p", (257,), 3, 9),
    ("heat2d", (48, 48), 4, 12),
    ("heat2d", (48, 40), 4, 10),    # truncated, anisotropic
    ("life", (40, 40), 4, 8),
    ("heat3d", (14, 14, 14), 2, 4),
])
def test_tess_unmerged(kernel, shape, b, steps):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps, merged=False)
    _assert_identical(spec, sched)


@pytest.mark.parametrize("kernel,shape,b,steps", [
    ("heat1d", (301,), 4, 16),
    ("heat2d", (48, 48), 4, 11),    # truncated last phase
    ("life", (40, 40), 4, 8),
])
def test_tess_merged(kernel, shape, b, steps):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps, merged=True)
    _assert_identical(spec, sched)


def test_steps_zero():
    spec = get_stencil("heat1d")
    sched = naive_schedule(spec, (64,), 0)
    plan = _assert_identical(spec, sched)
    assert plan.stats.actions == 0
    assert plan.stats.stream_units == 0


# -- baselines -------------------------------------------------------

def test_naive_and_spatial():
    spec = get_stencil("heat2d")
    _assert_identical(spec, naive_schedule(spec, (40, 40), 7, chunks=3))
    plan = _assert_identical(
        spec, spatial_schedule(spec, (40, 40), 6, (13, 13)))
    # adjacent space tiles of one sweep fuse back into full rows/grids
    assert plan.stats.fused_actions > 0


def test_diamond_skewed_mwd():
    spec1 = get_stencil("heat1d")
    _assert_identical(spec1, diamond_schedule(spec1, (301,), 4, 13))
    _assert_identical(spec1, mwd_schedule(spec1, (301,), 4, 10))
    spec2 = get_stencil("heat2d")
    _assert_identical(spec2, skewed_schedule(spec2, (40, 40), 9, 12))


def test_overlapped_private_tasks():
    spec = get_stencil("heat2d")
    sched = overlapped_schedule(spec, (40, 40), 10, (16, 16), 5)
    plan = _assert_identical(spec, sched)
    assert plan.private
    spec_l = get_stencil("life")
    sched_l = overlapped_schedule(spec_l, (32, 32), 8, (12, 12), 4)
    _assert_identical(spec_l, sched_l)


# -- lattice executors -----------------------------------------------

def test_matches_run_blocked_and_pointwise():
    spec = get_stencil("heat2d")
    shape, b, steps = (40, 40), 4, 10
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps, merged=False)
    plan = compile_plan(spec, sched)

    g_blocked, g_point = _pair(spec, shape)
    g_plan = g_blocked.copy()
    ref_blocked = _run_blocked(spec, g_blocked, lat, steps)
    ref_point = run_pointwise(spec, g_point, lat, steps)
    out = _execute_plan(plan, g_plan)
    assert np.array_equal(ref_blocked, out)
    assert np.array_equal(ref_point, out)


def test_matches_run_merged():
    spec = get_stencil("heat1d")
    shape, b, steps = (301,), 4, 12
    lat = make_lattice(spec, shape, b)
    sched = tess_schedule(spec, shape, lat, steps, merged=True)
    g_merged, g_plan = _pair(spec, shape)
    ref = _run_merged(spec, g_merged, lat, steps)
    out = _execute_plan(compile_plan(spec, sched), g_plan)
    assert np.array_equal(ref, out)


# -- engine options and guard rails ----------------------------------

def test_fuse_false_slices_only():
    spec = get_stencil("heat2d")
    lat = make_lattice(spec, (40, 40), 4)
    sched = tess_schedule(spec, (40, 40), lat, 8)
    plan = compile_plan(spec, sched, fuse=False)
    assert plan.stats.batches == 0
    assert plan.stats.fused_actions == 0
    _, g = _pair(spec, (40, 40))
    g_ref, _ = _pair(spec, (40, 40))
    assert np.array_equal(_execute_schedule(spec, g_ref, sched),
                          _execute_plan(plan, g))


def test_batch_threshold_zero_slices_only():
    spec = get_stencil("heat1d")
    sched = diamond_schedule(spec, (301,), 4, 8)
    plan = compile_plan(spec, sched, batch_threshold=0)
    assert plan.stats.batches == 0
    assert plan.stats.sliced_actions > 0
    _, g = _pair(spec, (301,))
    g_ref, _ = _pair(spec, (301,))
    assert np.array_equal(_execute_schedule(spec, g_ref, sched),
                          _execute_plan(plan, g))


def test_shape_mismatch_rejected():
    spec = get_stencil("heat1d")
    sched = naive_schedule(spec, (64,), 4)
    plan = compile_plan(spec, sched)
    with pytest.raises(ValueError, match="shape"):
        _execute_plan(plan, Grid(spec, (65,), init="random", seed=0))


def test_periodic_rejected():
    spec = get_stencil("heat1d", boundary="periodic")
    sched = naive_schedule(get_stencil("heat1d"), (64,), 4)
    with pytest.raises(ValueError, match="periodic"):
        compile_plan(spec, sched)


def test_threaded_with_plan():
    from repro.runtime.threadpool import _execute_threaded

    spec = get_stencil("heat2d")
    lat = make_lattice(spec, (40, 40), 4)
    sched = tess_schedule(spec, (40, 40), lat, 9)
    plan = compile_plan(spec, sched)
    g_ref, g_thr = _pair(spec, (40, 40))
    ref = _execute_schedule(spec, g_ref, sched)
    assert np.array_equal(
        ref, _execute_threaded(spec, g_thr, sched, num_threads=3, plan=plan))
