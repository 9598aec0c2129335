"""Compiled execution engine: compile a schedule once, run it many times.

The tiling layer produces :class:`~repro.runtime.schedule.RegionSchedule`
objects — thousands of small ``(t, rectangle)`` actions.  The naive
executor pays Python dispatch, slice construction and fresh NumPy
temporaries for each one.  This package lowers a schedule into a
:class:`~repro.engine.plan.CompiledPlan` whose run loop has **zero
per-run geometry work**:

* :mod:`repro.engine.plan` — schedule → plan compilation: parity
  resolution, precomputed slices, sanitizer-proven same-step rectangle
  fusion, and batched gather/compute/scatter over flat index arrays;
  one stream runner executes a plan on a single grid or a stack;
* :mod:`repro.engine.kernels` — allocation-free ``np.multiply`` /
  ``np.add(out=)`` kernels over per-thread scratch arenas, bit-identical
  to the naive operators;
* :mod:`repro.engine.cache` — an LRU plan cache (with optional on-disk
  tier) so autotune probes, distributed ranks and benchmark repeats
  compile exactly once;
* :mod:`repro.engine.batch` — N independent instances stacked into one
  ``[N, ...]`` ping-pong pair (the ``batched`` backend's input).

Every unit and kernel is rank-generic: slices are ``Ellipsis``-prefixed
and gathers run along the last axis of ``[..., P]`` flat views, so one
``run`` per unit serves a ``[*padded]`` buffer and an ``[N, *padded]``
stack alike — a single-instance run is a batch with no leading axis.

See ``docs/performance.md`` for architecture and measured speedups.
"""

from repro.engine.batch import BatchGrid, plan_supports_batch, stack_grids
from repro.engine.kernels import ScratchArena, thread_arena
from repro.engine.plan import (
    CompiledPlan,
    PlanStats,
    compile_plan,
    execute_plan,
)
from repro.engine.cache import (
    CacheStats,
    PlanCache,
    PlanKey,
    default_cache,
    get_plan,
    plan_key,
    spec_signature,
)

__all__ = [
    "BatchGrid",
    "CompiledPlan",
    "PlanStats",
    "compile_plan",
    "execute_plan",
    "plan_supports_batch",
    "stack_grids",
    "ScratchArena",
    "thread_arena",
    "CacheStats",
    "PlanCache",
    "PlanKey",
    "default_cache",
    "get_plan",
    "plan_key",
    "spec_signature",
]
