"""Threaded execution of region schedules.

Demonstrates that the barrier-group structure really is parallel:
tasks of one group are submitted to a thread pool together and the
main thread waits (the barrier) before starting the next group.  NumPy
releases the GIL inside the vectorised region updates, so on a
multi-core machine groups genuinely overlap; on a single-core machine
this path exercises exactly the same code and ordering guarantees.

Correctness relies on the schemes' independence guarantees: tasks in
one group touch disjoint regions (tessellation, diamond, skewed), or
overlap only with *identical-value* writes (overlapped tiling), so no
synchronisation beyond the barrier is needed — the paper's
``#pragma omp parallel for``.

Failure semantics are **fail-fast**: on the first task exception the
group's still-pending futures are cancelled, the running ones are
joined, and a structured :class:`~repro.runtime.errors.ExecutionError`
naming the failing task and group is raised.  Without this, every
future ran to completion and a partially-updated grid was
indistinguishable from success.  Recovery is not this module's job:
the job service (:mod:`repro.service`) retries a failed job from its
newest sealed segment checkpoint, bit-identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.runtime.faults import FaultPlan, poison_task_output
from repro.runtime.schedule import RegionSchedule, ScheduledTask
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


def _run_task(
    spec: StencilSpec,
    grid: Grid,
    task: ScheduledTask,
    group: int = 0,
    index: int = 0,
    fault_plan: Optional[FaultPlan] = None,
) -> int:
    if fault_plan is not None:
        f = fault_plan.stall_fault(group, index)
        if f is not None:
            import time
            time.sleep(f.stall_s)
        fault_plan.raise_if_crash(group, index)
    pts = 0
    for a in task.actions:
        spec.apply_region(grid.at(a.t), grid.at(a.t + 1), a.region)
        pts += a.points
    if fault_plan is not None and not np.issubdtype(spec.dtype, np.integer):
        if fault_plan.corrupt_fault(group, index) is not None:
            poison_task_output(grid, task)
    return pts


def _execute_threaded(
    spec: StencilSpec,
    grid: Grid,
    schedule: RegionSchedule,
    num_threads: int = 4,
    fault_plan: Optional[FaultPlan] = None,
    sanitize: bool = False,
    budget=None,
) -> np.ndarray:
    """Pooled barrier-group execution (the ``threaded`` backend's engine).

    Returns the interior at time ``schedule.steps``.  Fail-fast: the
    first task exception cancels the group's pending tasks and raises
    :class:`ExecutionError` carrying the scheme/group/task context.
    ``fault_plan`` is the deterministic injection harness hook (see
    :mod:`repro.runtime.faults`).  With ``sanitize=True`` the
    structural sanitizer runs as a pre-flight and raises
    :class:`~repro.runtime.errors.SanitizerViolation` before any
    buffer is touched — the check that makes the "tasks of one group
    are independent" assumption above an enforced invariant instead
    of a convention.
    """
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    if spec.is_periodic:
        raise ValueError("region schedules assume non-periodic boundaries")
    if grid.shape != schedule.shape:
        raise ValueError(
            f"grid shape {grid.shape} != schedule shape {schedule.shape}"
        )
    if sanitize:
        from repro.runtime.sanitizer import sanitize_schedule

        sanitize_schedule(spec, schedule).raise_if_violations()
    from repro.api.driver import drive_groups

    def run_one(gi, gid, ti, task):
        return _run_task(spec, grid, task, gid, ti, fault_plan)

    drive_groups(schedule, run_one, num_threads=num_threads, budget=budget)
    return grid.interior(schedule.steps)
