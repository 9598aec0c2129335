"""Region schedules — the common currency of all tiling schemes.

A :class:`RegionSchedule` is a flattened tiling: an ordered list of
:class:`ScheduledTask`, each performing a sequence of
``(global time step t, hyper-rectangle)`` updates (advance every point
of the rectangle from time ``t`` to ``t+1``), annotated with a
*barrier group*.  Semantics:

* groups execute in ascending order with a barrier between groups;
* tasks inside one group are independent and may execute in any order
  or concurrently;
* actions inside one task execute in their listed order.

A schedule is *valid* for ``T`` steps if executing it (in any
group/task-order-respecting interleaving) advances every interior
point from time 0 to time ``T`` while respecting the stencil's
dependences with the two-buffer (ping-pong) discipline.  Validity is
established empirically against the naive reference by
:func:`verify_schedule`; schemes with redundant computation (overlapped
tiling) remain valid because duplicate updates write identical values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.stencils.grid import Grid
from repro.stencils.reference import bit_identical, reference_sweep
from repro.stencils.spec import (
    Region,
    StencilSpec,
    region_is_empty,
    region_size,
)


@dataclass(frozen=True, slots=True)
class RegionAction:
    """One vectorised update: rectangle ``region`` at global step ``t``."""

    t: int
    region: Region

    @property
    def points(self) -> int:
        return region_size(self.region)


@dataclass(slots=True)
class ScheduledTask:
    """A unit of parallel work: ordered actions plus a barrier group."""

    group: int
    actions: List[RegionAction]
    label: str = ""

    @property
    def points(self) -> int:
        """Total point-updates (includes redundant recomputation)."""
        return sum(a.points for a in self.actions)

    @property
    def time_range(self) -> Tuple[int, int]:
        ts = [a.t for a in self.actions]
        return (min(ts), max(ts) + 1) if ts else (0, 0)

    def bounding_box(self) -> Optional[Region]:
        """Union bounding box of all action rectangles (None if empty)."""
        boxes = [a.region for a in self.actions if not region_is_empty(a.region)]
        if not boxes:
            return None
        d = len(boxes[0])
        return tuple(
            (min(b[j][0] for b in boxes), max(b[j][1] for b in boxes))
            for j in range(d)
        )

    def footprint_points(self) -> int:
        """Distinct grid points in the task's bounding box.

        Used by the machine model as the task's resident working set;
        an upper bound on distinct points touched, tight for the
        trapezoid/diamond/rectangle tasks all schemes here produce.
        """
        box = self.bounding_box()
        return region_size(box) if box is not None else 0


@dataclass
class RegionSchedule:
    """A complete tiling of ``steps`` time steps of one grid."""

    scheme: str
    shape: Tuple[int, ...]
    steps: int
    tasks: List[ScheduledTask] = field(default_factory=list)
    #: True for ghost-zone schemes whose tasks need private storage
    #: (see repro.baselines.overlapped); execute_schedule refuses them.
    private_tasks: bool = False
    #: Explicit declaration that the scheme recomputes points
    #: (overlapped tiling): the sanitizer only tolerates a point being
    #: written twice per step when this is set — duplicate updates of
    #: undeclared schemes are flagged even though they would pass the
    #: empirical check by writing identical values.
    redundant: bool = False
    #: Relative cost of one inter-group synchronisation (1.0 = a full
    #: OpenMP-style barrier; MWD-style intra-group wavefront syncs are
    #: cheaper).  Consumed by the machine model.
    group_sync_cost: float = 1.0
    #: Relative per-task dispatch cost (1.0 = OpenMP static chunk).
    #: Runtimes with dynamic blocking / recursive descent / work
    #: stealing (Pochoir's Cilk) pay more per task.  Consumed by the
    #: machine model.
    task_overhead_factor: float = 1.0

    def add(self, group: int, actions: Iterable[RegionAction],
            label: str = "") -> ScheduledTask:
        task = ScheduledTask(group=group, actions=list(actions), label=label)
        self.tasks.append(task)
        return task

    @property
    def num_groups(self) -> int:
        return 1 + max((t.group for t in self.tasks), default=-1)

    def groups(self) -> Dict[int, List[ScheduledTask]]:
        out: Dict[int, List[ScheduledTask]] = {}
        for t in self.tasks:
            out.setdefault(t.group, []).append(t)
        return out

    def total_points(self) -> int:
        return sum(t.points for t in self.tasks)

    def validate_structure(self) -> None:
        """Cheap structural checks (groups ordered, actions in range)."""
        for task in self.tasks:
            if task.group < 0:
                raise ValueError(f"negative barrier group in {task.label!r}")
            for a in task.actions:
                if not 0 <= a.t < self.steps:
                    raise ValueError(
                        f"action at t={a.t} outside [0, {self.steps}) in "
                        f"{task.label!r}"
                    )
                if len(a.region) != len(self.shape):
                    raise ValueError(
                        f"region rank mismatch in {task.label!r}"
                    )


def _execute_schedule(spec: StencilSpec, grid: Grid,
                      schedule: RegionSchedule, budget=None) -> np.ndarray:
    """Sequential schedule walk (the ``serial`` backend's engine)."""
    from repro.api.driver import drive_groups, run_actions

    if spec.is_periodic:
        raise ValueError("region schedules assume non-periodic boundaries")
    if schedule.private_tasks:
        raise ValueError(
            f"schedule {schedule.scheme!r} needs private task storage; "
            f"use its dedicated executor (execute_overlapped)"
        )
    if grid.shape != schedule.shape:
        raise ValueError(
            f"grid shape {grid.shape} != schedule shape {schedule.shape}"
        )
    drive_groups(
        schedule,
        lambda gi, gid, ti, task: run_actions(spec, grid, task.actions),
        budget=budget,
    )
    return grid.interior(schedule.steps)


def execute_schedule(spec: StencilSpec, grid: Grid,
                     schedule: RegionSchedule) -> np.ndarray:
    """Run a schedule sequentially (groups in order, tasks in order).

    Returns the interior at time ``schedule.steps``.

    .. deprecated:: use ``repro.api.run`` / ``Session.execute`` with
       ``backend="serial"`` instead.
    """
    from repro.api import RunConfig, Session, warn_legacy

    warn_legacy("execute_schedule", "repro.api.run(backend='serial')")
    result = Session(spec).execute(
        grid, schedule, config=RunConfig(backend="serial", engine="naive"))
    return result.interior


def verify_schedule(spec: StencilSpec, schedule: RegionSchedule,
                    seed: int = 0, sanitize: bool = False) -> bool:
    """Check a schedule bit for bit against the naive reference on a
    random grid.

    With ``sanitize=True`` the structural sanitizer
    (:func:`repro.runtime.sanitizer.sanitize_schedule`) runs first and
    raises :class:`~repro.runtime.errors.SanitizerViolation` on any
    finding — catching races and dependence bugs the numeric diff is
    blind to (e.g. double writes of identical values).
    """
    if sanitize:
        from repro.runtime.sanitizer import sanitize_schedule

        sanitize_schedule(spec, schedule).raise_if_violations()
    g_ref = Grid(spec, schedule.shape, init="random", seed=seed)
    g_sch = g_ref.copy()
    ref = reference_sweep(spec, g_ref, schedule.steps)
    if schedule.private_tasks:
        # ghost-zone schemes bring their own executor
        from repro.baselines.overlapped import execute_overlapped

        out = execute_overlapped(spec, g_sch, schedule)
    else:
        out = _execute_schedule(spec, g_sch, schedule)
    return bit_identical(ref, out)


def schedule_stats(schedule: RegionSchedule) -> Dict[str, float]:
    """Summary statistics used by the bench harness and the tests."""
    groups = schedule.groups()
    sizes = [t.points for t in schedule.tasks]
    widths = [len(ts) for ts in groups.values()]
    interior = 1
    for n in schedule.shape:
        interior *= n
    required = interior * schedule.steps
    total = sum(sizes)  # schedule.total_points() without a second walk
    return {
        "scheme": schedule.scheme,
        "tasks": len(schedule.tasks),
        "groups": len(groups),
        "total_point_updates": total,
        "required_point_updates": required,
        "redundancy": (total / required - 1.0) if required else 0.0,
        "max_group_width": max(widths, default=0),
        "mean_group_width": float(np.mean(widths)) if widths else 0.0,
        "mean_task_points": float(np.mean(sizes)) if sizes else 0.0,
        "min_task_points": min(sizes, default=0),
        "max_task_points": max(sizes, default=0),
    }
