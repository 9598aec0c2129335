"""Task-level runtime substrate.

Every tiling scheme in :mod:`repro` — the tessellation and all the
baselines — compiles to the same representation: a
:class:`~repro.runtime.schedule.RegionSchedule`, an ordered list of
tasks, each a sequence of ``(time step, hyper-rectangle)`` actions,
partitioned into *barrier groups* (tasks of one group are mutually
independent and may run concurrently).

On top of that one representation sit:

* a sequential executor (:func:`~repro.runtime.schedule._execute_schedule`,
  the ``serial`` backend) used for correctness validation of every
  scheme;
* a threaded executor (:mod:`~repro.runtime.threadpool`) demonstrating
  real shared-memory parallel execution (NumPy releases the GIL inside
  region applications);
* the task-graph analysis (:mod:`~repro.runtime.taskgraph`) feeding the
  simulated machine — work, span, concurrency profiles, footprints;
* the fault harness (:mod:`~repro.runtime.faults`) and the typed
  error vocabulary (:mod:`~repro.runtime.errors`) — deterministic
  fault injection and structured failures.  Recovery for local runs
  is the job service's segment checkpoints plus job retry
  (:mod:`repro.service`), not an in-run layer;
* the structural sanitizer (:mod:`~repro.runtime.sanitizer`) — a
  symbolic interval-arithmetic analysis proving tessellation
  (Theorem 3.5), ping-pong dependence legality (Theorem 3.6) and
  intra-group race freedom for any schedule *before* it runs, with
  seeded-bug mutators (:mod:`~repro.runtime.mutations`) as its test
  harness.
"""

from repro.runtime.schedule import (
    RegionAction,
    ScheduledTask,
    RegionSchedule,
    schedule_stats,
    verify_schedule,
)
from repro.runtime.taskgraph import TaskGraph, TaskNode, build_taskgraph
from repro.runtime.levelize import levelize
from repro.runtime.errors import (
    ChecksumMismatchError,
    ExchangeTimeoutError,
    ExecutionError,
    GhostDivergenceError,
    GuardViolation,
    InjectedFault,
    JobNotFound,
    QueueSaturated,
    RankLostError,
    SanitizerViolation,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.sanitizer import (
    SanitizerReport,
    Violation,
    sanitize_distributed_plan,
    sanitize_schedule,
)
from repro.runtime.mutations import (
    MUTATION_KINDS,
    apply_mutation,
    drop_action,
    merge_groups,
    shift_region,
)

__all__ = [
    "RegionAction",
    "ScheduledTask",
    "RegionSchedule",
    "schedule_stats",
    "verify_schedule",
    "TaskGraph",
    "TaskNode",
    "build_taskgraph",
    "levelize",
    "ChecksumMismatchError",
    "ExchangeTimeoutError",
    "ExecutionError",
    "GhostDivergenceError",
    "GuardViolation",
    "InjectedFault",
    "JobNotFound",
    "QueueSaturated",
    "RankLostError",
    "FaultPlan",
    "FaultSpec",
    "SanitizerViolation",
    "SanitizerReport",
    "Violation",
    "sanitize_schedule",
    "sanitize_distributed_plan",
    "MUTATION_KINDS",
    "apply_mutation",
    "drop_action",
    "merge_groups",
    "shift_region",
]
