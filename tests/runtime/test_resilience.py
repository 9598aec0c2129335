"""The fault harness and the threaded backend's fail-fast contract.

:class:`FaultPlan` is the deterministic injection harness every
fault-tolerance test builds on; the threaded backend is the local
executor that fires its task faults and dies loudly on the first one.
Recovery from such a failure is the job service's (segment checkpoint
plus job retry), pinned in ``tests/service/test_supervisor.py``.
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice
from repro.core.schedules import tess_schedule
from repro.runtime import ExecutionError, FaultPlan, FaultSpec, InjectedFault
from repro.runtime.schedule import _execute_schedule
from repro.runtime.threadpool import _execute_threaded

pytestmark = pytest.mark.faults

SPEC = get_stencil("heat2d")
SHAPE = (40, 40)
STEPS = 12
B = 4


@pytest.fixture(scope="module")
def sched():
    lat = make_lattice(SPEC, SHAPE, B)
    return tess_schedule(SPEC, SHAPE, lat, STEPS, merged=True)


@pytest.fixture(scope="module")
def reference(sched):
    return _execute_schedule(SPEC, Grid(SPEC, SHAPE, seed=0), sched).copy()


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse(["crash@2", "corrupt@0/3", "drop@1x99"])
        assert [f.kind for f in plan.faults] == ["crash", "corrupt", "drop"]
        assert plan.faults[1].task == 3
        assert plan.faults[2].max_hits == 99

    @pytest.mark.parametrize("bad", ["boom@1", "crash", "crash@-1",
                                     "crash@1/2/3", "drop@"])
    def test_parse_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse([bad])

    def test_random_is_deterministic(self):
        a = FaultPlan.random(20, rate=0.5, seed=7, max_task=3)
        b = FaultPlan.random(20, rate=0.5, seed=7, max_task=3)
        assert [f.describe() for f in a.faults] == \
               [f.describe() for f in b.faults]
        c = FaultPlan.random(20, rate=0.5, seed=8, max_task=3)
        assert [f.describe() for f in a.faults] != \
               [f.describe() for f in c.faults]

    def test_hits_burn_out_and_reset(self):
        plan = FaultPlan([FaultSpec("crash", group=0, task=0)])
        assert plan.crash_fault(0, 0) is not None
        assert plan.crash_fault(0, 0) is None  # transient: burned out
        plan.reset()
        assert plan.crash_fault(0, 0) is not None

    def test_wildcard_task_matches_any(self):
        plan = FaultPlan([FaultSpec("crash", group=1, task=None)])
        assert plan.crash_fault(1, 5) is not None

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("explode", group=0)


class TestThreadedFailFast:
    """_execute_threaded cancels pending tasks, raises structured errors."""

    def test_crash_raises_execution_error(self, sched):
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError) as ei:
            _execute_threaded(SPEC, g, sched, num_threads=4,
                             fault_plan=plan)
        assert ei.value.group == 1
        assert ei.value.scheme == sched.scheme
        assert isinstance(ei.value.__cause__, InjectedFault)

    def test_error_reports_cancelled_tasks(self, sched):
        plan = FaultPlan([FaultSpec("crash", group=1, task=0)])
        g = Grid(SPEC, SHAPE, seed=0)
        with pytest.raises(ExecutionError, match="cancelled"):
            _execute_threaded(SPEC, g, sched, num_threads=2,
                             fault_plan=plan)

    def test_clean_run_unchanged(self, sched, reference):
        g = Grid(SPEC, SHAPE, seed=0)
        out = _execute_threaded(SPEC, g, sched, num_threads=4)
        assert np.array_equal(reference, out)
