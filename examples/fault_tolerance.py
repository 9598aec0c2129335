"""Fault tolerance: injected failures, detected loudly, recovered exactly.

The barrier groups that make tessellated schedules parallel are also
consistency points: at every barrier the ping-pong pair is a complete
state.  The job service builds its one local recovery path on that:
every job runs in segments, each sealed as a checkpoint, and a job
that fails mid-run is retried from its newest checkpoint —
bit-identical to an unbroken run.

The distributed simulator recovers nothing in-run; its divergence
detector turns a lost ghost-band exchange into a loud
``GhostDivergenceError`` (CLI exit 4), which the service retries.

Run: ``PYTHONPATH=src python examples/fault_tolerance.py``
CLI equivalent of the detector half::

    python -m repro dist heat1d --shape 400 --steps 16 -b 4 --ranks 4 \
        --check-divergence --inject drop@2/1
"""

import tempfile

import numpy as np

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.runtime import FaultPlan, FaultSpec, GhostDivergenceError
from repro.service import JobStore, Supervisor, SupervisorConfig


class FaultySession(Session):
    """Injects one worker crash into the third segment of a job."""

    calls = 0

    def run(self, config=None, **overrides):
        self.calls += 1
        if self.calls == 3:
            overrides["fault_plan"] = FaultPlan(
                [FaultSpec("crash", group=1, task=0)])
        return super().run(config, **overrides)


def main() -> None:
    # -- service: a job dies mid-run and resumes from its checkpoint --
    job_config = {"shape": [64, 64], "steps": 12, "scheme": "tess",
                  "b": 4, "backend": "threaded", "threads": 2}
    spec = get_stencil("heat2d")
    ref = Session(spec).run(RunConfig.from_json(job_config)).interior

    with tempfile.TemporaryDirectory() as root:
        with JobStore(root, fsync=False) as store:
            sup = Supervisor(store, SupervisorConfig(
                workers=1, isolation="thread", checkpoint_steps=3,
                retry_backoff_s=0.001))
            # the supervisor keeps one Session per kernel; seed it with
            # the faulty one before the first job leases
            sup._sessions["heat2d"] = FaultySession(spec)
            sup.start()
            try:
                job, _ = sup.submit("heat2d", job_config)
                job = sup.wait(job.job_id, timeout=120)
            finally:
                sup.stop()
            interior, _ = store.load_result(job.job_id)
    exact = np.array_equal(ref, interior)
    print(f"job {job.state} after {job.attempts} attempt(s), resumed "
          f"from the step-{job.resumed_from_step} checkpoint")
    print(f"  resumed job bit-identical to an unbroken run: {exact}")
    assert job.state == "done" and job.resumed_from_step == 6 and exact

    # -- distributed: a dropped ghost-band exchange is detected ------
    dsession = Session(get_stencil("heat1d"))
    dist = RunConfig(shape=(400,), steps=16, scheme="tess", b=4,
                     backend="distributed", ranks=4,
                     check_divergence=True)
    clean = dsession.run(dist, verify=True)
    print(f"distributed: fault-free run verified: {clean.stats.verified}")
    try:
        dsession.run(dist, fault_plan=FaultPlan(
            [FaultSpec("drop", group=2, task=1)]))
    except GhostDivergenceError as e:
        print(f"distributed: dropped exchange -> detected: {e}")
    else:
        raise AssertionError("the detector missed a dropped exchange")


if __name__ == "__main__":
    main()
