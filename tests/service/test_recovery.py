"""The headline robustness guarantee, end to end:

SIGKILL a supervisor process mid-job, restart over the same store
directory, and the job finishes — resumed from its last sealed
checkpoint, recorded as such in the journal and the run stats, and
**bit-identical** to a run that was never interrupted.

The child process runs with the default fsync'd journal discipline
(this is the one test family that must exercise the real thing).
"""

import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import get_stencil
from repro.api import RunConfig, Session
from repro.service import DONE, JobStore, Supervisor, SupervisorConfig
from tests._proc import alive, live_children

pytestmark = pytest.mark.service

# big enough that the child cannot finish before the parent's kill
# lands (hundreds of segments), small enough to stay quick on resume
KERNEL = "heat2d"
CFG = {"shape": [48, 48], "steps": 400, "backend": "serial"}
CHECKPOINT_STEPS = 2

_CHILD = """\
import sys
from repro.service import JobStore, Supervisor, SupervisorConfig

root = sys.argv[1]
store = JobStore(root)  # fsync'd: the durable discipline under test
sup = Supervisor(store, SupervisorConfig(workers=1, checkpoint_steps={cs}))
sup.start()
job, _ = sup.submit({kernel!r}, {cfg!r})
print(job.job_id, flush=True)
sup.wait(job.job_id, timeout=600)
""".format(cs=CHECKPOINT_STEPS, kernel=KERNEL, cfg=CFG)


def _spawn(root):
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env["PYTHONPATH"] = os.path.abspath(src)
    return subprocess.Popen(
        [sys.executable, "-c", _CHILD, root],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True)


def test_sigkill_recovery_resumes_bit_identical(tmp_path):
    root = str(tmp_path / "store")
    proc = _spawn(root)
    try:
        job_id = proc.stdout.readline().strip()
        assert job_id.startswith("job-"), proc.stderr.read()

        # wait until at least one checkpoint is sealed — the kill then
        # provably lands mid-run, after restorable progress
        ckdir = os.path.join(root, "checkpoints", job_id)
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            if os.path.isdir(ckdir) and any(
                    n.endswith(".npy") for n in os.listdir(ckdir)):
                break
            if proc.poll() is not None:
                pytest.fail(f"child exited early: {proc.stderr.read()}")
            time.sleep(0.002)
        else:
            pytest.fail("no checkpoint appeared before the deadline")
        time.sleep(0.1)  # let a few more segments seal
        # worker children under process isolation (none in thread mode)
        orphans = live_children(proc.pid)
        proc.kill()  # SIGKILL: no atexit, no cleanup, no goodbye
        proc.wait(timeout=30)
        assert proc.returncode == -signal.SIGKILL
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.stdout.close()
        proc.stderr.close()

    # an orphaned worker child sees its pipe close and exits instead
    # of computing on against a store it can no longer report to
    deadline = time.monotonic() + 30
    while orphans and time.monotonic() < deadline:
        orphans = [k for k in orphans if alive(k)]
        time.sleep(0.05)
    assert not orphans

    # restart over the same directory: recovery re-queues, the worker
    # resumes from the newest sealed checkpoint
    with JobStore(root) as store:
        sup = Supervisor(store, SupervisorConfig(
            workers=1, checkpoint_steps=50))
        report = sup.start()
        assert report.requeued == 1
        assert report.leases_swept >= 1
        try:
            job = sup.wait(job_id, timeout=300)
        finally:
            sup.stop()
        assert job.state == DONE
        # the resumption is journaled...
        assert job.resumed_from_step > 0
        assert sup.metrics.resumes == 1
        interior, stats = store.load_result(job_id)

    # ...and recorded in the result's trace events
    resumes = [e for e in stats["events"] if e.get("kind") == "resume"]
    assert len(resumes) == 1
    assert f"step {job.resumed_from_step}" in resumes[0]["detail"]

    # bit-identical to a run that was never interrupted
    direct = Session(get_stencil(KERNEL)).run(RunConfig.from_json(CFG))
    np.testing.assert_array_equal(interior, direct.interior)
    assert interior.tobytes() == direct.interior.tobytes()


def test_reopen_after_kill_is_idempotent(tmp_path):
    """Recovery twice over the same store changes nothing the second
    time (no leases left, nothing to re-queue)."""
    root = str(tmp_path / "store")
    with JobStore(root, fsync=False) as store:
        job, _ = store.submit(KERNEL, dict(CFG, steps=4))
        store.transition(job.job_id, "admitted")
    with JobStore(root, fsync=False) as store:
        assert store.recover().requeued == 1
    with JobStore(root, fsync=False) as store:
        second = store.recover()
        assert second.requeued == 0
        assert second.leases_swept == 0
