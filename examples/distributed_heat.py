#!/usr/bin/env python3
"""Distributed-memory tessellation — §4.1 made concrete.

Partitions a Heat-2D grid into slabs across simulated ranks, runs the
tessellation with real per-stage boundary exchanges (validated against
the single-node reference), repeats the run on the elastic *process*
runtime while killing a rank mid-flight (the run fails with
``RankLostError``, and the job service then finishes the same job from
its newest checkpoint, bit-identically), prints the communication plan,
and estimates cluster strong scaling with the α–β network model.

Run:  python examples/distributed_heat.py
"""

import tempfile

import numpy as np

from repro import get_stencil, make_lattice
from repro.api import RunConfig, Session
from repro.bench.report import format_table
from repro.distributed import (
    ClusterSpec,
    ElasticConfig,
    communication_plan,
    simulate_distributed,
)
from repro.runtime import FaultPlan, RankLostError
from repro.distributed.plan import plan_totals
from repro.machine import paper_machine
from repro.service import JobStore, Supervisor, SupervisorConfig

#: watchdog timings tightened so the lost rank is noticed in a second
FAST = ElasticConfig(stall_timeout_s=0.6, heartbeat_timeout_s=1.5)


class KillOnceSession(Session):
    """Kills rank 1 in the second segment of the first attempt."""

    calls = 0

    def run(self, config=None, **overrides):
        self.calls += 1
        overrides["elastic"] = FAST
        if self.calls == 2:
            overrides["fault_plan"] = FaultPlan.parse(["kill_rank@1/1"])
        return super().run(config, **overrides)


def main() -> None:
    spec = get_stencil("heat2d")
    shape = (120, 96)
    steps = 24
    b = 4
    ranks = 4
    session = Session(spec)
    config = RunConfig(shape=shape, steps=steps, scheme="tess", b=b,
                       ranks=ranks, backend="distributed", verify=True)

    # 1. run the real message-passing simulation and verify it
    result = session.run(config)
    assert result.ok
    stats = result.stats.comm
    print(f"{ranks} ranks over {shape}, {steps} steps: verified against "
          f"the single-node reference")
    print(f"exchanges: {stats.messages} messages, "
          f"{stats.bytes_sent / 1024:.1f} KiB moved\n")

    # 2. the same run on real rank processes, with a rank killed
    # mid-run: the coordinator detects the loss and fails the run
    try:
        session.run(config, backend="elastic", verify=False,
                    fault_plan=FaultPlan.parse(["kill_rank@3/1"]),
                    elastic=FAST)
        raise AssertionError("the killed rank went unnoticed")
    except RankLostError as exc:
        print(f"elastic process runtime, kill_rank@3/1 injected: {exc}")

    # 3. recovery is the job service's: the job runs in sealed
    # segments, the attempt that lost a rank is retried from the newest
    # checkpoint, and the result is bit-identical
    job_config = dict(config.to_json(), backend="elastic", verify=False)
    with tempfile.TemporaryDirectory() as root:
        with JobStore(root, fsync=False) as store:
            sup = Supervisor(store, SupervisorConfig(
                workers=1, isolation="thread", checkpoint_steps=8,
                retry_backoff_s=0.001))
            sup._sessions["heat2d"] = KillOnceSession(spec)
            sup.start()
            try:
                job, _ = sup.submit("heat2d", job_config)
                job = sup.wait(job.job_id, timeout=120)
            finally:
                sup.stop()
            interior, _ = store.load_result(job.job_id)
    exact = np.array_equal(result.interior, interior)
    print(f"service job {job.state} after {job.attempts} attempt(s), "
          f"resumed from the step-{job.resumed_from_step} checkpoint: "
          f"bit-identical to the simulator: {exact}\n")
    assert job.state == "done" and job.attempts == 2 and exact
    assert job.resumed_from_step == 8

    # 4. the analytic per-stage communication plan
    entries = communication_plan(spec, shape, result.lattice, ranks)
    tot = plan_totals(entries)
    print(f"analytic plan: {tot['messages']} point-to-point transfers "
          f"per phase, {tot['total_bytes'] / 1024:.1f} KiB minimum "
          f"volume (stages with traffic: {tot['stages_with_comm']})\n")

    # 5. cluster strong scaling estimate at paper scale
    big_shape = (2400, 2400)
    big_lat = make_lattice(spec, big_shape, 32, core_widths=(1, 128))
    rows = []
    base = None
    for nodes in (1, 2, 4, 8, 16):
        r = simulate_distributed(spec, big_shape, big_lat, 96,
                                 ClusterSpec(nodes, paper_machine()))
        base = base or r.time_s
        rows.append([nodes, f"{r.gstencils:.1f}",
                     f"{r.comm_fraction * 100:.1f}%",
                     f"{base / r.time_s:.2f}x"])
    print("strong scaling, Heat-2D 2400^2 x 96 on 24-core nodes:")
    print(format_table(["nodes", "GStencil/s", "comm share", "speedup"],
                       rows))


if __name__ == "__main__":
    main()
