"""Elastic process runtime: healed message faults, detected rank loss.

The acceptance properties:

* the fault-free process runtime matches both the in-process simulator
  and the naive reference **exactly** (bit-identical);
* message-level faults — ``drop_msg``, ``flip_bits`` — injected mid-run
  are healed in-run by CRC-checked retransmits, bit-identically;
* a lost rank — ``kill_rank``, ``stall_rank`` — and exhausted exchange
  budgets surface at once as *typed* errors (``RankLostError``,
  ``ExchangeTimeoutError``, ``ChecksumMismatchError``) instead of
  hangs, with no rank process outliving the run;
* recovery is the job service's: a seeded chaos sweep mixing all four
  kinds across 8 seeds ends bit-identical after the service retries a
  failed attempt from its newest segment checkpoint.
"""

import multiprocessing
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice, reference_sweep
from repro.api import RunConfig, Session
from repro.distributed import (
    ElasticConfig,
    RetryPolicy,
)
from repro.distributed.exec import _execute_distributed
from repro.distributed.elastic import _execute_elastic
from repro.distributed.partition import SlabPartition, build_ownership
from repro.runtime import (
    ChecksumMismatchError,
    ExchangeTimeoutError,
    FaultPlan,
    FaultSpec,
    RankLostError,
)
from repro.runtime.tracing import ExecutionTrace
from repro.service import DONE, JobStore, Supervisor, SupervisorConfig
from tests._proc import alive

pytestmark = [pytest.mark.dist, pytest.mark.faults]

#: watchdog timings tightened so fault tests converge in seconds
FAST = dict(stall_timeout_s=0.6, heartbeat_timeout_s=1.5, deadline_s=60.0)


def _setup(kernel="heat1d", shape=(400,), steps=16, b=4, ranks=4):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    grid = Grid(spec, shape, seed=0)
    base, _ = _execute_distributed(spec, grid.copy(), lat, steps, ranks)
    return spec, lat, grid, base


def _stages_total(spec, shape, steps, b, ranks):
    lat = make_lattice(spec, shape, b)
    plan, _ = build_ownership(lat, SlabPartition(shape, ranks))
    return ((steps + b - 1) // b) * len(plan.stages)


def _live_ranks():
    return [p for p in multiprocessing.active_children()
            if p.name.startswith("repro-rank")]


#: a coordinator whose rank 1 stalls for a minute; it prints its rank
#: pids once they are up, then waits for the straggler verdict
_STALLED_RUN = """\
import multiprocessing, threading, time
from repro import Grid, get_stencil, make_lattice
from repro.distributed import ElasticConfig
from repro.distributed.elastic import _execute_elastic
from repro.runtime import FaultPlan, FaultSpec

def report():
    while len(multiprocessing.active_children()) < 3:
        time.sleep(0.01)
    print(*[p.pid for p in multiprocessing.active_children()], flush=True)

threading.Thread(target=report, daemon=True).start()
spec = get_stencil("heat1d")
_execute_elastic(
    spec, Grid(spec, (400,), seed=0), make_lattice(spec, (400,), 4), 16, 3,
    fault_plan=FaultPlan([FaultSpec("stall_rank", group=2, task=1,
                                    stall_s=60.0)]),
    config=ElasticConfig(stall_timeout_s=60, heartbeat_timeout_s=60))
"""


class TestFaultFree:
    @pytest.mark.parametrize("kernel,shape,steps,b,ranks", [
        ("heat1d", (400,), 16, 4, 4),
        ("heat2d", (64, 64), 12, 4, 3),
    ])
    def test_matches_simulator_and_reference(self, kernel, shape, steps,
                                             b, ranks):
        spec, lat, grid, base = _setup(kernel, shape, steps, b, ranks)
        ref = reference_sweep(spec, grid.copy(), steps)
        out, stats = _execute_elastic(spec, grid.copy(), lat, steps, ranks)
        assert np.array_equal(base, out)
        assert np.array_equal(ref, out)
        assert stats.messages > 0 and stats.bytes_sent > 0
        assert stats.heartbeats > 0
        assert not stats.had_faults

    def test_single_rank_and_zero_steps(self):
        spec, lat, grid, _ = _setup()
        out, _ = _execute_elastic(spec, grid.copy(), lat, 16, 1)
        assert np.array_equal(reference_sweep(spec, grid.copy(), 16), out)
        out0, _ = _execute_elastic(spec, grid.copy(), lat, 0, 3)
        assert np.array_equal(grid.interior(0), out0)

    def test_periodic_boundary_rejected(self):
        spec = get_stencil("heat1d", boundary="periodic")
        lat = make_lattice(spec, (64,), 4)
        with pytest.raises(ValueError, match="Dirichlet"):
            _execute_elastic(spec, Grid(spec, (64,), seed=0), lat, 4, 2)


class TestSingleFaultRecovery:
    """One message fault of each kind, mid-run, healed by retransmit."""

    @pytest.mark.parametrize("fault,expect", [
        (FaultSpec("drop_msg", group=1, task=1),
         dict(drops=1, retries=1)),
        (FaultSpec("flip_bits", group=2, task=0),
         dict(checksum_failures=1, retries=1)),
    ], ids=["drop_msg", "flip_bits"])
    def test_bit_identical_recovery(self, fault, expect):
        spec, lat, grid, base = _setup()
        trace = ExecutionTrace(scheme="elastic")
        out, stats = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([fault]),
            config=ElasticConfig(**FAST), trace=trace,
        )
        assert np.array_equal(base, out), f"{fault.describe()} diverged"
        for key, floor in expect.items():
            assert getattr(stats, key) >= floor, (key, stats)
        counts = trace.event_counts()
        assert counts.get("heartbeat", 0) == 4  # one summary per rank
        assert counts.get("retry", 0) >= 1


class _ChaosSession(Session):
    """Runs each segment of a job under a fresh seeded chaos plan until
    the first attempt fails; the retry then runs clean (the faults were
    transient)."""

    def __init__(self, spec, seed, stages, ranks):
        super().__init__(spec)
        self.seed, self.stages, self.ranks = seed, stages, ranks
        self.segments = 0
        self.failed = None
        self.failed_segment = -1

    def run(self, config=None, **overrides):
        overrides["elastic"] = ElasticConfig(**FAST)
        if self.failed is None:
            overrides["fault_plan"] = _chaos_plan(
                self.seed, self.segments, self.stages, self.ranks)
        self.segments += 1
        try:
            return super().run(config, **overrides)
        except Exception as exc:
            if self.failed is None:
                self.failed, self.failed_segment = exc, self.segments - 1
            raise


def _chaos_plan(seed, segment, stages, ranks):
    return FaultPlan.random_process(stages, ranks, rate=0.25,
                                    seed=100 * seed + segment, stall_s=30.0)


class TestChaosSweep:
    """Seeded chaos in every segment of a service job, all four kinds
    mixed, 8 seeds: the result is bit-identical either way."""

    SHAPE, STEPS, B, RANKS, SEGMENT = (240,), 12, 4, 3, 4

    @pytest.mark.parametrize("seed", range(8))
    def test_random_process_faults_recover(self, seed, tmp_path):
        """Message faults heal in-run; a lost rank fails the attempt and
        the service resumes the job from its newest checkpoint."""
        spec = get_stencil("heat1d")
        stages = _stages_total(spec, self.SHAPE, self.SEGMENT, self.B,
                               self.RANKS)
        cfg = {"shape": list(self.SHAPE), "steps": self.STEPS,
               "b": self.B, "backend": "elastic", "ranks": self.RANKS}
        session = _ChaosSession(spec, seed, stages, self.RANKS)
        with JobStore(str(tmp_path / "store"), fsync=False) as store:
            sup = Supervisor(store, SupervisorConfig(
                workers=1, isolation="thread",
                checkpoint_steps=self.SEGMENT, retry_backoff_s=0.001))
            sup._sessions["heat1d"] = session
            sup.start()
            try:
                job, _ = sup.submit("heat1d", cfg)
                job = sup.wait(job.job_id, timeout=120)
            finally:
                sup.stop()
            interior, _ = store.load_result(job.job_id)
        direct = Session(spec).run(
            RunConfig.from_json(dict(cfg, backend="serial"))).interior
        assert job.state == DONE, job.error
        assert interior.tobytes() == direct.tobytes(), (
            f"seed {seed} diverged")
        if session.failed is None:
            assert job.attempts == 1
        else:
            assert isinstance(session.failed, RankLostError)
            assert job.attempts == 2
            sealed = self.SEGMENT * session.failed_segment
            assert job.resumed_from_step == (sealed if sealed else -1)
        assert not _live_ranks()

    def test_sweep_actually_injects_every_kind(self):
        """Guard against a sweep that silently tests nothing."""
        stages = _stages_total(get_stencil("heat1d"), self.SHAPE,
                               self.SEGMENT, self.B, self.RANKS)
        kinds = set()
        for seed in range(8):
            for segment in range(self.STEPS // self.SEGMENT):
                plan = _chaos_plan(seed, segment, stages, self.RANKS)
                kinds.update(f.kind for f in plan.faults)
        assert kinds == {"kill_rank", "stall_rank", "drop_msg",
                         "flip_bits"}

    def test_per_rank_substreams_stable_across_rank_count(self):
        """Rank r draws the same faults whether 2 or 8 ranks exist."""
        few = FaultPlan.random_process(12, 2, rate=0.3, seed=7)
        many = FaultPlan.random_process(12, 8, rate=0.3, seed=7)
        of = lambda p, r: [f.describe() for f in p.faults if f.task == r]
        for r in range(2):
            assert of(few, r) == of(many, r)


class TestStructuredFailures:
    """Lost ranks and exhausted budgets end in typed errors, never hangs."""

    @pytest.mark.parametrize("fault,cause", [
        (FaultSpec("kill_rank", group=3, task=1), "dead"),
        (FaultSpec("stall_rank", group=2, task=1, stall_s=30.0),
         "straggler"),
    ], ids=["kill_rank", "stall_rank"])
    def test_lost_rank_raises_rank_lost(self, fault, cause):
        spec, lat, grid, _ = _setup()
        with pytest.raises(RankLostError) as ei:
            _execute_elastic(spec, grid.copy(), lat, 16, 4,
                             fault_plan=FaultPlan([fault]),
                             config=ElasticConfig(**FAST))
        assert ei.value.rank == 1 and ei.value.cause == cause
        assert not _live_ranks()

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="process liveness is read from /proc")
    def test_ranks_exit_when_the_coordinator_dies(self):
        """A SIGKILLed coordinator runs no shutdown; its ranks, the
        stalled one included, see their pipe close and exit."""
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", _STALLED_RUN], stdout=subprocess.PIPE,
            text=True, env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
        try:
            ranks = [int(p) for p in proc.stdout.readline().split()]
            assert len(ranks) == 3
        finally:
            proc.kill()
            proc.wait(timeout=30)
            proc.stdout.close()
        deadline = time.monotonic() + 10
        while any(map(alive, ranks)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [r for r in ranks if alive(r)]

    def test_persistent_drop_raises_exchange_timeout(self):
        spec, lat, grid, _ = _setup()
        plan = FaultPlan([FaultSpec("drop_msg", group=1, task=1,
                                    max_hits=10 ** 6)])
        with pytest.raises(ExchangeTimeoutError) as ei:
            _execute_elastic(spec, grid.copy(), lat, 16, 4,
                             fault_plan=plan, config=ElasticConfig(**FAST))
        assert ei.value.stage == 1 and ei.value.src == 1

    def test_persistent_corruption_raises_checksum_mismatch(self):
        spec, lat, grid, _ = _setup()
        plan = FaultPlan([FaultSpec("flip_bits", group=1, task=1,
                                    max_hits=10 ** 6)])
        with pytest.raises(ChecksumMismatchError) as ei:
            _execute_elastic(spec, grid.copy(), lat, 16, 4,
                             fault_plan=plan, config=ElasticConfig(**FAST))
        assert ei.value.stage == 1 and ei.value.src == 1


class TestStatsAndTraceSchema:
    """CommStats: one schema for the simulated and process paths."""

    def test_same_counter_schema_as_simulator(self):
        spec, lat, grid, _ = _setup()
        _, sim = _execute_distributed(spec, grid.copy(), lat, 8, 2)
        _, ela = _execute_elastic(spec, grid.copy(), lat, 8, 2,
                                  config=ElasticConfig(**FAST))
        assert set(vars(sim)) == set(vars(ela))
        assert "retries" in ela.describe_resilience()
        assert "heartbeats" in sim.describe_resilience()

    def test_retry_and_crc_counters_reach_the_report(self):
        spec, lat, grid, _ = _setup()
        out, stats = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([FaultSpec("flip_bits", group=2,
                                            task=0)]),
            config=ElasticConfig(**FAST))
        assert stats.checksum_failures >= 1
        assert stats.retries >= 1
        text = stats.describe_resilience()
        assert "checksum_failures=" in text and "retries=" in text

    def test_elastic_retry_policy_is_configurable(self):
        spec, lat, grid, base = _setup()
        cfg = ElasticConfig(retry=RetryPolicy(timeout_s=0.1,
                                              max_retries=5), **FAST)
        out, _ = _execute_elastic(
            spec, grid.copy(), lat, 16, 4,
            fault_plan=FaultPlan([FaultSpec("drop_msg", group=1,
                                            task=2)]),
            config=cfg)
        assert np.array_equal(base, out)

    def test_sanitize_preflight_rejects_undersized_ghost(self):
        from repro.runtime import SanitizerViolation

        spec, lat, grid, _ = _setup()
        with pytest.raises(SanitizerViolation):
            _execute_elastic(spec, grid.copy(), lat, 8, 4,
                             ghost_override=1, sanitize=True)
