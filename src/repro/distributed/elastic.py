"""Multiprocess coordinator for the distributed runtime.

:func:`_execute_elastic` (the ``elastic`` backend's engine) runs a
tessellated stencil across *real* rank processes (one
:func:`~repro.distributed.worker.worker_main` each) and detects every
failure it cannot heal at the message level:

* **Heartbeat watchdog** — every worker beacons ``(state, monotone
  counter, phase)``; a dead process or a pipe silent past
  ``heartbeat_timeout_s`` marks the rank lost, and a beating rank
  whose *compute* counter is frozen past ``stall_timeout_s`` is culled
  as a straggler.  Either raises
  :class:`~repro.runtime.errors.RankLostError` at once.
* **Checksummed exchanges** — all rank-to-rank boundary-band traffic is
  routed through the coordinator (star topology), CRC-sealed at pack
  time and verified at receive time; workers heal transient
  losses/corruption with bounded timeout + backoff retransmits and
  report a structured ``failure`` when the budget is spent, which the
  coordinator raises as
  :class:`~repro.runtime.errors.ExchangeTimeoutError` /
  :class:`~repro.runtime.errors.ChecksumMismatchError`.

There is no in-run recovery.  Every phase boundary is a global
consistency point of the tessellation, and the job service's segment
checkpoints are such points: a lost rank or an exhausted band fails
the run with a typed, transient error, and the service retries the job
from its newest sealed checkpoint, bit-identical to a fault-free run.
Every budget is finite, so a failure never hangs: past ``deadline_s``
the whole run ends in a plain :class:`~repro.runtime.errors
.ExecutionError`.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from multiprocessing.connection import wait as _conn_wait
from typing import List, Optional, Set, Tuple

import numpy as np

from repro.core.profiles import TessLattice
from repro.distributed.exec import CommStats, write_slabs
from repro.distributed.partition import SlabPartition
from repro.distributed.transport import (
    BAND,
    COORDINATOR,
    Channel,
    ChannelClosed,
    FAILURE,
    HEARTBEAT,
    HELLO,
    Message,
    RESEND,
    RESULT,
    RESUME,
    RetryPolicy,
    SHUTDOWN,
    unpack_payload,
    verify_message,
)
from repro.distributed.worker import RESULT_KEY, WorkerConfig, worker_main
from repro.runtime.errors import (
    ChecksumMismatchError,
    ExchangeTimeoutError,
    ExecutionError,
    RankLostError,
)
from repro.runtime.faults import FaultPlan
from repro.runtime.tracing import ExecutionTrace
from repro.stencils.grid import Grid
from repro.stencils.spec import StencilSpec


@dataclass(frozen=True)
class ElasticConfig:
    """Failure-detection knobs of the coordinator.

    Defaults are tuned for test-scale grids: fast enough that a fault
    is detected in seconds, loose enough that a loaded CI machine does
    not trip false stragglers.
    """

    #: worker beacon period
    heartbeat_s: float = 0.02
    #: silence past this marks the rank lost (cause ``"heartbeat"``)
    heartbeat_timeout_s: float = 2.0
    #: frozen *compute* progress past this culls a straggler
    stall_timeout_s: float = 1.5
    #: per-message timeout/backoff budget used by every worker
    retry: RetryPolicy = RetryPolicy()
    #: wall-clock backstop for the whole run
    deadline_s: float = 120.0


@dataclass
class _RankState:
    """Coordinator-side view of one rank."""

    proc: Optional[mp.process.BaseProcess] = None
    chan: Optional[Channel] = None
    last_beat: float = 0.0
    #: (heartbeat state, counter) and when the counter last advanced
    progress: Tuple[str, int] = ("init", -1)
    progress_since: float = 0.0
    beats: int = 0
    result_retries: int = 0
    slab: Optional[np.ndarray] = None


class _Coordinator:
    def __init__(
        self,
        spec: StencilSpec,
        grid: Grid,
        lattice: TessLattice,
        steps: int,
        ranks: int,
        axis: int,
        *,
        fault_plan: Optional[FaultPlan],
        config: ElasticConfig,
        ghost_override: Optional[int],
        trace: Optional[ExecutionTrace],
        budget=None,
    ):
        self.budget = budget
        self.ranks = ranks
        self.cfg = config
        self.trace = trace
        self.part = SlabPartition(grid.shape, ranks, axis=axis)
        ghost = self.part.ghost_width(lattice)
        self.worker_cfg = WorkerConfig(
            rank=0, ranks=ranks, spec=spec, lattice=lattice,
            shape=tuple(grid.shape), steps=steps, axis=axis,
            ghost=ghost if ghost_override is None else int(ghost_override),
            init_buffers=[buf.copy() for buf in grid.buffers],
            heartbeat_s=config.heartbeat_s,
            retry=config.retry, fault_plan=fault_plan,
        )
        try:
            self.mp = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self.mp = mp.get_context()
        self.stats = CommStats()
        self.rank_state = [_RankState() for _ in range(ranks)]
        self.ready: Set[int] = set()
        self.resumed = False
        self.t0 = time.monotonic()

    # -- trace/plumbing helpers --------------------------------------

    def _event(self, kind: str, group: int, detail: str = "") -> None:
        if self.trace is not None:
            self.trace.record_event(kind, group, detail=detail)

    def _check_deadline(self) -> None:
        # the caller's QoS budget shares the coordinator's poll clock;
        # it outranks the coordinator's own wall-clock backstop
        if self.budget is not None:
            self.budget.check("elastic run")
        if time.monotonic() - self.t0 > self.cfg.deadline_s:
            raise ExecutionError(
                f"elastic run exceeded the {self.cfg.deadline_s:.1f}s "
                f"wall-clock backstop",
                scheme="elastic",
            )

    def _spawn(self, rank: int) -> None:
        st = self.rank_state[rank]
        parent, child = self.mp.Pipe(duplex=True)
        cfg = WorkerConfig(**{**self.worker_cfg.__dict__, "rank": rank})
        ends = [parent] + [s.chan.conn for s in self.rank_state
                           if s.chan is not None]
        proc = self.mp.Process(target=worker_main,
                               args=(cfg, child, ends),
                               daemon=True, name=f"repro-rank{rank}")
        proc.start()
        child.close()
        now = time.monotonic()
        st.proc = proc
        st.chan = Channel(parent)
        st.last_beat = now
        st.progress_since = now

    def _kill(self, rank: int) -> None:
        st = self.rank_state[rank]
        if st.proc is not None and st.proc.is_alive():
            st.proc.terminate()
            st.proc.join(timeout=1.0)
        if st.chan is not None:
            st.chan.close()
            st.chan = None

    def _send(self, rank: int, kind: str, key: Tuple[int, ...] = ()) -> None:
        st = self.rank_state[rank]
        if st.chan is None:
            return
        try:
            st.chan.send(Message(kind=kind, src=COORDINATOR, dst=rank,
                                 epoch=0, key=key))
        except ChannelClosed:
            pass  # the liveness check picks the dead rank up

    def _poll(self, timeout_s: float) -> List[Tuple[int, Message]]:
        """Drain ready channels; dead pipes surface as channel loss."""
        conns = {st.chan.conn: r for r, st in enumerate(self.rank_state)
                 if st.chan is not None}
        out: List[Tuple[int, Message]] = []
        for conn in _conn_wait(list(conns), timeout=timeout_s):
            rank = conns[conn]
            chan = self.rank_state[rank].chan
            try:
                while chan.poll():
                    msg = chan.recv(0)
                    if msg is not None:
                        out.append((rank, msg))
            except ChannelClosed:
                pass  # liveness check picks the dead rank up
        return out

    # -- message handling --------------------------------------------

    def _note_beat(self, rank: int, msg: Message) -> None:
        st = self.rank_state[rank]
        now = time.monotonic()
        st.last_beat = now
        st.beats += 1
        self.stats.heartbeats += 1
        state, counter, _phase = msg.payload
        if (state, counter) != st.progress:
            st.progress = (state, counter)
            st.progress_since = now

    def _handle(self, rank: int, msg: Message) -> None:
        if msg.kind == HEARTBEAT:
            self._note_beat(rank, msg)
        elif msg.kind in (BAND, RESEND) and msg.dst != COORDINATOR:
            if msg.kind == BAND and isinstance(msg.payload, bytes):
                self.stats.record(msg.key[0], len(msg.payload))
            self._send_routed(msg)
        elif msg.kind == HELLO:
            self.ready.add(rank)
        elif msg.kind == FAILURE:
            self._handle_failure(rank, msg)
        elif msg.kind == RESULT:
            self._handle_result(rank, msg)

    def _send_routed(self, msg: Message) -> None:
        st = self.rank_state[msg.dst]
        if st.chan is None:
            return
        try:
            st.chan.send(msg)
        except ChannelClosed:
            pass

    def _merge_worker(self, rank: int, wstats) -> None:
        self.stats.merge_worker(wstats)
        if wstats.get("retries"):
            self._event("retry", rank,
                        f"rank {rank}: {wstats['retries']} retransmit "
                        f"request(s), {wstats.get('timeouts', 0)} "
                        f"timeout(s), {wstats.get('checksum_failures', 0)} "
                        f"CRC failure(s)")

    def _handle_failure(self, rank: int, msg: Message) -> None:
        cause, attempts, wstats = msg.payload
        stage, src = msg.key
        self._merge_worker(rank, wstats)
        self._event("failure", stage,
                    f"rank {rank} gave up on band {src}->{rank} "
                    f"({cause}) after {attempts} attempt(s)")
        # a band from a dead or wedged neighbour times out too; name
        # the root cause, not its symptom
        self._liveness_check()
        if cause == "checksum":
            raise ChecksumMismatchError(stage, src, rank, attempts)
        raise ExchangeTimeoutError(stage, src, rank, attempts)

    def _handle_result(self, rank: int, msg: Message) -> None:
        st = self.rank_state[rank]
        if not verify_message(msg):
            self.stats.checksum_failures += 1
            st.result_retries += 1
            if st.result_retries > self.cfg.retry.max_retries:
                raise ChecksumMismatchError(-1, rank, COORDINATOR,
                                            st.result_retries)
            self.stats.retries += 1
            self._send(rank, RESEND, key=RESULT_KEY)
            return
        slab, wstats = unpack_payload(msg.payload)
        self._merge_worker(rank, wstats)
        st.slab = slab

    # -- failure detection -------------------------------------------

    def _liveness_check(self) -> None:
        now = time.monotonic()
        for r, st in enumerate(self.rank_state):
            if st.slab is not None:
                continue
            if not st.proc.is_alive():
                cause = "dead"
            elif now - st.last_beat > self.cfg.heartbeat_timeout_s:
                cause = "heartbeat"
            elif (st.progress[0] == "compute"
                  and now - st.progress_since > self.cfg.stall_timeout_s):
                cause = "straggler"
            else:
                continue
            self._event("watchdog", r, f"rank {r} {cause}")
            raise RankLostError(r, cause)

    # -- the run -----------------------------------------------------

    def run(self) -> List[np.ndarray]:
        """Every rank's final slab, in rank order."""
        for r in range(self.ranks):
            self._spawn(r)
        while any(st.slab is None for st in self.rank_state):
            self._check_deadline()
            for rank, msg in self._poll(0.02):
                self._handle(rank, msg)
            if not self.resumed and len(self.ready) == self.ranks:
                # start barrier: process start-up never eats into the
                # exchange retry windows
                now = time.monotonic()
                for r, st in enumerate(self.rank_state):
                    st.last_beat = st.progress_since = now
                    self._send(r, RESUME)
                self.resumed = True
            self._liveness_check()
        for r, st in enumerate(self.rank_state):
            self._event("heartbeat", r, f"{st.beats} beat(s)")
        return [st.slab for st in self.rank_state]

    def shutdown(self) -> None:
        """Tear everything down; runs on success *and* on abort."""
        for r in range(self.ranks):
            self._send(r, SHUTDOWN)
        for r in range(self.ranks):
            self._kill(r)


def _execute_elastic(
    spec: StencilSpec,
    grid: Grid,
    lattice: TessLattice,
    steps: int,
    ranks: int,
    axis: int = 0,
    *,
    fault_plan: Optional[FaultPlan] = None,
    config: Optional[ElasticConfig] = None,
    ghost_override: Optional[int] = None,
    trace: Optional[ExecutionTrace] = None,
    sanitize: bool = False,
    budget=None,
) -> Tuple[np.ndarray, CommStats]:
    """Process-based execution (the ``elastic`` backend's engine).

    The process analogue of :func:`~repro.distributed.exec
    ._execute_distributed` — same slab partition, same block→rank
    ownership, and the same result: the rank slabs are written back
    into ``grid.buffers[steps % 2]`` and ``grid.interior(steps)`` is
    returned — but with real rank processes, checksummed message
    exchanges and the failure detection of :class:`ElasticConfig`.
    ``fault_plan`` may inject the process-level kinds: ``drop_msg``
    and ``flip_bits`` are healed by retransmits, while ``kill_rank``
    and ``stall_rank`` end the run with
    :class:`~repro.runtime.errors.RankLostError`.
    """
    if spec.is_periodic:
        raise ValueError("distributed executor assumes Dirichlet boundaries")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if sanitize:
        from repro.runtime.sanitizer import sanitize_distributed_plan

        san = sanitize_distributed_plan(spec, lattice, steps, ranks,
                                        axis=axis, ghost=ghost_override)
        if trace is not None:
            trace.record_event("sanitize", 0, seconds=san.seconds,
                               detail=f"{len(san.violations)} violation(s), "
                                      f"{san.actions_checked} action(s)")
        san.raise_if_violations()
    if budget is not None:
        budget.check("elastic entry")  # before any rank is spawned
    coord = _Coordinator(
        spec, grid, lattice, steps, ranks, axis,
        fault_plan=fault_plan, config=config or ElasticConfig(),
        ghost_override=ghost_override, trace=trace, budget=budget,
    )
    try:
        slabs = coord.run()
    finally:
        coord.shutdown()
    write_slabs(grid, steps, coord.part, slabs)
    return grid.interior(steps), coord.stats
