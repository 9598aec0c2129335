"""Rank-process main loop of the distributed process runtime.

One :func:`worker_main` process per rank.  Per stage it executes the
blocks it owns (the same block→rank ownership as the simulated
executor, via :func:`~repro.distributed.partition.build_ownership`),
pushes its fresh boundary bands to both neighbours (routed through the
coordinator), then blocks on the neighbours' bands with the
receiver-driven timeout/retransmit protocol of
:mod:`~repro.distributed.transport`.  After the last phase it sends its
slab, with the run's exchange counters, as one CRC-sealed ``result``.

Failure behaviour:

* an injected ``kill_rank`` hit exits the process hard
  (``os._exit``); the coordinator sees the dead process and fails the
  run with :class:`~repro.runtime.errors.RankLostError`;
* an injected ``stall_rank`` hit wedges the compute loop with frozen
  progress, which the coordinator's straggler watchdog reports the
  same way;
* a band that never arrives, or keeps failing its CRC, exhausts the
  retry budget and is reported to the coordinator as a structured
  ``failure`` message; the worker then parks until shutdown.

A daemon heartbeat thread shares the channel (thread-safe sends) and
beacons ``(state, monotone counter, phase)`` so the coordinator can
tell a dead process (no beacons) from a wedged one (beacons with
frozen *compute* progress) from one legitimately waiting on a band.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.profiles import TessLattice
from repro.distributed.partition import SlabPartition, build_ownership
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
    corrupt_payload,
    make_data_message,
    unpack_payload,
    verify_message,
)
from repro.engine.kernels import thread_arena
from repro.runtime.faults import FaultPlan
from repro.stencils.spec import StencilSpec, region_is_empty

#: process exit codes (distinct so the coordinator's logs are readable)
KILLED_BY_FAULT = 41      #: injected ``kill_rank`` fired
ORPHANED = 44             #: coordinator channel closed under us

#: ``Message.key`` used for final-result retransmit requests
RESULT_KEY = (-1,)


@dataclass
class WorkerConfig:
    """Everything one rank process needs (fork-inherited)."""

    rank: int
    ranks: int
    spec: StencilSpec
    lattice: TessLattice
    shape: Tuple[int, ...]
    steps: int
    axis: int
    ghost: int
    init_buffers: List[np.ndarray]
    heartbeat_s: float = 0.05
    retry: RetryPolicy = RetryPolicy()
    fault_plan: Optional[FaultPlan] = None


class _Shutdown(Exception):
    """Coordinator ordered: run over, exit cleanly."""


class _ExchangeFailed(Exception):
    """Retry budget exhausted waiting for a neighbour's band."""

    def __init__(self, cause: str, stage: int, src: int, attempts: int):
        self.cause = cause  # "timeout" | "checksum"
        self.stage = stage
        self.src = src
        self.attempts = attempts


class _Worker:
    def __init__(self, cfg: WorkerConfig, chan: Channel):
        self.cfg = cfg
        self.chan = chan
        self.rank = cfg.rank
        # (state, monotone counter, phase) read by the heartbeat thread,
        # which beats from the start so that a slow owned-plan compile
        # is not mistaken for a dead rank
        self.progress: Tuple[str, int, int] = ("init", 0, 0)
        self._beat_stop = threading.Event()
        threading.Thread(target=self._heartbeat_loop, daemon=True).start()
        self.spec = cfg.spec
        shape = tuple(cfg.shape)
        self.shape = shape
        self.part = SlabPartition(shape, cfg.ranks, axis=cfg.axis)
        self.bounds = self.part.bounds()
        self.slopes = tuple(p.sigma for p in cfg.lattice.profiles)
        self.b = cfg.lattice.b
        plan, owned = build_ownership(cfg.lattice, self.part)
        self.n_stages = len(plan.stages)
        self.owned = owned[self.rank]
        self.interior = cfg.spec.interior_slices(shape)
        self.bufs = [buf.copy() for buf in cfg.init_buffers]
        self.phases: List[Tuple[int, int]] = [
            (tt, min(self.b, cfg.steps - tt))
            for tt in range(0, cfg.steps, self.b)
        ]
        self.inbox: Dict[Tuple[int, int], object] = {}
        self.outbox: Dict[Tuple[int, int], object] = {}
        self.done_keys: set = set()
        self.crc_failures: Dict[Tuple[int, int], int] = {}
        self.stats: Dict[str, int] = dict(drops=0, timeouts=0, retries=0,
                                          checksum_failures=0)
        self._compile_owned_plan()

    def _compile_owned_plan(self) -> None:
        """Compile this rank's owned-block geometry ONCE per process.

        ``blk.region_at(s, ...)`` depends only on the stage, block and
        local step ``s`` — never on the phase start ``tt`` — so every
        slice tuple the compute loop needs is precomputed here instead
        of being rebuilt each phase.  Units are compiled with ``t = s``
        (parity ``s % 2``); phases starting at odd ``tt`` run them on
        the swapped buffer pair, which is the same parity arithmetic as
        ``(tt + s) % 2``.  Truncated last phases simply stop the local
        step loop early.  ``plan_compiles`` is reported with the final
        result so tests can assert compilation happened exactly once
        per run.
        """
        from repro.engine.plan import _CompileCtx

        ctx = _CompileCtx(self.spec, self.shape)
        self._stage_units: List[List[List[Optional[tuple]]]] = []
        for si in range(self.n_stages):
            per_block: List[List[Optional[tuple]]] = []
            for blk in self.owned[si]:
                per_s: List[Optional[tuple]] = []
                for s in range(self.b):
                    region = blk.region_at(s, self.b, self.slopes,
                                           self.shape)
                    if region_is_empty(region):
                        per_s.append(None)
                        continue
                    dirty_idx = tuple(slice(lo, hi) for lo, hi in region)
                    per_s.append((ctx.slice_unit(s, region), dirty_idx))
                per_block.append(per_s)
            self._stage_units.append(per_block)
        self._plan_compiles = 1

    # -- plumbing ----------------------------------------------------

    def _neighbours(self) -> List[int]:
        return [r for r in (self.rank - 1, self.rank + 1)
                if 0 <= r < self.cfg.ranks]

    def _bump(self, state: str, phase: int) -> None:
        self.progress = (state, self.progress[1] + 1, phase)

    def _send_ctrl(self, kind: str, key: Tuple[int, ...] = (),
                   payload=None) -> None:
        self.chan.send(Message(kind=kind, src=self.rank, dst=COORDINATOR,
                               epoch=0, key=key, payload=payload))

    def _heartbeat_loop(self) -> None:
        while not self._beat_stop.wait(self.cfg.heartbeat_s):
            try:
                state, counter, phase = self.progress
                self.chan.send(Message(
                    kind=HEARTBEAT, src=self.rank, dst=COORDINATOR,
                    epoch=0, payload=(state, counter, phase),
                ))
            except ChannelClosed:
                return

    def _pump(self, timeout_s: float) -> Optional[Message]:
        """Receive and pre-process at most one message.

        Bands are buffered into the inbox, retransmit requests are
        serviced from the outbox, a shutdown raises; anything else (the
        start barrier's ``resume``) is returned.
        """
        msg = self.chan.recv(timeout_s)
        if msg is None:
            return None
        if msg.kind == SHUTDOWN:
            raise _Shutdown()
        if msg.kind == BAND:
            key = (msg.key[0], msg.src)
            if key in self.done_keys:
                return None  # duplicate delivery after a retransmit
            if not verify_message(msg):
                self.stats["checksum_failures"] += 1
                self.crc_failures[key] = self.crc_failures.get(key, 0) + 1
                # immediate retransmit requests are bounded by the same
                # retry budget as timeout-driven ones, so persistent
                # corruption cannot flood the channel: once the budget
                # is spent, only the (bounded) timeout path remains and
                # the exchange fails with cause "checksum"
                if self.crc_failures[key] <= self.cfg.retry.max_retries:
                    self.stats["retries"] += 1
                    self._send_resend(msg.key[0], msg.src)
                return None
            self.inbox[key] = unpack_payload(msg.payload)
            return None
        if msg.kind == RESEND:
            self._service_resend(msg)
            return None
        return msg

    def _send_resend(self, stage: int, src: int) -> None:
        self.chan.send(Message(kind=RESEND, src=self.rank, dst=src,
                               epoch=0, key=(stage,)))

    def _service_resend(self, msg: Message) -> None:
        if tuple(msg.key) == RESULT_KEY:
            self._send_result()
            return
        stage = msg.key[0]
        payload = self.outbox.get((stage, msg.src))
        if payload is not None:
            self._send_band(stage, msg.src, payload)

    # -- exchange ----------------------------------------------------

    def _axis_window(self, lo: int, hi: int) -> Tuple[slice, ...]:
        n_axis = self.shape[self.cfg.axis]
        window = [slice(None)] * len(self.shape)
        window[self.cfg.axis] = slice(max(0, lo), min(n_axis, hi))
        return tuple(window)

    def _band_payload(self, dst: int, dirty: np.ndarray):
        dlo, dhi = self.bounds[dst]
        window = self._axis_window(dlo - self.cfg.ghost,
                                   dhi + self.cfg.ghost)
        mask = dirty[window].copy()
        return (mask,
                self.bufs[0][self.interior][window].copy(),
                self.bufs[1][self.interior][window].copy())

    def _apply_band(self, payload) -> None:
        mask, b0, b1 = payload
        lo, hi = self.bounds[self.rank]
        window = self._axis_window(lo - self.cfg.ghost,
                                   hi + self.cfg.ghost)
        if not mask.any():
            return
        np.copyto(self.bufs[0][self.interior][window], b0, where=mask)
        np.copyto(self.bufs[1][self.interior][window], b1, where=mask)

    def _send_band(self, stage: int, dst: int, payload) -> None:
        """One band send attempt, subject to transport fault injection."""
        msg = make_data_message(BAND, self.rank, dst, 0,
                                (stage,), payload)
        if self.cfg.fault_plan is not None:
            f = self.cfg.fault_plan.send_fault(stage, self.rank)
            if f is not None and f.kind == "drop_msg":
                self.stats["drops"] += 1
                return
            if f is not None and f.kind == "flip_bits":
                msg = corrupt_payload(msg)
        self.chan.send(msg)

    def _await_band(self, stage: int, src: int):
        key = (stage, src)
        retry = self.cfg.retry
        for attempt in range(retry.attempts):
            deadline = time.monotonic() + retry.attempt_timeout(attempt)
            while True:
                if key in self.inbox:
                    self.done_keys.add(key)
                    self.crc_failures.pop(key, None)
                    return self.inbox.pop(key)
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._pump(min(remaining, 0.05))
            self.stats["timeouts"] += 1
            if attempt + 1 < retry.attempts:
                self.stats["retries"] += 1
                self._send_resend(stage, src)
        cause = "checksum" if self.crc_failures.get(key) else "timeout"
        raise _ExchangeFailed(cause, stage, src, retry.attempts)

    # -- the run -----------------------------------------------------

    def _run_phase(self, p: int) -> None:
        tt, span = self.phases[p]
        plan_faults = self.cfg.fault_plan
        for si in range(self.n_stages):
            stage = p * self.n_stages + si
            self._bump("compute", p)
            if plan_faults is not None:
                if plan_faults.kill_fault(stage, self.rank) is not None:
                    os._exit(KILLED_BY_FAULT)
                f = plan_faults.stall_rank_fault(stage, self.rank)
                if f is not None:
                    # wedge with frozen *compute* progress, but keep
                    # pumping so a shutdown or a dead coordinator still
                    # ends us
                    end = time.monotonic() + f.stall_s
                    while time.monotonic() < end:
                        self._pump(min(0.05, end - time.monotonic()))
            dirty = np.zeros(self.shape, dtype=bool)
            # units were compiled with parity s % 2; a phase starting
            # at odd tt sees the swapped pair, so bufs[(tt + s) % 2]
            # and pair[s % 2] are the same buffer
            pair = (self.bufs if tt % 2 == 0
                    else [self.bufs[1], self.bufs[0]])
            arena = thread_arena()
            for per_s in self._stage_units[si]:
                for s in range(span):
                    entry = per_s[s]
                    if entry is None:
                        continue
                    unit, dirty_idx = entry
                    unit.run(pair, None, self.spec, arena)
                    dirty[dirty_idx] = True
            self._bump("exchange", p)
            for dst in self._neighbours():
                payload = self._band_payload(dst, dirty)
                self.outbox[(stage, dst)] = payload
                self._send_band(stage, dst, payload)
            for src in self._neighbours():
                self._apply_band(self._await_band(stage, src))

    def _await_resume(self) -> None:
        while True:
            msg = self._pump(0.25)
            if msg is not None and msg.kind == RESUME:
                return

    def _send_result(self) -> None:
        slab = self.bufs[self.cfg.steps % 2][self.interior][
            self.part.slab(self.rank)].copy()
        self.chan.send(make_data_message(
            RESULT, self.rank, COORDINATOR, 0, RESULT_KEY,
            (slab, dict(self.stats, plan_compiles=self._plan_compiles)),
        ))

    def run(self) -> None:
        try:
            self._send_ctrl(HELLO)
            self._await_resume()
            try:
                for p in range(len(self.phases)):
                    self._run_phase(p)
                self._bump("done", len(self.phases))
                self._send_result()
            except _ExchangeFailed as exc:
                self._send_ctrl(FAILURE, key=(exc.stage, exc.src),
                                payload=(exc.cause, exc.attempts,
                                         dict(self.stats)))
                self._bump("failed", len(self.phases))
            while True:  # park: serve result retransmits until shutdown
                self._pump(0.25)
        except _Shutdown:
            pass
        finally:
            self._beat_stop.set()


def worker_main(cfg: WorkerConfig, conn, coordinator_ends=()) -> None:
    """Process entry point for one rank.

    ``coordinator_ends`` are the coordinator's pipe ends the fork
    inherited (this rank's and every earlier rank's); closing them lets
    a dead coordinator surface here as end-of-file, so an orphaned rank
    exits instead of waiting forever.
    """
    for end in coordinator_ends:
        end.close()
    chan = Channel(conn)
    try:
        _Worker(cfg, chan).run()
    except ChannelClosed:
        os._exit(ORPHANED)
