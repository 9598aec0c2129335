"""Plan cache: compile a schedule once, run it many times.

Autotune probes, distributed ranks and benchmark repeats all re-derive
identical schedules from identical parameters.  The cache keys a
:class:`~repro.engine.plan.CompiledPlan` by everything that determines
it — a structural *spec signature* (operator class, offsets,
coefficients, dtype, boundary), the grid shape, step count, scheme name
and the scheme's tile parameters — so the second request for the same
configuration is a dictionary hit instead of a recompilation.  Every
key field is also known from a run configuration, so
:class:`~repro.api.Session` asks :meth:`PlanCache.lookup` before it
builds a schedule and builds only when the lookup misses
(:meth:`PlanCache.compile`); callers holding a schedule use
:meth:`PlanCache.get`.

Two tiers:

* an in-memory LRU (:class:`PlanCache`), always on, with
  :class:`CacheStats` counters (``hits``/``misses``/``evictions``) that
  tests and the autotuner assert on;
* an optional on-disk pickle tier (``disk_dir=``) so plans survive
  process restarts — useful for repeated benchmark invocations.  Disk
  entries are keyed by a SHA-256 of the in-memory key and validated by
  unpickling; any failure is treated as a miss.

A module-level default cache (:func:`default_cache`,
:func:`get_plan`) serves the executors and the CLI.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from threading import Lock
from typing import NamedTuple, Optional, Tuple

from repro.engine.plan import CompiledPlan, compile_plan
from repro.runtime.schedule import RegionSchedule
from repro.stencils.operators import LinearStencilOperator
from repro.stencils.spec import StencilSpec
from repro.stencils.staged import canonical_spec

__all__ = [
    "CacheStats",
    "PlanCache",
    "PlanKey",
    "default_cache",
    "get_plan",
    "plan_key",
    "spec_signature",
]


def spec_signature(spec: StencilSpec) -> Tuple:
    """Hashable structural identity of a stencil spec.

    Two specs with equal signatures produce bit-identical updates, so
    their compiled plans are interchangeable.  Staged specs are
    canonicalized first (a trivial 1-stage wrapper signs identically to
    its plain spec — no degenerate-case forks anywhere downstream) and
    then signed per stage: stage class, written field, read taps and
    coefficients, in order.
    """
    spec = canonical_spec(spec)
    op = spec.operator
    parts: Tuple = (
        type(op).__name__,
        op.offsets,
        str(op.dtype),
        spec.boundary,
    )
    if getattr(spec, "is_staged", False):
        return parts + (
            spec.fields,
            tuple(stage.signature() for stage in spec.stages),
        )
    if isinstance(op, LinearStencilOperator):
        parts = parts + (op.coeffs,)
    return parts


class PlanKey(NamedTuple):
    """Everything that determines a compiled plan (see :func:`plan_key`)."""

    signature: Tuple
    shape: Tuple[int, ...]
    steps: int
    #: the built schedule's own name (``"tessellation-merged"``), not
    #: the configuration's (``"tess"``): one key space for every caller
    scheme: str
    params: Tuple
    batch_threshold: int = 4096
    fuse: bool = True


def plan_key(
    spec: StencilSpec,
    schedule: RegionSchedule,
    params: Tuple = (),
    batch_threshold: int = 4096,
    fuse: bool = True,
) -> PlanKey:
    """Cache key: (spec signature, shape, steps, scheme, tile params).

    ``params`` carries whatever the scheme was built from (``b``, core
    widths, phase layout ...) — callers that derive schedules from
    parameters pass them so distinct tilings of the same scheme name
    never collide.  :meth:`repro.api.ScheduleBuilder.plan_key` derives
    the same key from a run configuration without building anything.
    """
    return PlanKey(
        spec_signature(spec),
        tuple(schedule.shape),
        schedule.steps,
        schedule.scheme,
        tuple(params),
        batch_threshold,
        bool(fuse),
    )


@dataclass
class CacheStats:
    """Counters asserted by tests and reported by the CLI/bench."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: subset of ``hits`` made on behalf of a batched (many-instances)
    #: run — each one amortises a single compile over a whole batch, so
    #: ``/metrics`` can show how much lookup/compile work coalescing
    #: saved
    batched_hits: int = 0
    disk_hits: int = 0
    disk_stores: int = 0
    #: disk entries whose pickle failed to load (corrupted/truncated);
    #: each is quarantined to ``<path>.corrupt`` and treated as a miss
    disk_corrupt: int = 0
    compile_seconds: float = 0.0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.batched_hits = 0
        self.disk_hits = 0
        self.disk_stores = 0
        self.disk_corrupt = 0
        self.compile_seconds = 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "batched_hits": self.batched_hits,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "disk_corrupt": self.disk_corrupt,
            "compile_seconds": self.compile_seconds,
        }


class PlanCache:
    """Thread-safe LRU of compiled plans with an optional disk tier."""

    def __init__(self, capacity: int = 32,
                 disk_dir: Optional[str] = None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._entries: "OrderedDict[Tuple, CompiledPlan]" = OrderedDict()
        self._lock = Lock()

    def __len__(self) -> int:
        return len(self._entries)

    # -- internals ---------------------------------------------------

    def _disk_path(self, key: Tuple) -> Optional[str]:
        if self.disk_dir is None:
            return None
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return os.path.join(self.disk_dir, f"plan-{digest}.pkl")

    def _disk_load(self, key: Tuple) -> Optional[CompiledPlan]:
        path = self._disk_path(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as fh:
                stored_key, plan = pickle.load(fh)
        except Exception:
            # corrupted/truncated pickle (a crashed writer, disk rot):
            # quarantine the file so it is never re-read — leaving it in
            # place would pay the failed unpickle on every future miss —
            # and fall through to a recompile
            self.stats.disk_corrupt += 1
            try:
                os.replace(path, f"{path}.corrupt")
            except OSError:
                pass
            return None
        if stored_key != key or not isinstance(plan, CompiledPlan):
            # a healthy pickle of the wrong thing (hash collision,
            # foreign file): a plain miss, not corruption
            return None
        return plan

    def _disk_store(self, key: Tuple, plan: CompiledPlan) -> None:
        path = self._disk_path(key)
        if path is None:
            return
        try:
            os.makedirs(self.disk_dir, exist_ok=True)
            tmp = f"{path}.tmp.{os.getpid()}"
            with open(tmp, "wb") as fh:
                pickle.dump((key, plan), fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            self.stats.disk_stores += 1
        except Exception:
            pass

    def _insert(self, key: Tuple, plan: CompiledPlan) -> None:
        self._entries[key] = plan
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _probe(self, key: PlanKey, batched: bool,
               disk: bool = True) -> Optional[CompiledPlan]:
        """Memory, then disk; counts a hit.  The caller holds the lock."""
        plan = self._entries.get(key)
        if plan is not None:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            if batched:
                self.stats.batched_hits += 1
            return plan
        # an unpickled plan is self-contained: units, indices and its
        # own copy of the spec are plain data
        plan = self._disk_load(key) if disk else None
        if plan is not None:
            self.stats.disk_hits += 1
            self._insert(key, plan)
        return plan

    # -- public API --------------------------------------------------

    def lookup(self, key: PlanKey,
               batched: bool = False) -> Optional[CompiledPlan]:
        """The plan stored under ``key`` (memory tier, then disk), or None.

        A hit counts in ``hits`` (``disk_hits`` for the disk tier); a
        miss counts nothing — the :meth:`compile` that follows it does.
        ``batched=True`` marks the lookup as made on behalf of a
        many-instances run: the key is unchanged (one compile serves
        any batch width), only the ``batched_hits`` counter moves.
        """
        with self._lock:
            return self._probe(key, batched)

    def compile(self, spec: StencilSpec, schedule: RegionSchedule,
                key: PlanKey, batched: bool = False) -> CompiledPlan:
        """Lower ``schedule`` and store it under ``key`` after a
        :meth:`lookup` missed.

        ``key`` must be :func:`plan_key` of ``schedule``; its
        ``batch_threshold`` and ``fuse`` drive the lowering.  When
        another thread stored the plan since the lookup, that plan is
        returned and counted as a hit.
        """
        with self._lock:
            plan = self._probe(key, batched, disk=False)
            if plan is not None:
                return plan
            self.stats.misses += 1
            plan = compile_plan(spec, schedule,
                                batch_threshold=key.batch_threshold,
                                fuse=key.fuse)
            self.stats.compile_seconds += plan.stats.compile_seconds
            self._insert(key, plan)
            self._disk_store(key, plan)
            return plan

    def get(
        self,
        spec: StencilSpec,
        schedule: RegionSchedule,
        params: Tuple = (),
        batch_threshold: int = 4096,
        fuse: bool = True,
        batched: bool = False,
    ) -> CompiledPlan:
        """Return the compiled plan for ``schedule``, compiling on miss
        (``batched`` as in :meth:`lookup`)."""
        key = plan_key(spec, schedule, params=params,
                       batch_threshold=batch_threshold, fuse=fuse)
        plan = self.lookup(key, batched)
        if plan is None:
            plan = self.compile(spec, schedule, key, batched)
        return plan

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_default = PlanCache()


def default_cache() -> PlanCache:
    """The process-wide plan cache used by executors and the CLI."""
    return _default


def get_plan(spec: StencilSpec, schedule: RegionSchedule,
             params: Tuple = (), **kwargs) -> CompiledPlan:
    """Compile-or-fetch from the default cache."""
    return _default.get(spec, schedule, params=params, **kwargs)
