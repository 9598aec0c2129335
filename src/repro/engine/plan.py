"""Schedule → plan compilation: run a RegionSchedule with zero
per-run geometry work.

:func:`repro.runtime.schedule._execute_schedule` pays, for every one of
the thousands of small region actions a tiled schedule emits, a
Python-level dispatch through ``spec.apply_region``, fresh slice-tuple
construction per neighbour tap, and one temporary NumPy array per tap.
A :class:`CompiledPlan` hoists all of that to compile time:

* **parity resolution** — each action's ping-pong buffer pair
  (``t % 2`` source, ``(t+1) % 2`` destination) is a precomputed index;
* **precomputed slices** — every ``(action, offset)`` slice tuple is
  built once;
* **same-step fusion** — inside one barrier group, actions at the same
  global step are proven write-disjoint with the sanitizer's overlap
  sweep (:func:`repro.runtime.sanitizer._find_pairwise_overlap` — the
  Theorem 3.5 disjointness half), then greedily fused into maximal
  rectangles, and the small remainder is lowered to **batched**
  gather/compute/scatter updates over flat index arrays (one ufunc
  dispatch sequence for hundreds of actions);
* **allocation-free kernels** — the per-unit update runs through
  :mod:`repro.engine.kernels` into reusable per-thread scratch;
* **rank-generic units** — each unit has one ``run`` whose slices and
  gathers ignore leading axes, so :func:`_execute_plan` runs the same
  plan on a :class:`Grid` or on N instances stacked in a
  :class:`~repro.engine.batch.BatchGrid`.

Execution order inside a group is lowered to ascending global step,
which is a valid interleaving of the group's task orders whenever each
task's actions are non-decreasing in ``t`` (checked at compile time;
groups failing the check, and declared-redundant schedules, fall back
to the original task order with per-action compiled slices).  Reads at
step ``t`` live in the ``t % 2`` buffer while same-step writes land in
the other parity, so same-step units can run in any order once their
writes are disjoint.

Results are bit-identical to ``_execute_schedule`` (or
``execute_overlapped`` for ghost-zone schedules): per grid point, the
exact float operation sequence of the naive operator is preserved —
fusion and batching only change array *layout*, never per-element
arithmetic (see :mod:`repro.engine.kernels`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.batch import BatchGrid, plan_supports_batch
from repro.engine.kernels import (
    ScratchArena,
    life_batch,
    life_slices,
    linear_batch,
    linear_slices,
    thread_arena,
)
from repro.runtime.schedule import RegionAction, RegionSchedule
from repro.stencils.grid import Grid
from repro.stencils.operators import (
    GameOfLifeOperator,
    LinearStencilOperator,
)
from repro.stencils.spec import (
    Region,
    StencilSpec,
    clip_region,
    region_is_empty,
    region_size,
)
from repro.stencils.staged import stage_scratch, stage_timings

__all__ = ["CompiledPlan", "PlanStats", "compile_plan"]


# ---------------------------------------------------------------------------
# geometry helpers
# ---------------------------------------------------------------------------

def _element_strides(padded_shape: Sequence[int]) -> Tuple[int, ...]:
    """C-order strides of a padded buffer, in elements."""
    d = len(padded_shape)
    strides = [1] * d
    for j in range(d - 2, -1, -1):
        strides[j] = strides[j + 1] * int(padded_shape[j + 1])
    return tuple(strides)


def _region_slices(region: Region, halo: Sequence[int],
                   offset: Sequence[int]) -> Tuple[slice, ...]:
    return tuple(
        slice(lo + h + o, hi + h + o)
        for (lo, hi), h, o in zip(region, halo, offset)
    )


def _region_flat_indices(region: Region, halo: Sequence[int],
                         strides: Sequence[int]) -> np.ndarray:
    """Flat (raveled padded-array) indices of a region's cells."""
    acc: Optional[np.ndarray] = None
    for (lo, hi), h, st in zip(region, halo, strides):
        ax = np.arange(lo + h, hi + h, dtype=np.intp) * st
        acc = ax if acc is None else (acc[..., None] + ax)
    assert acc is not None
    return np.ascontiguousarray(acc.ravel())


def _fuse_rectangles(regions: List[Region]) -> List[Region]:
    """Greedily merge touching rectangles into maximal ones.

    Two rectangles merge when they agree on every axis but one and are
    adjacent (``hi == lo``) along that axis.  Input rectangles must be
    pairwise disjoint; repeated axis passes run to a fixpoint.
    """
    if len(regions) < 2:
        return list(regions)
    d = len(regions[0])
    regs = list(regions)
    changed = True
    while changed:
        changed = False
        for axis in range(d):
            chains: Dict[tuple, List[Region]] = {}
            for r in regs:
                key = r[:axis] + r[axis + 1:]
                chains.setdefault(key, []).append(r)
            merged: List[Region] = []
            for rs in chains.values():
                rs.sort(key=lambda r: r[axis][0])
                cur = rs[0]
                for r in rs[1:]:
                    if r[axis][0] == cur[axis][1]:
                        cur = (cur[:axis] + ((cur[axis][0], r[axis][1]),)
                               + cur[axis + 1:])
                        changed = True
                    else:
                        merged.append(cur)
                        cur = r
                merged.append(cur)
            regs = merged
    return regs


# ---------------------------------------------------------------------------
# execution units
# ---------------------------------------------------------------------------

class _LinearSliceOp:
    """One (possibly fused) rectangle of a linear stencil."""

    __slots__ = ("sp", "dp", "t", "region", "out_sl", "in_sls", "coeffs")

    def __init__(self, t, region, out_sl, in_sls, coeffs):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region
        self.out_sl = out_sl
        self.in_sls = in_sls
        self.coeffs = coeffs

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        linear_slices(bufs[self.sp], bufs[self.dp], self.out_sl,
                      self.in_sls, self.coeffs, arena)


class _LifeSliceOp:
    """One (possibly fused) rectangle of the Game-of-Life rule."""

    __slots__ = ("sp", "dp", "t", "region", "out_sl", "in_sls", "centre_sl")

    def __init__(self, t, region, out_sl, in_sls, centre_sl):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region
        self.out_sl = out_sl
        self.in_sls = in_sls
        self.centre_sl = centre_sl

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        life_slices(bufs[self.sp], bufs[self.dp], self.out_sl,
                    self.in_sls, self.centre_sl, arena)


class _GenericSliceOp:
    """Fallback for operators the engine has no specialised kernel for
    (single-instance only: ``spec.operator.apply`` has no batch form)."""

    __slots__ = ("sp", "dp", "t", "region")

    def __init__(self, t, region):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        spec.operator.apply(bufs[self.sp], bufs[self.dp], self.region,
                            spec.halo)


class _LinearBatch:
    """All small same-step rectangles of one group as one gather/scatter."""

    __slots__ = ("sp", "dp", "t", "regions", "idx", "off_flats", "coeffs")

    def __init__(self, t, regions, idx, off_flats, coeffs):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.regions = regions
        self.idx = idx
        self.off_flats = off_flats
        self.coeffs = coeffs

    def writes(self):
        return [(self.t, r) for r in self.regions]

    def run(self, bufs, flats, spec, arena):
        linear_batch(flats[self.sp], flats[self.dp], self.idx,
                     self.off_flats, self.coeffs, arena)


class _LifeBatch:
    __slots__ = ("sp", "dp", "t", "regions", "idx", "off_flats", "centre_off")

    def __init__(self, t, regions, idx, off_flats, centre_off):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.regions = regions
        self.idx = idx
        self.off_flats = off_flats
        self.centre_off = centre_off

    def writes(self):
        return [(self.t, r) for r in self.regions]

    def run(self, bufs, flats, spec, arena):
        life_batch(flats[self.sp], flats[self.dp], self.idx,
                   self.off_flats, self.centre_off, arena)


class _StagedSliceOp:
    """One rectangle of a staged system: every stage, grown and clipped.

    The grown intermediates go through the calling thread's
    zero-exterior scratch (:func:`repro.stencils.staged.stage_scratch`,
    shaped ``lead + pad_shape`` for ``lead`` stacked instances); only
    ``region`` of each field is copied into the destination parity, so
    a schedule layer's write-disjointness is exactly the spatial
    disjointness of its raw regions, same as a plain spec.
    """

    __slots__ = ("sp", "dp", "t", "region", "stage_ops", "copy_sls",
                 "pad_shape")

    def __init__(self, t, region, stage_ops, copy_sls, pad_shape):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.region = region
        self.stage_ops = stage_ops      # (stage, out_sl, ((new, view_sl),))
        self.copy_sls = copy_sls        # (..., field) + region, per field
        self.pad_shape = pad_shape

    def writes(self):
        return [(self.t, self.region)]

    def run(self, bufs, flats, spec, arena):
        scr = stage_scratch(flats[0].shape[:-1] + self.pad_shape, spec.dtype)
        src = bufs[self.sp]
        dst = bufs[self.dp]
        timed = stage_timings.armed
        for stage, out_sl, view_sls in self.stage_ops:
            t0 = time.perf_counter() if timed else 0.0
            views = [(scr if new else src)[sl] for new, sl in view_sls]
            stage.apply_stage(scr[out_sl], views, arena)
            if timed:
                stage_timings.record(stage.name, time.perf_counter() - t0)
        for sl in self.copy_sls:
            np.copyto(dst[sl], scr[sl])


class _StagedBatch:
    """All small same-step rectangles of one staged group, gathered.

    Per stage: one position array (union of the rectangles' clipped
    grown regions, in flat spatial-buffer indices), one gather per read
    tap (shift = flat offset + field base), one elementwise
    ``apply_stage`` on the gathered ``[..., m]`` arrays, one scatter
    into the flat scratch.  Overlapping grown regions scatter duplicate
    positions with *identical* values (the stage output is a pure
    function of the source parity), so the duplicate writes are benign.
    The final per-field copy touches only the raw (pairwise-disjoint)
    rectangles.
    """

    __slots__ = ("sp", "dp", "t", "regions", "stage_ops", "idx",
                 "num_fields", "field_size", "pad_shape")

    def __init__(self, t, regions, stage_ops, copy_idx, num_fields,
                 field_size, pad_shape):
        self.t = t
        self.sp = t % 2
        self.dp = (t + 1) % 2
        self.regions = regions
        self.stage_ops = stage_ops      # (stage, pos, wshift, ((new, shift),))
        self.idx = copy_idx             # flat spatial indices of the raw rects
        self.num_fields = num_fields
        self.field_size = field_size
        self.pad_shape = pad_shape

    def writes(self):
        return [(self.t, r) for r in self.regions]

    def run(self, bufs, flats, spec, arena):
        lead = flats[0].shape[:-1]
        scr = stage_scratch(lead + self.pad_shape,
                            spec.dtype).reshape(lead + (-1,))
        src = flats[self.sp]
        dst = flats[self.dp]
        timed = stage_timings.armed
        for stage, pos, wshift, shifts in self.stage_ops:
            t0 = time.perf_counter() if timed else 0.0
            ish = arena.get("sg_idx", pos.size, np.intp)
            gathered = []
            for i, (new, shift) in enumerate(shifts):
                np.add(pos, shift, out=ish)
                g = arena.view(f"sg{i}", lead + pos.shape, spec.dtype)
                np.take(scr if new else src, ish, axis=-1, out=g)
                gathered.append(g)
            out = arena.view("sg_out", lead + pos.shape, spec.dtype)
            stage.apply_stage(out, gathered, arena)
            np.add(pos, wshift, out=ish)
            scr.T[ish] = out.T
            if timed:
                stage_timings.record(stage.name, time.perf_counter() - t0)
        ish = arena.get("sg_idx", self.idx.size, np.intp)
        g = arena.view("sg_copy", lead + self.idx.shape, spec.dtype)
        for f in range(self.num_fields):
            np.add(self.idx, f * self.field_size, out=ish)
            np.take(scr, ish, axis=-1, out=g)
            dst.T[ish] = g.T


class _PrivateTask:
    """One ghost-zone task: snapshot box, local steps, core write-back.

    Mirrors :func:`repro.baselines.overlapped.execute_overlapped`
    exactly (same snapshot, same local iteration, same write-back) with
    every slice precomputed.
    """

    __slots__ = ("t_start", "snap_sl", "pad_shape", "local_ops",
                 "wb_parity", "wb_dst_sl", "wb_local_sl", "actions")

    def __init__(self, t_start, snap_sl, pad_shape, local_ops,
                 wb_parity, wb_dst_sl, wb_local_sl, actions):
        self.t_start = t_start
        self.snap_sl = snap_sl
        self.pad_shape = pad_shape
        self.local_ops = local_ops          # (sp, dp, local_region)
        self.wb_parity = wb_parity
        self.wb_dst_sl = wb_dst_sl
        self.wb_local_sl = wb_local_sl
        self.actions = actions              # [(t, region)] for as_schedule

    def snapshot(self, bufs):
        buf_a = bufs[self.t_start % 2][self.snap_sl].copy()
        return [buf_a, buf_a.copy()]

    def iterate(self, pair, spec):
        for sp, dp, local_region in self.local_ops:
            spec.operator.apply(pair[sp], pair[dp], local_region, spec.halo)

    def write_back(self, pair, bufs):
        bufs[self.wb_parity][self.wb_dst_sl] = pair[self.wb_parity][self.wb_local_sl]


class _PrivateGroup:
    """One barrier group of private tasks (two-pass ghost-zone discipline)."""

    __slots__ = ("t", "ptasks")

    def __init__(self, ptasks):
        self.ptasks = ptasks
        self.t = min((pt.t_start for pt in ptasks), default=0)

    def writes(self):
        return [w for pt in self.ptasks for w in pt.actions]

    def run(self, bufs, flats, spec, arena):
        snaps = [pt.snapshot(bufs) for pt in self.ptasks]
        for pt, pair in zip(self.ptasks, snaps):
            pt.iterate(pair, spec)
            pt.write_back(pair, bufs)


# ---------------------------------------------------------------------------
# the plan
# ---------------------------------------------------------------------------

@dataclass
class PlanStats:
    """What compilation did (consumed by tests, the CLI and the bench)."""

    tasks: int = 0
    actions: int = 0
    groups: int = 0
    stream_units: int = 0
    batches: int = 0
    batched_actions: int = 0
    sliced_actions: int = 0
    fused_actions: int = 0       #: actions removed by rectangle fusion
    fallback_groups: int = 0     #: groups compiled without reordering
    index_bytes: int = 0
    compile_seconds: float = 0.0

    def describe(self) -> str:
        return (
            f"{self.stream_units} units ({self.batches} batches covering "
            f"{self.batched_actions} actions, {self.sliced_actions} slice "
            f"ops, {self.fused_actions} fused away) from {self.actions} "
            f"actions / {self.tasks} tasks / {self.groups} groups; "
            f"{self.index_bytes / 1e6:.1f} MB indices, compiled in "
            f"{self.compile_seconds * 1e3:.1f} ms"
        )


@dataclass
class CompiledPlan:
    """A RegionSchedule lowered to prebuilt execution units.

    ``streams[i]`` is the ordered unit list of barrier group
    ``group_ids[i]``; :func:`_execute_plan` runs them in order.  The
    per-task view used by the threaded backend is compiled
    lazily by :meth:`task_units`.
    """

    scheme: str
    shape: Tuple[int, ...]
    steps: int
    spec: StencilSpec
    group_ids: List[int]
    streams: List[list]
    private: bool
    stats: PlanStats
    schedule: RegionSchedule = field(repr=False)
    #: ``schedule_stats(schedule)``, filled in by the first run that
    #: reports it; later runs of the plan get a copy
    schedule_summary: Optional[Dict[str, float]] = field(default=None,
                                                         repr=False)
    _task_units: Dict[int, List[list]] = field(default_factory=dict,
                                               repr=False)

    @property
    def num_groups(self) -> int:
        return len(self.group_ids)

    def task_units(self, group_index: int) -> List[list]:
        """Per-task compiled units of one group (for threaded execution).

        Tasks keep their original action order — no cross-task fusion —
        so the barrier-group independence contract is untouched.
        """
        cached = self._task_units.get(group_index)
        if cached is not None:
            return cached
        gid = self.group_ids[group_index]
        tasks = self.schedule.groups()[gid]
        ctx = _CompileCtx(self.spec, self.shape)
        units = [
            [ctx.slice_unit(a.t, a.region) for a in task.actions
             if not region_is_empty(a.region)]
            for task in tasks
        ]
        self._task_units[group_index] = units
        return units

    def as_schedule(self) -> RegionSchedule:
        """Re-express the compiled stream as a RegionSchedule.

        Each same-step layer of each stream becomes one barrier group
        whose tasks are the layer's units, so the sanitizer can prove
        that fusion/batching preserved the exact-tessellation and
        race-freedom invariants (finer barriers are strictly more
        conservative than the original grouping).
        """
        out = RegionSchedule(
            scheme=f"{self.scheme}+compiled", shape=self.shape,
            steps=self.steps, private_tasks=self.private,
            redundant=self.schedule.redundant,
        )
        group = 0
        for stream in self.streams:
            if not stream:
                continue
            if self.private:
                for unit in stream:
                    for pt in unit.ptasks:
                        out.add(group, [RegionAction(t=t, region=r)
                                        for t, r in pt.actions])
                group += 1
                continue
            last_t = None
            for unit in stream:
                if last_t is not None and unit.t != last_t:
                    group += 1
                last_t = unit.t
                out.add(group, [RegionAction(t=t, region=r)
                                for t, r in unit.writes()])
            group += 1
        return out


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------

class _CompileCtx:
    """Shared geometry/kernel context of one compilation."""

    def __init__(self, spec: StencilSpec, shape: Sequence[int]):
        self.spec = spec
        self.shape = tuple(int(n) for n in shape)
        self.halo = spec.halo
        self.padded = spec.padded_shape(shape)
        self.strides = _element_strides(self.padded)
        op = spec.operator
        self.kind = "generic"
        if getattr(spec, "is_staged", False):
            self.kind = "staged"
            # regions stay spatial: strides/flat-index math must ignore
            # the leading field axis of the padded buffer
            self.strides = _element_strides(self.padded[1:])
            self.num_fields = len(spec.fields)
            self.field_size = 1
            for n in self.padded[1:]:
                self.field_size *= int(n)
        elif isinstance(op, GameOfLifeOperator):
            self.kind = "life"
            self.neigh_offs = tuple(o for o in op.offsets if o != (0, 0))
            self.neigh_flats = tuple(
                sum(c * st for c, st in zip(o, self.strides))
                for o in self.neigh_offs
            )
            self.centre_flat = 0
        elif type(op) is LinearStencilOperator:
            self.kind = "linear"
            self.coeffs = op.coeffs
            self.offs = op.offsets
            self.off_flats = tuple(
                sum(c * st for c, st in zip(o, self.strides))
                for o in self.offs
            )

    def _grown_regions(self, region: Region):
        """Per-stage clipped grown regions of one raw region."""
        op = self.spec.operator
        return [
            clip_region(
                tuple((lo - gr, hi + gr)
                      for (lo, hi), gr in zip(region, grow)),
                self.shape,
            )
            for grow in op.grow
        ]

    def slice_unit(self, t: int, region: Region):
        # every slice is Ellipsis-prefixed: it addresses one padded
        # buffer and a stack of them (leading instance axes) alike
        zero = (0,) * len(region)
        if self.kind == "staged":
            op = self.spec.operator
            stage_ops = []
            for stage, g in zip(op.stages, self._grown_regions(region)):
                out_sl = ((..., op.field_index[stage.writes])
                          + _region_slices(g, self.halo, zero))
                view_sls = tuple(
                    (new, (..., op.field_index[f])
                     + _region_slices(g, self.halo, off))
                    for f, off, new in stage.reads
                )
                stage_ops.append((stage, out_sl, view_sls))
            copy_sl = _region_slices(region, self.halo, zero)
            return _StagedSliceOp(
                t, region, tuple(stage_ops),
                tuple((..., f) + copy_sl for f in range(self.num_fields)),
                self.padded,
            )
        here = (...,) + _region_slices(region, self.halo, zero)
        if self.kind == "linear":
            return _LinearSliceOp(
                t, region, here,
                tuple((...,) + _region_slices(region, self.halo, o)
                      for o in self.offs),
                self.coeffs,
            )
        if self.kind == "life":
            return _LifeSliceOp(
                t, region, here,
                tuple((...,) + _region_slices(region, self.halo, o)
                      for o in self.neigh_offs),
                here,
            )
        return _GenericSliceOp(t, region)

    def batch_unit(self, t: int, regions: List[Region]):
        if self.kind == "staged":
            op = self.spec.operator
            stage_ops = []
            for si, stage in enumerate(op.stages):
                pos = np.concatenate([
                    _region_flat_indices(self._grown_regions(r)[si],
                                         self.halo, self.strides)
                    for r in regions
                ]) if regions else np.empty(0, dtype=np.intp)
                wshift = op.field_index[stage.writes] * self.field_size
                shifts = tuple(
                    (new,
                     sum(c * st for c, st in zip(off, self.strides))
                     + op.field_index[f] * self.field_size)
                    for f, off, new in stage.reads
                )
                stage_ops.append((stage, pos, wshift, shifts))
            copy_idx = np.concatenate([
                _region_flat_indices(r, self.halo, self.strides)
                for r in regions
            ]) if regions else np.empty(0, dtype=np.intp)
            return _StagedBatch(t, regions, tuple(stage_ops), copy_idx,
                                self.num_fields, self.field_size,
                                self.padded)
        if self.kind not in ("linear", "life"):
            return None
        idx = np.concatenate([
            _region_flat_indices(r, self.halo, self.strides)
            for r in regions
        ]) if regions else np.empty(0, dtype=np.intp)
        if self.kind == "linear":
            return _LinearBatch(t, regions, idx, self.off_flats, self.coeffs)
        return _LifeBatch(t, regions, idx, self.neigh_flats,
                          self.centre_flat)


def _tasks_time_monotone(tasks) -> bool:
    for task in tasks:
        last = None
        for a in task.actions:
            if region_is_empty(a.region):
                continue
            if last is not None and a.t < last:
                return False
            last = a.t
    return True


def _layer_write_disjoint(regions: List[Region], ctx: _CompileCtx) -> bool:
    """Exact same-step write-disjointness (Theorem 3.5's disjoint half).

    Small layers use the sanitizer's pairwise interval sweep
    (:func:`repro.runtime.sanitizer._find_pairwise_overlap`); large
    layers use an equivalent exact check — two rectangles overlap iff
    their flat cell-index sets intersect, i.e. iff the concatenated
    sorted index array has a duplicate — which is vectorised and keeps
    compilation linear in the layer's point count.
    """
    if len(regions) < 2:
        return True
    if len(regions) <= 64:
        from repro.runtime.sanitizer import _find_pairwise_overlap

        return _find_pairwise_overlap(
            [(r, i) for i, r in enumerate(regions)]) is None
    idx = np.concatenate([
        _region_flat_indices(r, ctx.halo, ctx.strides) for r in regions
    ])
    idx.sort(kind="stable")
    return not bool(np.any(idx[1:] == idx[:-1]))


def compile_plan(
    spec: StencilSpec,
    schedule: RegionSchedule,
    batch_threshold: int = 4096,
    fuse: bool = True,
) -> CompiledPlan:
    """Lower a schedule to a :class:`CompiledPlan`.

    ``batch_threshold``: rectangles with fewer points are gathered into
    batched flat-index updates; larger ones keep (precompiled) slice
    kernels, which move less memory per point.  ``fuse=False`` disables
    both rectangle fusion and batching (per-action slice ops only) —
    the debugging/fallback configuration.
    """
    if spec.is_periodic:
        raise ValueError("compiled plans assume non-periodic boundaries")
    if schedule.private_tasks and getattr(spec, "is_staged", False):
        # _PrivateTask snapshots are spatial-only slices of one buffer;
        # the ghost-zone discipline has no field axis — refuse rather
        # than mis-slice
        raise ValueError(
            "ghost-zone (private-task) schedules do not support staged "
            "systems"
        )
    if len(schedule.shape) != spec.ndim:
        raise ValueError(
            f"schedule rank {len(schedule.shape)} != stencil ndim {spec.ndim}"
        )
    t0 = time.perf_counter()
    stats = PlanStats(tasks=len(schedule.tasks), groups=0)
    ctx = _CompileCtx(spec, schedule.shape)
    groups = schedule.groups()
    gids = sorted(groups)
    stats.groups = len(gids)
    streams: List[list] = []
    if schedule.private_tasks:
        for gid in gids:
            ptasks = [_compile_private_task(ctx, task)
                      for task in groups[gid]]
            ptasks = [pt for pt in ptasks if pt is not None]
            stats.actions += sum(len(pt.actions) for pt in ptasks)
            streams.append([_PrivateGroup(ptasks)] if ptasks else [])
        stats.stream_units = sum(len(s) for s in streams)
        stats.compile_seconds = time.perf_counter() - t0
        return CompiledPlan(
            scheme=schedule.scheme, shape=schedule.shape,
            steps=schedule.steps, spec=spec, group_ids=gids,
            streams=streams, private=True, stats=stats, schedule=schedule,
        )

    for gid in gids:
        tasks = groups[gid]
        acts = [(a.t, a.region) for task in tasks for a in task.actions
                if not region_is_empty(a.region)]
        stats.actions += len(acts)
        by_t: Dict[int, List[Region]] = {}
        for t, r in acts:
            by_t.setdefault(t, []).append(r)
        reorder = (
            fuse
            and not schedule.redundant
            and _tasks_time_monotone(tasks)
            and all(_layer_write_disjoint(rs, ctx) for rs in by_t.values())
        )
        stream: list = []
        if not reorder:
            # original task order, per-action compiled slices: exactly
            # _execute_schedule's interleaving with the geometry hoisted
            stats.fallback_groups += 1
            for task in tasks:
                for a in task.actions:
                    if region_is_empty(a.region):
                        continue
                    stream.append(ctx.slice_unit(a.t, a.region))
            stats.sliced_actions += len(stream)
            streams.append(stream)
            continue
        for t in sorted(by_t):
            regions = by_t[t]
            fused = _fuse_rectangles(regions)
            stats.fused_actions += len(regions) - len(fused)
            small = [r for r in fused if region_size(r) < batch_threshold]
            large = [r for r in fused if region_size(r) >= batch_threshold]
            for r in large:
                stream.append(ctx.slice_unit(t, r))
                stats.sliced_actions += 1
            if small:
                batch = ctx.batch_unit(t, small)
                if batch is None:      # no batched kernel: slice them
                    for r in small:
                        stream.append(ctx.slice_unit(t, r))
                        stats.sliced_actions += 1
                else:
                    stream.append(batch)
                    stats.batches += 1
                    stats.batched_actions += len(small)
                    stats.index_bytes += batch.idx.nbytes
        streams.append(stream)
    stats.stream_units = sum(len(s) for s in streams)
    stats.compile_seconds = time.perf_counter() - t0
    return CompiledPlan(
        scheme=schedule.scheme, shape=schedule.shape, steps=schedule.steps,
        spec=spec, group_ids=gids, streams=streams, private=False,
        stats=stats, schedule=schedule,
    )


def _compile_private_task(ctx: _CompileCtx, task) -> Optional[_PrivateTask]:
    acts = [a for a in task.actions if not region_is_empty(a.region)]
    if not acts:
        return None
    halo = ctx.halo
    t_start = acts[0].t
    inbox = acts[0].region
    offs = tuple(lo for lo, _ in inbox)
    pad_shape = tuple((hi - lo) + 2 * h for (lo, hi), h in zip(inbox, halo))
    snap_sl = tuple(slice(lo, hi + 2 * h)
                    for (lo, hi), h in zip(inbox, halo))
    local_ops = []
    for a in acts:
        local = tuple((lo - o, hi - o)
                      for (lo, hi), o in zip(a.region, offs))
        local_ops.append((a.t % 2, (a.t + 1) % 2, local))
    last = acts[-1]
    t_done = last.t + 1
    core = last.region
    wb_dst_sl = tuple(slice(lo + h, hi + h)
                      for (lo, hi), h in zip(core, halo))
    wb_local_sl = tuple(slice(lo - o + h, hi - o + h)
                        for (lo, hi), o, h in zip(core, offs, halo))
    return _PrivateTask(
        t_start=t_start, snap_sl=snap_sl, pad_shape=pad_shape,
        local_ops=local_ops, wb_parity=t_done % 2, wb_dst_sl=wb_dst_sl,
        wb_local_sl=wb_local_sl,
        actions=[(a.t, a.region) for a in acts],
    )


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

def _flat_views(grid) -> tuple:
    """``[..., P]`` flat views of a grid's ping-pong pair (a
    :class:`~repro.engine.batch.BatchGrid` keeps its instance axis)."""
    lead = 1 if isinstance(grid, BatchGrid) else 0
    return tuple(b.reshape(b.shape[:lead] + (-1,)) for b in grid.buffers)


def _execute_plan(plan: CompiledPlan, grid: Union[Grid, BatchGrid],
                  arena: Optional[ScratchArena] = None,
                  budget=None) -> np.ndarray:
    """Compiled-stream execution (the ``compiled`` and ``batched``
    backends' engine).

    ``grid`` is a :class:`Grid` or a
    :class:`~repro.engine.batch.BatchGrid`: every unit is rank-generic,
    so a batch runs each unit once for all N stacked instances and the
    result is the ``[N, *shape]`` interior.  ``budget`` is the run-level
    :class:`~repro.runtime.qos.RunBudget`; when armed it is checked at
    entry and between group streams (the compiled path's barrier
    boundaries).
    """
    if isinstance(grid, BatchGrid):
        reason = plan_supports_batch(plan)
        if reason is not None:
            raise ValueError(f"plan cannot run batched: {reason}")
    if grid.shape != plan.shape:
        raise ValueError(
            f"grid shape {grid.shape} != plan shape {plan.shape}"
        )
    bufs = grid.buffers
    if not all(b.flags.c_contiguous for b in bufs):
        raise ValueError("compiled plans require C-contiguous grid buffers")
    flats = _flat_views(grid)
    spec = plan.spec
    if arena is None:
        arena = thread_arena()
    if budget is not None:
        budget.check(f"{plan.scheme} plan entry")
    for si, stream in enumerate(plan.streams):
        if budget is not None:
            budget.check(f"stream {si}")
        for unit in stream:
            unit.run(bufs, flats, spec, arena)
    return grid.interior(plan.steps)


def run_units(units, grid: Grid, spec: StencilSpec,
              arena: Optional[ScratchArena] = None) -> None:
    """Run one task's compiled units (the threaded backend's task body)."""
    flats = _flat_views(grid)
    if arena is None:
        arena = thread_arena()
    for unit in units:
        unit.run(grid.buffers, flats, spec, arena)
