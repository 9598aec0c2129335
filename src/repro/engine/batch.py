"""Batch axis for compiled plans: one plan over N stacked instances.

The serving workload is many *small/medium* independent problem
instances of the same ``(spec, shape, steps, scheme)`` — exactly the
regime where a compiled plan's remaining cost is Python dispatch per
unit, not math (a fig8-class plan is ~32 units covering ~16k actions
for under a millisecond of arithmetic).  This module amortises that
dispatch across the *instance* axis: N grids are stacked into one
``[N, *padded]`` ping-pong pair (:class:`BatchGrid`) and the ordinary
stream runner applies every plan unit to all N instances in a single
NumPy call (the instance-level analogue of temporal vectorization,
arXiv 2010.04868 / 2103.08825).

There is no batched fork of the engine: every unit in
:mod:`repro.engine.plan` is rank-generic.  Slice units index with
``Ellipsis``-prefixed slices and gather units run along the last axis
of ``[..., P]`` flat views, so a batch is a single-instance run with a
leading axis.  Bit-identity follows: the per-element float sequence is
unchanged, the arrays are only wider.  The plan itself is untouched —
the cache key stays independent of N, so one compile serves any batch
width.

Plans that cannot run on stacked buffers are refused by
:func:`plan_supports_batch`: ghost-zone (private-task) plans snapshot
per-task boxes whose geometry has no batch form, and generic-operator
plans call ``spec.operator.apply`` which only knows single-instance
buffers.  The ``batched`` backend surfaces the refusal as a typed
:class:`~repro.api.backends.BackendUnsupported` before any buffer is
touched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.stencils.grid import Grid
from repro.stencils.operators import (
    GameOfLifeOperator,
    LinearStencilOperator,
)
from repro.stencils.spec import StencilSpec
from repro.stencils.staged import StagedOperator

if TYPE_CHECKING:
    from repro.engine.plan import CompiledPlan

__all__ = [
    "BatchGrid",
    "operator_batch_refusal",
    "plan_supports_batch",
    "stack_grids",
]


class BatchGrid:
    """N stacked ping-pong pairs: ``buffers[p][i]`` is instance ``i``'s
    padded buffer at parity ``p``.

    The stacked buffers are C-contiguous ``[N, *padded]`` arrays, so a
    plan unit's ``Ellipsis``-prefixed slice (or a last-axis gather over
    the ``[N, P]`` flat view) touches every instance in one kernel call.
    """

    __slots__ = ("spec", "shape", "n", "buffers")

    def __init__(self, spec: StencilSpec, shape: Sequence[int],
                 buffers: List[np.ndarray]):
        self.spec = spec
        self.shape: Tuple[int, ...] = tuple(int(s) for s in shape)
        self.n = int(buffers[0].shape[0])
        self.buffers = buffers

    def at(self, t: int) -> np.ndarray:
        """Stacked padded buffers holding values at global time ``t``."""
        return self.buffers[t % 2]

    def interior(self, t: int) -> np.ndarray:
        """``[N, *shape]`` interior view at global time ``t``."""
        return self.at(t)[(slice(None),)
                          + self.spec.interior_slices(self.shape)]

    def instance_interior(self, i: int, t: int) -> np.ndarray:
        return self.at(t)[(i,) + self.spec.interior_slices(self.shape)]

    def scatter(self, grids: Sequence[Grid]) -> None:
        """Copy both parities back into the member grids' own buffers."""
        if len(grids) != self.n:
            raise ValueError(
                f"batch holds {self.n} instances, got {len(grids)} grids"
            )
        for p in (0, 1):
            stacked = self.buffers[p]
            for i, grid in enumerate(grids):
                np.copyto(grid.buffers[p], stacked[i])


def stack_grids(spec: StencilSpec, grids: Sequence[Grid]) -> BatchGrid:
    """Stack N member grids into one :class:`BatchGrid` (copies)."""
    if not grids:
        raise ValueError("cannot stack an empty grid list")
    shape = grids[0].shape
    for g in grids:
        if g.shape != shape:
            raise ValueError(
                f"batch members must share one shape; got {g.shape} "
                f"and {shape}"
            )
        if g.spec.dtype != spec.dtype:
            raise ValueError("batch members must share the spec dtype")
    buffers = [
        np.stack([g.buffers[p] for g in grids], axis=0) for p in (0, 1)
    ]
    return BatchGrid(spec, shape, buffers)


def operator_batch_refusal(op) -> Optional[str]:
    """Refusal reason when an operator has no batched kernel, else None."""
    if (isinstance(op, GameOfLifeOperator)
            or type(op) is LinearStencilOperator
            or isinstance(op, StagedOperator)):
        return None
    return (f"operator {type(op).__name__} has no batched kernel; only "
            f"linear, Game-of-Life and staged operators are batchable")


def plan_supports_batch(plan: "CompiledPlan") -> Optional[str]:
    """Refusal reason when a plan has no batched lowering, else None."""
    if plan.private:
        return ("ghost-zone (private-task) plans have no batched "
                "lowering; run instances individually")
    return operator_batch_refusal(plan.spec.operator)
