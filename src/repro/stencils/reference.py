"""Naive reference sweeps.

The reference executor advances the whole grid one time step at a time —
the (d+1)-loop naive implementation from the paper's introduction.  It
is the correctness oracle every tiled scheme in this package is checked
against, and the "no temporal reuse" baseline of the cost models.
"""

from __future__ import annotations

import numpy as np

from repro.stencils.grid import Grid
from repro.stencils.operators import _region_slices
from repro.stencils.spec import StencilSpec, full_region


def _staged_reference_step(spec, grid: Grid, t: int) -> None:
    """One naive macro-step of a staged system, full grid per stage.

    Deliberately a *different* traversal from the composed operator: no
    grown regions, no scratch — each stage sweeps the whole interior,
    new-reads coming straight from the destination parity (whose halo
    is zero, the Dirichlet value of intermediate fields), old reads
    from the source parity.  Same per-point kernel, independent
    drive loop — a genuine oracle for the staged pipeline.
    """
    src = grid.at(t)
    dst = grid.at(t + 1)
    halo = spec.halo
    region = full_region(grid.shape)
    zero = (0,) * spec.ndim
    out_sl = _region_slices(region, halo, zero)
    for stage in spec.stages:
        out = dst[(spec.field_index(stage.writes),) + out_sl]
        views = [
            (dst if new else src)[
                (spec.field_index(f),) + _region_slices(region, halo, off)
            ]
            for f, off, new in stage.reads
        ]
        stage.apply_stage(out, views)


def reference_step(spec: StencilSpec, grid: Grid, t: int) -> None:
    """Advance every interior point from global time ``t`` to ``t+1``."""
    if getattr(spec, "is_staged", False):
        _staged_reference_step(spec, grid, t)
        return
    src = grid.at(t)
    dst = grid.at(t + 1)
    if spec.is_periodic:
        cur = grid.interior(t)
        nxt = spec.operator.apply_wrapped(cur)
        grid.interior(t + 1)[...] = nxt
    else:
        spec.apply_region(src, dst, full_region(grid.shape))


def reference_sweep(
    spec: StencilSpec, grid: Grid, steps: int, t0: int = 0
) -> np.ndarray:
    """Run ``steps`` naive time steps starting at global time ``t0``.

    Returns the interior view at time ``t0 + steps`` (the grid's
    buffers are advanced in place).
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    for t in range(t0, t0 + steps):
        reference_step(spec, grid, t)
    return grid.interior(t0 + steps)


def bit_identical(ref: np.ndarray, out: np.ndarray) -> bool:
    """The oracle check: same dtype, same shape, same bytes."""
    return (ref.dtype == out.dtype and ref.shape == out.shape
            and ref.tobytes() == out.tobytes())
