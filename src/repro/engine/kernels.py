"""Allocation-free stencil kernels for compiled plans.

The naive operator path (:meth:`LinearStencilOperator.apply`) allocates
one fresh temporary per neighbour tap per region action (``out += view
* c``) and rebuilds every slice tuple from the region geometry on every
call.  For the thousands of small region actions a tessellated schedule
emits, those allocations and the per-call slice construction dominate
the run time on this substrate.

This module provides the two bit-identical rewrites the compiled
engine uses, one kernel per operator family and form:

* **slice kernels** — the operator loop expressed as
  ``np.multiply``/``np.add`` with ``out=`` into a reusable per-thread
  scratch arena, consuming slice tuples precomputed at plan-compile
  time.  Per point, the float operation sequence is exactly the naive
  one (``((v0*c0) + v1*c1) + v2*c2 ...``), so results are bit-identical.
* **batch kernels** — many small same-step write-disjoint actions
  executed as one gather → compute → scatter over precomputed flat
  index arrays.  Elementwise arithmetic is independent of array
  layout, so this too is bit-identical while replacing thousands of
  tiny ufunc dispatches with a handful of large ones.

Every kernel is rank-generic: the compiled slices carry an ``Ellipsis``
prefix and the gathers run along the last axis of ``[..., P]`` flat
views, so the same call serves one padded buffer or N stacked
instances (a leading batch axis only widens the arrays).  Scatters
index the transposed view (``flat_dst.T[idx] = vals.T``): the same
last-axis write as ``flat_dst[..., idx]``, but it stays on NumPy's
first-axis fancy-assignment path, which is markedly faster at every
rank.

Scratch buffers live in a :class:`ScratchArena`: one geometric-growth
1D array per (name, dtype), reshaped into views on demand — zero
steady-state allocation.  Arenas are per-thread (:func:`thread_arena`)
so service worker threads can run shared compiled plans concurrently.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = [
    "ScratchArena",
    "thread_arena",
    "linear_slices",
    "linear_batch",
    "life_slices",
    "life_batch",
]


class ScratchArena:
    """Reusable scratch buffers: one growable 1D array per name/dtype.

    ``get(name, n, dtype)`` returns a length-``n`` view; the backing
    array grows geometrically and is never shrunk, so after warm-up no
    call allocates.  Not thread-safe — use one arena per thread
    (:func:`thread_arena`).
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: Dict[Tuple[str, object], np.ndarray] = {}

    def get(self, name: str, n: int, dtype) -> np.ndarray:
        key = (name, dtype)
        buf = self._bufs.get(key)
        if buf is None or buf.shape[0] < n:
            cap = max(n, 2 * buf.shape[0] if buf is not None else n)
            buf = np.empty(cap, dtype=dtype)
            self._bufs[key] = buf
        return buf[:n]

    def view(self, name: str, shape: Sequence[int], dtype) -> np.ndarray:
        """:meth:`get` reshaped to ``shape``."""
        return self.get(name, math.prod(shape), dtype).reshape(shape)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs.values())


_local = threading.local()


def thread_arena() -> ScratchArena:
    """The calling thread's scratch arena (created on first use)."""
    arena = getattr(_local, "arena", None)
    if arena is None:
        arena = ScratchArena()
        _local.arena = arena
    return arena


# ---------------------------------------------------------------------------
# linear (weighted-sum) kernels
# ---------------------------------------------------------------------------

def linear_slices(src, dst, out_sl, in_sls, coeffs, arena) -> None:
    """One region action of a linear stencil, via precomputed slices.

    Bit-identical to :meth:`LinearStencilOperator.apply`: the first tap
    multiplies into the output, each further tap multiplies into scratch
    and adds in place — the same per-point float sequence as
    ``out += view * c``, minus the temporary allocation.
    """
    out = dst[out_sl]
    np.multiply(src[in_sls[0]], coeffs[0], out=out)
    if len(coeffs) > 1:
        tmp = arena.view("lin", out.shape, out.dtype)
        for sl, c in zip(in_sls[1:], coeffs[1:]):
            np.multiply(src[sl], c, out=tmp)
            np.add(out, tmp, out=out)


def linear_batch(flat_src, flat_dst, idx, off_flats, coeffs, arena) -> None:
    """Many same-step actions of a linear stencil as one gather/scatter.

    ``flat_src``/``flat_dst`` are ``[..., P]`` flat views of padded
    buffers; ``idx`` holds the flat indices of every output point
    (identical for every leading instance); tap ``k`` reads
    ``flat_src[..., idx + off_flats[k]]``.  The accumulation order per
    point matches the naive operator exactly.
    """
    shape = flat_src.shape[:-1] + idx.shape
    ish = arena.get("bidx", idx.shape[0], np.intp)
    acc = arena.view("bacc", shape, flat_src.dtype)
    g = arena.view("bg", shape, flat_src.dtype)
    np.add(idx, off_flats[0], out=ish)
    np.take(flat_src, ish, axis=-1, out=acc)
    np.multiply(acc, coeffs[0], out=acc)
    for off, c in zip(off_flats[1:], coeffs[1:]):
        np.add(idx, off, out=ish)
        np.take(flat_src, ish, axis=-1, out=g)
        np.multiply(g, c, out=g)
        np.add(acc, g, out=acc)
    flat_dst.T[idx] = acc.T


# ---------------------------------------------------------------------------
# Game-of-Life kernels
# ---------------------------------------------------------------------------

def _life_rule(n, centre, arena):
    """Conway's rule on neighbour counts ``n``; returns the boolean
    next state in arena scratch shaped like ``n``."""
    born = arena.view("b1", n.shape, np.bool_)
    two = arena.view("b2", n.shape, np.bool_)
    alive = arena.view("b3", n.shape, np.bool_)
    np.equal(n, 3, out=born)
    np.equal(n, 2, out=two)
    np.equal(centre, 1, out=alive)
    np.logical_and(alive, two, out=two)
    np.logical_or(born, two, out=born)
    return born


def life_slices(src, dst, out_sl, in_sls, centre_idx, arena) -> None:
    """One region action of the Conway rule with preallocated buffers.

    ``in_sls`` lists the neighbour slices (centre excluded),
    ``centre_idx`` the centre slice.  All arithmetic is exact integer /
    boolean work, so buffer reuse cannot change results.
    """
    centre = src[centre_idx]
    n = arena.view("nbuf", centre.shape, np.uint8)
    np.copyto(n, src[in_sls[0]])
    for sl in in_sls[1:]:
        np.add(n, src[sl], out=n)
    np.copyto(dst[out_sl], _life_rule(n, centre, arena), casting="unsafe")


def life_batch(flat_src, flat_dst, idx, off_flats, centre_off, arena) -> None:
    """Batched Conway rule over flat indices (gather → rule → scatter),
    along the last axis of ``[..., P]`` views like :func:`linear_batch`.
    """
    shape = flat_src.shape[:-1] + idx.shape
    ish = arena.get("bidx", idx.shape[0], np.intp)
    n = arena.view("nbuf", shape, np.uint8)
    g = arena.view("gbuf", shape, np.uint8)
    np.add(idx, off_flats[0], out=ish)
    np.take(flat_src, ish, axis=-1, out=n)
    for off in off_flats[1:]:
        np.add(idx, off, out=ish)
        np.take(flat_src, ish, axis=-1, out=g)
        np.add(n, g, out=n)
    centre = arena.view("cbuf", shape, np.uint8)
    np.add(idx, centre_off, out=ish)
    np.take(flat_src, ish, axis=-1, out=centre)
    flat_dst.T[idx] = _life_rule(n, centre, arena).T
