"""Shared pieces: problems, seeded inputs, the output check, statistics
and the environment fingerprint."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: every workload runs the paper's merged tessellation through the
#: compiled engine; sanitize and verify stay off (the benchmark checks
#: outputs itself, byte for byte, outside the timed region)
RUN_KNOBS = dict(scheme="tess", engine="compiled", sanitize=False,
                 verify=False)

#: short reference sweeps are timed median-of-k: up to this many runs ...
SWEEP_REPEATS = 5
#: ... while their summed time stays under this
SWEEP_REPEAT_S = 0.01

#: the environment variables that set numpy's thread pools
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Problem:
    """One stencil request: kernel, interior shape, steps, tile depth."""

    kernel: str
    shape: Tuple[int, ...]
    steps: int
    b: int

    @property
    def label(self) -> str:
        dims = "x".join(str(n) for n in self.shape)
        return f"{self.kernel}-{dims}x{self.steps}-b{self.b}"

    @property
    def updates(self) -> int:
        """Cell updates of one instance: cells x steps."""
        return prod(self.shape) * self.steps

    def run_config(self, backend: str = "compiled", **extra):
        from repro.api import RunConfig

        return RunConfig(shape=self.shape, steps=self.steps, b=self.b,
                         backend=backend, **RUN_KNOBS, **extra)


@dataclass
class Sample:
    """One timed request and what was checked about it."""

    #: the mix entry (config) the request belongs to
    label: str
    wall: float
    updates: int = 0
    sweep: float = 0.0
    ok: bool = True
    error: str = ""
    traced: bool = False
    request_id: str = ""
    #: program-reported layer seconds (RunStats.phases, summed)
    phases: Dict[str, float] = field(default_factory=dict)
    cache_hits: int = 0
    cache_misses: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


# -- inputs and checks ---------------------------------------------------

def seed_base(seed: int, stream: int) -> int:
    """First grid seed of one input stream of a workload seed.

    Streams keep warm-up, timed and per-client inputs apart, so no two
    requests of one run share an input (and no dedup or reuse can hide
    work); the same ``seed`` always yields the same inputs.
    """
    rng = np.random.default_rng([int(seed), int(stream)])
    return int(rng.integers(1, 2**30))


def make_grid(spec, shape, grid_seed: int):
    from repro.stencils.grid import Grid

    return Grid(spec, tuple(shape), init="random", seed=int(grid_seed))


def sweep_and_check(spec, snapshot, steps: int, out) -> Tuple[float, bool]:
    """Time ``reference_sweep`` on ``snapshot`` and compare ``out`` with
    it byte for byte (dtype, shape and every bit).

    Sweeps shorter than ``SWEEP_REPEAT_S`` are repeated, each on a fresh
    copy of the input, up to ``SWEEP_REPEATS`` times, and the median is
    kept: a sub-millisecond sweep timed once is mostly timer noise.  Not
    the minimum: the sweep stands in for the host's speed at the time of
    the request it follows, slow moments included.
    """
    from repro.stencils.reference import reference_sweep

    walls: List[float] = []
    for _ in range(SWEEP_REPEATS):
        grid = snapshot.copy()
        t0 = time.perf_counter()
        ref = reference_sweep(spec, grid, steps)
        walls.append(time.perf_counter() - t0)
        if sum(walls) >= SWEEP_REPEAT_S:
            break
    out = np.asarray(out)
    same = (out.dtype == ref.dtype and out.shape == ref.shape
            and np.ascontiguousarray(out).tobytes()
            == np.ascontiguousarray(ref).tobytes())
    return median(walls), bool(same)


# -- statistics ----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def per_config(samples: Sequence[Sample]) -> Dict[str, Dict[str, float]]:
    """Per mix entry: request count, median wall, median sweep, median
    of the paired ratio wall / sweep, and mean cell updates."""
    groups: Dict[str, List[Sample]] = {}
    for s in samples:
        groups.setdefault(s.label, []).append(s)
    return {label: {"n": len(rows),
                    "wall_p50": median([s.wall for s in rows]),
                    "sweep_p50": median([s.sweep for s in rows]),
                    "ratio_p50": median([s.wall / s.sweep for s in rows
                                         if s.sweep > 0]),
                    "updates": mean([s.updates for s in rows])}
            for label, rows in sorted(groups.items())}


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples)`` of the highest percentile that
    has at least ten samples beyond it: the 11th largest sample.

    Below 21 samples that percentile would fall under the median; the
    sample then supports no tail and the median is reported, at
    percentile 50.
    """
    s = sorted(values)
    n = len(s)
    if n < 21:
        return median(s), 50.0, n
    return float(s[n - 11]), 100.0 * (n - 10) / n, n


def peak_rss_mb_self() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_pid(pid: int) -> float:
    """Peak resident set (VmHWM) of a live child process."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


# -- environment ----------------------------------------------------------

def _cache_sizes() -> Dict[str, str]:
    out: Dict[str, str] = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        if not entry.startswith("index"):
            continue
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            out[f"L{level}"] = size
    return out


def env_fingerprint(fsync: Optional[bool] = None) -> Dict[str, object]:
    """What the numbers depend on besides the code: enough to spot a
    baseline taken on another machine or toolchain."""
    fp: Dict[str, object] = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": (len(os.sched_getaffinity(0))
                     if hasattr(os, "sched_getaffinity") else None),
        "caches": _cache_sizes(),
        "threads_env": {k: os.environ[k] for k in THREAD_ENV
                        if k in os.environ},
    }
    if fsync is not None:
        fp["fsync"] = fsync
    return fp


def warn_on_drift(env: Dict[str, object], baseline_path: str) -> List[str]:
    """Warn (never fail) where ``env`` differs from the baseline's."""
    import json

    try:
        with open(baseline_path) as fh:
            base_env = json.load(fh).get("env", {})
    except (OSError, ValueError):
        return []
    drift = [k for k in sorted(set(base_env) | set(env))
             if k in base_env and base_env.get(k) != env.get(k)]
    for key in drift:
        print(f"WARNING: environment differs from {baseline_path} on "
              f"{key!r}: baseline {base_env.get(key)!r}, now "
              f"{env.get(key)!r} (absolute numbers are not comparable)",
              file=sys.stderr)
    return drift
