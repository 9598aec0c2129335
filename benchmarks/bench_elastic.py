"""Elastic process-runtime overhead.

Measures what real rank processes cost over the in-process simulator
on the fault-free path.  Not a paper figure; this quantifies the
engineering trade-off recorded in ``docs/distributed.md``: process
spawn + pickled pipe traffic buy crash containment and detection.
Recovery from a lost rank is the job service's segment resume, not
the runtime's, so there is no recovery row here.
"""

import time

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice, reference_sweep
from repro.distributed import ElasticConfig
from repro.distributed.exec import _execute_distributed
from repro.distributed.elastic import _execute_elastic

pytestmark = pytest.mark.dist

B = 4
STEPS = 16
SHAPE = (2000,)
RANKS = 4

#: watchdog timings tightened as in the fault tests
FAST = ElasticConfig(stall_timeout_s=0.6, heartbeat_timeout_s=1.5,
                     deadline_s=120.0)


def _build():
    spec = get_stencil("heat1d")
    lat = make_lattice(spec, SHAPE, B)
    return spec, lat


def test_elastic_vs_simulator_overhead(benchmark, capsys):
    """Points/sec: simulator vs process runtime."""
    spec, lat = _build()
    points = int(np.prod(SHAPE)) * STEPS
    ref = reference_sweep(spec, Grid(spec, SHAPE, seed=0), STEPS)

    def timed(fn):
        grid = Grid(spec, SHAPE, seed=0)
        t0 = time.perf_counter()
        out, stats = fn(grid)
        return time.perf_counter() - t0, out, stats

    sim_s, sim_out, _ = benchmark.pedantic(
        lambda: timed(lambda g: _execute_distributed(
            spec, g, lat, STEPS, RANKS)),
        rounds=1, iterations=1)
    ela_s, ela_out, ela_stats = timed(lambda g: _execute_elastic(
        spec, g, lat, STEPS, RANKS, config=FAST))

    with capsys.disabled():
        print("\n[elastic] process-runtime overhead, heat1d "
              f"n={SHAPE[0]} steps={STEPS} b={B} ranks={RANKS}:")
        print(f"  simulator    : {points / sim_s:12.0f} points/s")
        print(f"  elastic      : {points / ela_s:12.0f} points/s "
              f"({ela_stats.messages} msgs, {ela_stats.heartbeats} beats)")

    # correctness first: every path is bit-identical to the reference
    assert np.array_equal(ref, sim_out)
    assert np.array_equal(ref, ela_out)

    # the process runtime pays spawn + IPC, but must stay within an
    # order of magnitude of the simulator on a non-trivial run
    assert ela_s < 60.0 * max(sim_s, 0.05)
