"""Fault injection and detection in the distributed simulator.

Dropped/garbled ghost-band exchanges are *detected* by the
neighbour-consistency (divergence) detector and raise
:class:`GhostDivergenceError`; the simulator does not repair them
in-run — the job service retries the whole job.  An under-sized ghost
band — which silently corrupts the numerics without the detector — is
caught instead.
"""

import numpy as np
import pytest

from repro import Grid, get_stencil, make_lattice, reference_sweep
from repro.api import RunConfig, Session
from repro.distributed.exec import _execute_distributed
from repro.runtime import FaultPlan, FaultSpec, GhostDivergenceError

pytestmark = pytest.mark.faults


def _setup(kernel="heat1d", shape=(400,), steps=16, b=4, ranks=4):
    spec = get_stencil(kernel)
    lat = make_lattice(spec, shape, b)
    grid = Grid(spec, shape, seed=0)
    ref = reference_sweep(spec, grid.copy(), steps)
    base, _ = _execute_distributed(spec, grid.copy(), lat, steps, ranks)
    return spec, lat, grid, ref, base


class TestDivergenceDetector:
    def test_clean_run_no_false_positives_1d(self):
        spec, lat, grid, ref, base = _setup()
        out, stats = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                         check_divergence=True)
        assert np.array_equal(base, out)
        assert stats.divergence_checks > 0

    @pytest.mark.parametrize("kernel,shape,steps,b,ranks", [
        ("heat2d", (64, 64), 12, 4, 3),
        ("life", (48, 48), 8, 2, 3),
    ])
    def test_clean_run_no_false_positives_nd(self, kernel, shape, steps,
                                             b, ranks):
        spec, lat, grid, ref, base = _setup(kernel, shape, steps, b, ranks)
        out, stats = _execute_distributed(spec, grid.copy(), lat, steps,
                                         ranks, check_divergence=True)
        assert np.array_equal(base, out)

    def test_dropped_exchange_detected(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("drop", group=2, task=1)])
        with pytest.raises(GhostDivergenceError) as ei:
            _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                fault_plan=plan, check_divergence=True)
        assert ei.value.stage == 2
        assert ei.value.mismatched_points > 0

    def test_garbled_exchange_detected(self):
        spec, lat, grid, ref, base = _setup()
        plan = FaultPlan([FaultSpec("garble", group=1, task=0)])
        with pytest.raises(GhostDivergenceError):
            _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                fault_plan=plan, check_divergence=True)

    def test_undersized_ghost_band_caught_not_silent(self):
        """The ISSUE satellite: an under-sized band must be *caught*.

        Without the detector the run completes with silently wrong
        numerics; the detector validates against the lattice-required
        band width, so the same run raises instead.
        """
        spec, lat, grid, ref, base = _setup()
        out, _ = _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                     ghost_override=1)
        assert not np.allclose(ref, out, rtol=1e-11, atol=1e-12)
        with pytest.raises(GhostDivergenceError):
            _execute_distributed(spec, grid.copy(), lat, 16, 4,
                                ghost_override=1, check_divergence=True)

    def test_integer_kernel_garble_detected(self):
        spec, lat, grid, ref, base = _setup("life", (48, 48), 8, 2, 3)
        plan = FaultPlan([FaultSpec("garble", group=1, task=0)])
        with pytest.raises(GhostDivergenceError):
            _execute_distributed(spec, grid.copy(), lat, 8, 3,
                                fault_plan=plan, check_divergence=True)

    def test_session_drop_detected_and_classified_transient(self):
        """Through the pipeline: a dropped exchange under the detector
        raises, and the job service would retry it, not fail it."""
        from repro.service.isolation import classify_failure

        config = RunConfig(shape=(400,), steps=16, b=4, scheme="tess",
                           backend="distributed", ranks=4,
                           check_divergence=True)
        plan = FaultPlan([FaultSpec("drop", group=2, task=1)])
        session = Session(get_stencil("heat1d"))
        with pytest.raises(GhostDivergenceError) as ei:
            session.run(config, fault_plan=plan)
        assert classify_failure(ei.value) == "transient"
        assert session.run(config, verify=True).stats.verified
