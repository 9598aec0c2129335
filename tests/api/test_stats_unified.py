"""The one stats schema — and the compile-counter discipline.

The facade compiles the plan exactly once, *before* execution, so
``RunStats.plan_compiles`` is the per-run plan-cache delta (local
backends) or the rank-side tally (distributed backends), never both.
"""

import numpy as np
import pytest

from repro.api import RunConfig, Session
from repro.engine.cache import PlanCache
from repro.stencils import heat1d, heat2d

pytestmark = [pytest.mark.api, pytest.mark.engine]


def _threaded_config():
    return RunConfig(shape=(48, 48), steps=8, scheme="tess", b=4,
                     backend="threaded", engine="compiled", threads=2,
                     verify=True)


class TestNoDoubleCounting:
    def test_second_run_is_a_cache_hit(self):
        """Identical config through the same session: zero compiles,
        one hit — the per-run delta, not the cache's lifetime tally."""
        session = Session(heat2d(), cache=PlanCache())
        first = session.run(_threaded_config())
        second = session.run(_threaded_config())

        assert first.stats.plan_compiles == 1
        assert second.stats.plan_compiles == 0
        assert second.stats.cache_hits == 1
        assert np.array_equal(first.interior, second.interior)

    def test_prebuilt_plan_counts_zero(self):
        """A plan handed in explicitly was not compiled by this run."""
        session = Session(heat2d(), cache=PlanCache())
        cfg = RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4,
                        backend="compiled", engine="compiled").normalized()
        built = session.build(cfg)
        plan = session.lower(built.schedule, built.params)
        from repro.stencils import Grid

        result = session.execute(Grid(heat2d(), (32, 32), seed=0),
                                 config=cfg, plan=plan)
        assert result.stats.plan_compiles == 0
        assert result.stats.cache_hits == 0


class TestOneSchema:
    """Every backend family fills the same RunStats shape."""

    def test_local_run_blocks(self):
        result = Session(heat2d()).run(
            RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4,
                      backend="serial", verify=True))
        st = result.stats
        assert st.comm is None
        assert st.verified is True
        assert set(st.phases) >= {"build", "execute", "verify"}
        assert st.points == 32 * 32 * 8

    def test_threaded_compiled_run_blocks(self):
        result = Session(heat2d()).run(_threaded_config())
        st = result.stats
        assert st.comm is None and st.verified is True
        assert st.cache is not None  # engine=compiled lowered a plan
        assert "lower" in st.phases

    def test_distributed_run_blocks(self):
        result = Session(heat1d()).run(
            RunConfig(shape=(200,), steps=8, scheme="tess", b=4,
                      backend="distributed", ranks=4))
        st = result.stats
        assert st.comm is not None and st.cache is None
        assert st.comm.messages > 0

    @pytest.mark.parametrize("backend", ["serial", "compiled", "threaded",
                                         "baseline:pointwise"])
    def test_as_dict_is_uniform(self, backend):
        result = Session(heat2d()).run(
            RunConfig(shape=(32, 32), steps=4, scheme="tess", b=4,
                      backend=backend, verify=True))
        d = result.stats.as_dict()
        assert {"backend", "scheme", "engine", "shape", "steps", "phases",
                "schedule", "events", "comm", "cache",
                "plan_compiles", "cache_hits", "verified"} <= set(d)
        assert d["backend"] == backend
        assert d["verified"] is True

    def test_describe_mentions_counters(self):
        session = Session(heat2d(), cache=PlanCache())
        result = session.run(
            RunConfig(shape=(32, 32), steps=8, scheme="tess", b=4,
                      backend="compiled"))
        line = result.stats.describe()
        assert "plan_compiles=1" in line
        assert "backend=compiled" in line
