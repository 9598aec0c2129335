"""The plan key a run derives from its RunConfig is the slow path's key.

``Session.run`` looks a compiled plan up before it builds anything, by a
key derived from the configuration alone
(:meth:`~repro.api.ScheduleBuilder.plan_key`).  That is only sound if

* configurations with equal keys build equal schedules (same groups,
  tasks and actions), so a hit may run the plan of another config;
* the key derived before the build equals the key the compile path
  stores (:func:`~repro.engine.plan_key` of the built schedule) — one
  key space, one entry per plan;
* a warm hit returns the interior and ``RunStats.schedule`` of a run
  that built its schedule, byte for byte.

Drawn over every scheme of :data:`~repro.api.builder.SCHEMES`, the
parameters that feed the key (``b``, ``core_widths``, ``uncut_dims``,
``tile``, legal ``mutations``), one staged system and the trivial
1-stage wrapper of a plain spec.

Tier-1 runs a small example budget; the engine CI job runs a larger one
with ``--hypothesis-profile=engine-deep`` (registered in the root
``conftest.py``).
"""

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from repro import Grid, get_stencil
from repro.api import RunConfig, Session
from repro.api.builder import SCHEMES, ScheduleBuilder
from repro.engine import PlanCache, plan_key
from repro.runtime.mutations import MUTATION_KINDS, apply_mutation
from repro.stencils.staged import LinearStage, canonical_spec, make_staged

pytestmark = pytest.mark.engine

EXAMPLES = (settings().max_examples
            if settings.get_current_profile_name() == "engine-deep" else 30)

PROPERTY = settings(max_examples=EXAMPLES, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow,
                                           HealthCheck.filter_too_much])


def _wrapped_heat2d():
    """heat2d as a trivial 1-stage staged spec (unwrapped by Session)."""
    op = get_stencil("heat2d").operator
    taps = [("u", off, c, False) for off, c in zip(op.offsets, op.coeffs)]
    return make_staged("heat2d", (LinearStage("only", "u", taps),))


SPECS = {
    "heat1d": lambda: get_stencil("heat1d"),
    "heat2d": lambda: get_stencil("heat2d"),
    "life": lambda: get_stencil("life"),
    "fdtd2d": lambda: get_stencil("fdtd2d"),  # staged system
    "heat2d-wrapped": _wrapped_heat2d,
}


@st.composite
def key_params(draw, ndim):
    """The RunConfig fields that feed the plan key, mutations aside."""
    return dict(
        scheme=draw(st.sampled_from(SCHEMES)),
        steps=draw(st.integers(0, 7)),
        b=draw(st.integers(1, 5)),
        core_widths=draw(st.none() | st.tuples(
            *[st.integers(1, 6)] * ndim)),
        uncut_dims=draw(st.sampled_from(
            [()] + [(d,) for d in range(ndim)])),
        tile=draw(st.none() | st.tuples(*[st.integers(3, 12)] * ndim)),
    )


def _shape(draw, ndim):
    if ndim == 1:
        return (draw(st.integers(16, 90)),)
    return (draw(st.integers(10, 28)), draw(st.integers(10, 28)))


def _build(spec, config, shape):
    try:
        return ScheduleBuilder().build(spec, config, shape)
    except ValueError:
        return None  # an illegal tiling for this shape


def _legal_mutations(draw, spec, config, shape):
    """Zero or one mutation that applies to the clean schedule."""
    built = _build(spec, config, shape)
    if built is None or not built.schedule.tasks or not draw(st.booleans()):
        return ()
    tasks = built.schedule.tasks
    task = tasks[draw(st.integers(0, len(tasks) - 1))]
    index = [t for t in tasks if t.group == task.group].index(task)
    kind = draw(st.sampled_from(MUTATION_KINDS))
    mutation = (f"{kind}@{task.group}" if kind == "merge-groups"
                else f"{kind}@{task.group}/{index}")
    try:
        apply_mutation(built.schedule, mutation)
    except ValueError:
        return ()
    return (mutation,)


@st.composite
def cases(draw):
    """(spec, config, shape, sibling config) with the sibling sharing a
    random subset of the key fields."""
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]()
    ndim = spec.ndim
    shape = _shape(draw, ndim)
    params = draw(key_params(ndim))
    config = RunConfig(shape=shape, backend="compiled", **params)
    config = replace(config, mutations=_legal_mutations(
        draw, spec, config.normalized(), shape)).normalized()
    other = draw(key_params(ndim))
    keep = {f: draw(st.booleans()) for f in params}
    sibling = replace(
        config,
        seed=draw(st.integers(0, 3)),
        mutations=config.mutations if draw(st.booleans()) else (),
        **{f: other[f] for f in params if not keep[f]},
    ).normalized()
    return spec, config, shape, sibling


@PROPERTY
@given(cases())
def test_config_key_equals_stored_key_and_builds_equal(case):
    spec, config, shape, sibling = case
    builder = ScheduleBuilder()
    built = _build(spec, config, shape)
    assume(built is not None)
    key = builder.plan_key(spec, config, shape)
    assert key == plan_key(spec, built.schedule, built.params)
    plain = canonical_spec(spec)
    if plain is not spec:  # the trivial wrapper keys and builds as its spec
        assert builder.plan_key(plain, config, shape) == key
        assert _build(plain, config, shape).schedule == built.schedule
    sib_key = builder.plan_key(spec, sibling, shape)
    event("sibling key equal" if sib_key == key else "sibling key differs")
    if sib_key == key:
        sib_built = _build(spec, sibling, shape)
        assert sib_built is not None
        assert sib_built.schedule == built.schedule


@PROPERTY
@given(cases())
def test_warm_hit_matches_build_path_bytes(case):
    spec, config, shape, _ = case
    assume(_build(spec, config, shape) is not None)
    cache = PlanCache()
    session = Session(spec, cache=cache)

    def once():
        grid = Grid(session.spec, shape, init="random", seed=7)
        return session.run(config, grid=grid)

    try:
        cold = once()
    except Exception as exc:  # a refusal or a broken mutated plan
        event(f"raised {type(exc).__name__}")
        with pytest.raises(type(exc)):
            once()
        return
    event(f"ran {config.scheme}")
    warm = once()

    assert "build" in cold.stats.phases
    assert "build" not in warm.stats.phases
    assert (cold.stats.plan_compiles, warm.stats.cache_hits) == (1, 1)
    assert warm.stats.plan_compiles == 0
    assert warm.interior.dtype == cold.interior.dtype
    assert warm.interior.tobytes() == cold.interior.tobytes()
    assert warm.stats.schedule == cold.stats.schedule
    # the compile path stored the plan under the config-derived key
    key = session.builder.plan_key(session.spec, config, shape)
    assert len(cache) == 1
    assert cache.lookup(key) is warm.plan
