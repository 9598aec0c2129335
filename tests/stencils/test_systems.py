"""The four shipped systems: bit-identity against per-stage oracles.

``reference_step`` drives a staged spec with an independent full-grid,
stage-at-a-time traversal (no tiling, no scratch, no region clipping) —
a genuinely different code path from the composed macro-step operator
the engine executes.  Every supported backend x scheme cell must match
it bit-for-bit (``np.array_equal``): the staged pipeline performs the
same per-point arithmetic, only the traversal differs.
"""

import numpy as np
import pytest

from repro.api import RunConfig, Session, run
from repro.stencils import Grid, get_stencil, reference_sweep
from repro.stencils.systems import (
    SYSTEM_ALIASES,
    get_system,
    system_names,
)

pytestmark = pytest.mark.stages

SYSTEMS = ("fdtd1d", "fdtd2d", "shallow_water", "gray_scott")
#: grid edge deliberately not a multiple of b=4: stretched blocks
SIZES = {1: (50,), 2: (22, 26)}
STEPS_CASES = (0, 6)
BACKENDS = ("serial", "compiled", "threaded", "batched")
SCHEMES = ("naive", "tess", "diamond", "mwd")


@pytest.fixture(scope="module")
def references():
    refs = {}
    for name in SYSTEMS:
        spec = get_system(name)
        shape = SIZES[spec.ndim]
        for steps in STEPS_CASES:
            refs[name, steps] = reference_sweep(
                spec, Grid(spec, shape, seed=0), steps
            )
    return refs


@pytest.mark.parametrize("steps", STEPS_CASES)
@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("system", SYSTEMS)
def test_system_matches_oracle(system, backend, scheme, steps, references):
    spec = get_system(system)
    config = RunConfig(shape=SIZES[spec.ndim], steps=steps, scheme=scheme,
                       b=4, backend=backend, threads=2)
    result = run(spec, config)
    assert np.array_equal(references[system, steps], result.interior), (
        f"{system}: {backend} x {scheme} (steps={steps}) diverged from "
        f"the per-stage oracle"
    )
    if steps:
        assert set(result.stats.stages) == set(spec.fields)


@pytest.mark.parametrize("system", SYSTEMS)
def test_run_many_members_match_oracle(system):
    spec = get_system(system)
    shape = SIZES[spec.ndim]
    results = Session(spec).run_many(
        RunConfig(shape=shape, steps=5, scheme="tess", b=4, batch=3,
                  seed=7)
    )
    assert len(results) == 3
    for i, result in enumerate(results):
        ref = reference_sweep(spec, Grid(spec, shape, seed=7 + i), 5)
        assert np.array_equal(ref, result.interior), (
            f"{system}: batch member {i} diverged"
        )


def test_registry_and_aliases():
    assert sorted(system_names()) == sorted(SYSTEMS)
    for alias, target in SYSTEM_ALIASES.items():
        assert get_system(alias).name == target
    assert get_system("fdtd2d-te").name == "fdtd2d"
    with pytest.raises(KeyError, match="unknown system"):
        get_system("navier_stokes")


def test_get_stencil_resolves_systems():
    spec = get_stencil("gray-scott")
    assert spec.is_staged
    assert spec.name == "gray_scott"
    with pytest.raises(ValueError, match="[Dd]irichlet"):
        get_stencil("fdtd2d", boundary="periodic")
    with pytest.raises(KeyError):
        get_stencil("no_such_kernel")
