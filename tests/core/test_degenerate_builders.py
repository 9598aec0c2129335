"""Degenerate inputs: every builder returns a valid (possibly empty)
schedule instead of crashing.

Covered corners: ``steps=0``, 1-cell axes, ``b`` larger than an axis,
and empty interiors (a 0-cell axis).  "Valid" is checked three ways:
``validate_structure()`` passes, the sanitizer reports clean, and —
when the interior is non-empty — the schedule covers exactly
``interior × steps`` point updates (redundant schemes: at least that).
"""

import numpy as np
import pytest

from repro import get_stencil
from repro.baselines import (
    diamond_schedule,
    hexagonal_schedule,
    mwd_schedule,
    naive_schedule,
    overlapped_schedule,
    skewed_schedule,
    spatial_schedule,
    trapezoid_schedule,
)
from repro.api import RunConfig, ScheduleBuilder
from repro.cli import SCHEMES
from repro.core.schedules import tess_schedule
from repro.runtime import sanitize_schedule, verify_schedule

pytestmark = pytest.mark.sanitizer


def _build_schedule(spec, shape, steps, scheme, b):
    cfg = RunConfig(scheme=scheme, shape=tuple(shape), steps=steps, b=b)
    return ScheduleBuilder().build(spec, cfg.normalized()).schedule

CASES = [
    # (label, kernel, shape, steps, b)
    ("steps-0", "heat1d", (40,), 0, 4),
    ("one-cell-axis", "heat1d", (1,), 4, 4),
    ("b-exceeds-axis", "heat1d", (6,), 8, 8),
    ("empty-interior", "heat1d", (0,), 4, 4),
    ("2d-one-cell", "heat2d", (1, 16), 4, 4),
    ("2d-empty", "heat2d", (0, 16), 4, 4),
    ("2d-steps-0", "heat2d", (16, 16), 0, 4),
]


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("label,kernel,shape,steps,b",
                         CASES, ids=[c[0] for c in CASES])
def test_degenerate_inputs_build_valid_schedules(label, kernel, shape,
                                                 steps, b, scheme):
    spec = get_stencil(kernel)
    sched = _build_schedule(spec, shape, steps, scheme, b)
    sched.validate_structure()
    report = sanitize_schedule(spec, sched)
    assert report.ok, report.describe()
    interior = int(np.prod(shape))
    required = interior * steps
    if required == 0:
        assert sched.total_points() == 0
        assert not any(t.actions for t in sched.tasks)
    elif sched.redundant:
        assert sched.total_points() >= required
    else:
        assert sched.total_points() == required


@pytest.mark.parametrize("label,kernel,shape,steps,b",
                         [c for c in CASES if 0 not in c[2] and c[3] > 0],
                         ids=[c[0] for c in CASES
                              if 0 not in c[2] and c[3] > 0])
def test_degenerate_schedules_still_verify(label, kernel, shape, steps, b):
    """Non-empty degenerate schedules also execute correctly."""
    spec = get_stencil(kernel)
    for scheme in ("naive", "tess", "diamond"):
        sched = _build_schedule(spec, shape, steps, scheme, b)
        assert verify_schedule(spec, sched), (scheme, label)


def test_direct_builder_calls_with_empty_interior():
    """The library builders (not just the CLI path) handle 0-cell axes."""
    s1 = get_stencil("heat1d")
    s2 = get_stencil("heat2d")
    builders = [
        (naive_schedule, (s1, (0,), 4)),
        (spatial_schedule, (s1, (0,), 4, (8,))),
        (skewed_schedule, (s1, (0,), 4, 8)),
        (trapezoid_schedule, (s1, (0,), 4)),
        (overlapped_schedule, (s1, (0,), 4, (8,), 2)),
        (diamond_schedule, (s1, (0,), 4, 4)),
        (mwd_schedule, (s1, (0,), 4, 4)),
        (hexagonal_schedule, (s2, (0, 8), 4, 4, 4)),
        (tess_schedule, (s1, (0,), None, 4)),  # lattice unused when empty
    ]
    for fn, args in builders:
        sched = fn(*args)
        sched.validate_structure()
        assert not any(t.actions for t in sched.tasks), fn.__name__


def test_negative_steps_still_rejected():
    """Hardening must not swallow genuinely invalid arguments."""
    spec = get_stencil("heat1d")
    with pytest.raises(ValueError):
        naive_schedule(spec, (40,), -1)
    with pytest.raises(ValueError):
        diamond_schedule(spec, (40,), 4, -1)
