"""Tests for the RegionSchedule substrate."""

import numpy as np
import pytest

from repro.runtime.schedule import (
    RegionAction,
    RegionSchedule,
    ScheduledTask,
    _execute_schedule,
    schedule_stats,
    verify_schedule,
)
from repro.stencils import Grid, heat1d, heat2d


class TestRegionAction:
    def test_points(self):
        assert RegionAction(0, ((0, 4), (1, 3))).points == 8
        assert RegionAction(0, ((2, 2),)).points == 0


class TestScheduledTask:
    def test_points_and_time_range(self):
        t = ScheduledTask(group=0, actions=[
            RegionAction(2, ((0, 3),)), RegionAction(3, ((1, 2),)),
        ])
        assert t.points == 4
        assert t.time_range == (2, 4)

    def test_empty_task(self):
        t = ScheduledTask(group=0, actions=[])
        assert t.points == 0
        assert t.time_range == (0, 0)
        assert t.bounding_box() is None
        assert t.footprint_points() == 0

    def test_bounding_box_union(self):
        t = ScheduledTask(group=0, actions=[
            RegionAction(0, ((2, 5), (0, 1))),
            RegionAction(1, ((0, 3), (4, 6))),
        ])
        assert t.bounding_box() == ((0, 5), (0, 6))
        assert t.footprint_points() == 30


class TestRegionSchedule:
    def test_groups_and_num_groups(self):
        s = RegionSchedule("x", (10,), 4)
        s.add(0, [RegionAction(0, ((0, 10),))])
        s.add(2, [RegionAction(1, ((0, 10),))])
        assert s.num_groups == 3
        assert sorted(s.groups()) == [0, 2]

    def test_validate_structure_catches_bad_time(self):
        s = RegionSchedule("x", (10,), 2)
        s.add(0, [RegionAction(5, ((0, 10),))])
        with pytest.raises(ValueError):
            s.validate_structure()

    def test_validate_structure_catches_bad_rank(self):
        s = RegionSchedule("x", (10,), 2)
        s.add(0, [RegionAction(0, ((0, 10), (0, 1)))])
        with pytest.raises(ValueError):
            s.validate_structure()

    def test_validate_structure_catches_negative_group(self):
        s = RegionSchedule("x", (10,), 2)
        s.add(-1, [RegionAction(0, ((0, 10),))])
        with pytest.raises(ValueError):
            s.validate_structure()


class TestExecuteSchedule:
    def test_runs_in_group_order(self):
        spec = heat1d()
        g = Grid(spec, (8,), seed=0)
        s = RegionSchedule("manual", (8,), 2)
        # deliberately add groups out of order: execution sorts them
        s.add(1, [RegionAction(1, ((0, 8),))])
        s.add(0, [RegionAction(0, ((0, 8),))])
        out = _execute_schedule(spec, g, s)
        g2 = Grid(spec, (8,), seed=0)
        from repro.stencils import reference_sweep
        ref = reference_sweep(spec, g2, 2)
        assert np.allclose(out, ref)

    def test_verify_is_bit_exact(self, monkeypatch):
        import repro.runtime.schedule as schedule_mod

        spec = heat1d()
        s = RegionSchedule("manual", (8,), 2)
        s.add(0, [RegionAction(0, ((0, 8),))])
        s.add(1, [RegionAction(1, ((0, 8),))])
        assert verify_schedule(spec, s)
        real = schedule_mod._execute_schedule

        def nudged(*args, **kwargs):
            out = real(*args, **kwargs)
            out[4] = np.nextafter(out[4], np.inf)  # one ulp
            return out

        monkeypatch.setattr(schedule_mod, "_execute_schedule", nudged)
        assert not verify_schedule(spec, s)

    def test_rejects_periodic(self):
        spec = heat1d("periodic")
        g = Grid(spec, (8,), seed=0)
        s = RegionSchedule("x", (8,), 1)
        with pytest.raises(ValueError):
            _execute_schedule(spec, g, s)

    def test_rejects_shape_mismatch(self):
        spec = heat1d()
        g = Grid(spec, (9,), seed=0)
        s = RegionSchedule("x", (8,), 1)
        with pytest.raises(ValueError):
            _execute_schedule(spec, g, s)


class TestStats:
    def test_stats_fields(self):
        spec = heat2d()
        s = RegionSchedule("x", (4, 4), 2)
        s.add(0, [RegionAction(0, ((0, 4), (0, 4)))])
        s.add(1, [RegionAction(1, ((0, 4), (0, 4)))])
        st = schedule_stats(s)
        assert st["tasks"] == 2
        assert st["groups"] == 2
        assert st["total_point_updates"] == 32
        assert st["required_point_updates"] == 32
        assert st["redundancy"] == 0.0
        assert st["max_group_width"] == 1
