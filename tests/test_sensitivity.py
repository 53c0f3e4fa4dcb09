"""Tests for the cost-model sensitivity analysis module."""

import pytest

from repro.harness.sensitivity import SweepPoint, granularity_preference, sweep_parameter


class TestSweepPoint:
    def test_best_granularity(self):
        p = SweepPoint("f", 1.0, 5.0, {64: 2.0, 4096: 3.0})
        assert p.best_granularity == 4096
        assert p.ratio(4096, 64) == pytest.approx(1.5)


class TestSweepParameter:
    def test_non_numeric_field_rejected(self):
        with pytest.raises(TypeError):
            sweep_parameter("lu", "mechanism", [1, 2], scale="tiny", nprocs=4)

    def test_sweep_runs_and_scales_value(self):
        points = sweep_parameter(
            "lu", "fault_exception_us", [1, 10],
            protocol="sc", granularities=[1024], scale="tiny", nprocs=4,
        )
        assert len(points) == 2
        assert points[0].value == pytest.approx(5.0)
        assert points[1].value == pytest.approx(50.0)
        for p in points:
            assert p.speedups[1024] > 0
        # Costlier faults cannot make the run faster.
        assert points[1].speedups[1024] <= points[0].speedups[1024] + 1e-9

    def test_granularity_preference_vector(self):
        points = [
            SweepPoint("f", 1.0, 1.0, {64: 2.0, 4096: 2.0}),
            SweepPoint("f", 2.0, 2.0, {64: 1.0, 4096: 3.0}),
        ]
        assert granularity_preference(points, 64, 4096) == [1.0, 3.0]
