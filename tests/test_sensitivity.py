"""Tests for the cost-model sensitivity analysis module."""

import pytest

from repro.exec import EventLog, ResultCache, execute_many
from repro.exec.events import RUN_EVENT_TYPES
from repro.harness.experiment import RunConfig, run_experiment
from repro.harness.sensitivity import SweepPoint, granularity_preference, sweep_parameter

TINY = dict(scale="tiny", nprocs=4)


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


class TestSweepThroughExec:
    """A sweep point is a RunConfig with one cost override, run on the
    one sweep path."""

    SWEEP = dict(app="lu", field="fault_exception_us", multipliers=[1, 4],
                 protocol="sc", granularities=[64, 1024], **TINY)

    def test_points_equal_run_experiment(self):
        for p in sweep_parameter(**self.SWEEP):
            for g, speedup in p.speedups.items():
                cfg = RunConfig("lu", "sc", g, **TINY,
                                params=(("fault_exception_us", p.value),))
                assert speedup == run_experiment(cfg).speedup

    def test_second_sweep_served_from_cache(self, tmp_path):
        first = sweep_parameter(**self.SWEEP, cache=ResultCache(tmp_path))
        log = EventLog()
        again = sweep_parameter(**self.SWEEP, cache=ResultCache(tmp_path),
                                events=log)
        assert [p.speedups for p in again] == [p.speedups for p in first]
        assert not set(log.types()) & set(RUN_EVENT_TYPES)
        assert log.types().count("cache_hit") == 4
        # the x1 point is the plain matrix cell, cache entry included
        plain = RunConfig("lu", "sc", 64, **TINY)
        assert execute_many([plain], cache=ResultCache(tmp_path))[plain].cached

    def test_session_cache_is_the_default(self, tmp_path):
        """Without a ``cache`` argument a sweep takes the session's, as
        ``matrix.sweep`` does: a warm session re-simulates nothing."""
        from repro.harness import matrix

        matrix.configure(cache=ResultCache(tmp_path))
        try:
            sweep_parameter(**self.SWEEP)
            log = EventLog()
            sweep_parameter(**self.SWEEP, events=log)
        finally:
            matrix.configure(jobs=1, cache=None)
        assert not set(log.types()) & set(RUN_EVENT_TYPES)
        assert log.types().count("cache_hit") == 4

    def test_failed_cell_raises_naming_its_label(self):
        with pytest.raises(RuntimeError, match="lu/sc-64/polling/p4/"
                           "fault_exception_us=20: SimulationError"):
            sweep_parameter(**{**self.SWEEP, "multipliers": [4]},
                            max_events=50)

    @pytest.mark.parametrize("field", ["n_nodes", "granularity"])
    def test_config_fields_are_not_cost_overrides(self, field):
        with pytest.raises(ValueError):
            sweep_parameter("lu", field, [2], granularities=[1024], **TINY)
