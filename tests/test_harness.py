"""Tests for the experiment harness, tables, figures, and CLI."""

import pytest

from repro.cluster.config import GRANULARITIES
from repro.harness.calibration import (
    max_microbench_error,
    max_table1_error,
    microbenchmark_rows,
    table1_rows,
)
from repro.harness.experiment import RunConfig, run_experiment
from repro.harness.matrix import SpeedupMatrix, cached_run, clear_cache, sweep
from repro.harness.tables import (
    fault_table,
    fmt_table,
    hm_table_text,
    speedup_table,
    traffic_table,
)
from repro.harness.figures import figure1, mechanism_comparison, speedup_figure


class TestRunConfig:
    def test_label(self):
        cfg = RunConfig(app="lu", protocol="sc", granularity=64)
        assert "lu" in cfg.label() and "sc-64" in cfg.label()

    def test_hashable_for_caching(self):
        a = RunConfig(app="lu", protocol="sc", granularity=64)
        b = RunConfig(app="lu", protocol="sc", granularity=64)
        assert a == b and hash(a) == hash(b)


class TestRunExperiment:
    def test_tiny_run_produces_stats(self):
        r = run_experiment(RunConfig(app="lu", protocol="hlrc",
                                     granularity=1024, scale="tiny", nprocs=4))
        assert r.stats.parallel_time_us > 0
        assert r.stats.sequential_time_us > 0
        assert r.speedup > 0

    def test_mechanism_flag_respected(self):
        from repro.cluster.config import NotificationMechanism

        r = run_experiment(RunConfig(app="lu", protocol="sc", granularity=1024,
                                     mechanism="interrupt", scale="tiny",
                                     nprocs=4))
        assert r.machine.params.mechanism is NotificationMechanism.INTERRUPT

    def test_cache_reuses_results(self):
        clear_cache()
        cfg = RunConfig(app="fft", protocol="sc", granularity=1024,
                        scale="tiny", nprocs=4)
        a = cached_run(cfg)
        b = cached_run(cfg)
        assert a is b
        clear_cache()

    def test_run_cells_use_the_session_cache(self, tmp_path):
        """Cells run outside ``sweep`` take the session's disk cache: a
        second session (fresh memo, same cache dir) re-simulates
        nothing, and a metadata-only observation survives the cache."""
        from repro.exec import EventLog, ResultCache
        from repro.exec.events import RUN_EVENT_TYPES
        from repro.harness import matrix

        cfgs = [RunConfig("lu", proto, 1024, scale="tiny", nprocs=4)
                for proto in ("sc", "dc")]
        matrix.configure(cache=ResultCache(tmp_path))
        try:
            clear_cache()
            first = matrix.run_cells(cfgs)
            clear_cache()
            log = EventLog()
            again = matrix.run_cells(cfgs, events=log)
        finally:
            matrix.configure(jobs=1, cache=None)
            clear_cache()
        assert not set(log.types()) & set(RUN_EVENT_TYPES)
        assert all(rec.cached for rec in again.values())
        for cfg in cfgs:
            assert again[cfg].metadata == first[cfg].metadata
        dc = again[cfgs[1]].metadata
        assert dc["counters"]["delayed_actions"] >= 0
        assert dc["memory"]["replication_factor"] > 0


class TestSweep:
    @pytest.fixture(scope="class")
    def results(self):
        clear_cache()
        out = sweep(["lu"], protocols=["sc", "hlrc"], granularities=[64, 4096],
                    scale="tiny", nprocs=4)
        yield out
        clear_cache()

    def test_matrix_complete(self, results):
        assert len(results) == 4

    def test_speedup_matrix_accessors(self, results):
        m = SpeedupMatrix(results)
        assert m.speedup("lu", "sc", 64) > 0
        proto, g, sp = m.best_combination("lu")
        assert proto in ("sc", "hlrc") and g in (64, 4096)
        with pytest.raises(KeyError):
            m.best_combination("nope")
        with pytest.raises(KeyError):
            m.speedup("lu", "sc", 256)

    def test_table_renderers_produce_text(self, results):
        txt = speedup_table(results, ["lu"], "t")
        assert "SC" in txt and "HLRC" in txt
        txt = fault_table(results, "lu", "t")
        assert "Read" in txt and "Write" in txt
        txt = traffic_table(results, "lu", "t")
        assert "MB" in txt
        fig = speedup_figure(results, "lu", "panel")
        assert "#" in fig
        assert "lu" in figure1(results, ["lu"])
        cmp = mechanism_comparison(results, results, "lu")
        assert "int/poll" in cmp

    def test_missing_cells_render_dash(self, results):
        txt = fault_table(results, "lu", "t")
        assert "-" in txt


class TestTableFormatting:
    def test_fmt_table_alignment(self):
        out = fmt_table(["a", "bb"], [[1, 22], [333, 4]], "title")
        lines = out.splitlines()
        assert lines[0] == "title"
        widths = {len(l) for l in lines[1:]}
        assert len(widths) == 1  # all rows equal width

    def test_hm_table_text(self):
        hm = {
            "sc": {"64": 0.5, "4096": 0.2, "g_best": 0.9},
            "p_best": {"64": 0.7, "g_best": 1.0},
        }
        txt = hm_table_text(hm, "Table 16")
        assert "0.500" in txt and "1.000" in txt


class TestCalibration:
    def test_table1_within_5_percent(self):
        assert max_table1_error() < 0.05

    def test_microbench_within_10_percent(self):
        assert max_microbench_error() < 0.10

    def test_row_structures(self):
        assert len(table1_rows()) == 8
        assert len(microbenchmark_rows()) == 5


class TestCLI:
    def test_calibrate_command(self, capsys):
        from repro.harness.cli import main

        assert main(["calibrate"]) == 0
        out = capsys.readouterr().out
        assert "Table 1 calibration" in out
        assert "microbenchmark" in out

    def test_run_command(self, capsys):
        from repro.harness.cli import main

        assert main(["run", "lu", "hlrc", "1024", "--scale", "tiny",
                     "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_faults_command(self, capsys):
        from repro.harness.cli import main

        assert main(["faults", "fft", "--scale", "tiny", "--nprocs", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fault" in out

    def test_bad_app_rejected(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["run", "nonesuch", "sc", "64"])
