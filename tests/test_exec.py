"""Tests for the repro.exec execution engine: serialization, the
on-disk cache, the process-pool scheduler, and the event log."""

import json

import pytest

from repro.cluster.config import MachineParams
from repro.cluster.machine import Machine
from repro.exec import (
    EventLog,
    ResultCache,
    RunRecord,
    config_from_dict,
    config_to_dict,
    execute_many,
    read_events,
)
from repro.exec.events import RUN_EVENT_TYPES
from repro.harness.experiment import RunConfig, run_experiment
from repro.harness.matrix import SpeedupMatrix, clear_cache, sweep
from repro.sim.engine import SimulationError
from repro.stats.counters import NodeStats, Stats

TINY = dict(scale="tiny", nprocs=4)


def tiny_cfg(app="lu", protocol="sc", granularity=1024, **kw):
    return RunConfig(app=app, protocol=protocol, granularity=granularity,
                     **{**TINY, **kw})


@pytest.fixture(scope="module")
def tiny_stats():
    return run_experiment(tiny_cfg()).stats


class TestStatsSerialization:
    def test_node_stats_round_trip(self):
        ns = NodeStats(3, read_faults=7, compute_us=1.5)
        assert NodeStats.from_dict(ns.to_dict()) == ns

    def test_stats_round_trip_summary(self, tiny_stats):
        clone = Stats.from_dict(tiny_stats.to_dict())
        assert clone.summary() == tiny_stats.summary()

    def test_stats_round_trip_counters(self, tiny_stats):
        clone = Stats.from_dict(tiny_stats.to_dict())
        assert clone.msg_count == tiny_stats.msg_count
        assert clone.msg_bytes == tiny_stats.msg_bytes
        assert [n.to_dict() for n in clone.nodes] == [
            n.to_dict() for n in tiny_stats.nodes
        ]

    def test_stats_dict_is_json_safe(self, tiny_stats):
        json.dumps(tiny_stats.to_dict())

    def test_forward_compatible_with_new_counters(self, tiny_stats):
        d = tiny_stats.to_dict()
        d.pop("writebacks")  # older dump missing a counter
        clone = Stats.from_dict(d)
        assert clone.writebacks == 0


class TestRunRecord:
    def test_config_round_trip(self):
        cfg = tiny_cfg(mechanism="interrupt")
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_ok_record_round_trip(self, tiny_stats):
        rec = RunRecord.from_stats(tiny_cfg(), tiny_stats, duration_s=1.25)
        clone = RunRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
        assert clone.config == rec.config
        assert clone.ok and clone.summary() == rec.summary()
        assert clone.speedup == rec.speedup
        assert clone.duration_s == 1.25

    def test_executed_record_carries_metadata(self):
        from repro.stats.counters import protocol_metadata

        cfg = tiny_cfg()
        rec = execute_many([cfg])[cfg]
        want = protocol_metadata(run_experiment(cfg).machine).to_dict()
        assert rec.metadata == want and want["blocks"] > 0
        clone = RunRecord.from_json_dict(json.loads(json.dumps(rec.to_json_dict())))
        assert clone.metadata == want
        failed = execute_many([cfg], max_events=50)[cfg]
        assert not failed.ok and failed.metadata is None

    def test_failed_record_round_trip(self):
        rec = RunRecord.from_failure(tiny_cfg(), SimulationError("boom"))
        clone = RunRecord.from_json_dict(rec.to_json_dict())
        assert not clone.ok
        assert clone.error_type == "SimulationError"
        assert clone.stats is None and clone.speedup == 0.0
        assert clone.summary() == {}


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, tiny_stats):
        cache = ResultCache(tmp_path, fingerprint="fp-a")
        cfg = tiny_cfg()
        assert cache.get(cfg) is None
        assert cache.put(RunRecord.from_stats(cfg, tiny_stats))
        hit = cache.get(cfg)
        assert hit is not None and hit.cached
        assert hit.summary() == tiny_stats.summary()

    def test_fingerprint_change_invalidates(self, tmp_path, tiny_stats):
        cfg = tiny_cfg()
        ResultCache(tmp_path, fingerprint="fp-a").put(
            RunRecord.from_stats(cfg, tiny_stats)
        )
        assert ResultCache(tmp_path, fingerprint="fp-b").get(cfg) is None
        assert ResultCache(tmp_path, fingerprint="fp-a").get(cfg) is not None

    def test_distinct_configs_distinct_keys(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        assert cache.key(tiny_cfg()) != cache.key(tiny_cfg(granularity=64))
        assert cache.key(tiny_cfg()) != cache.key(
            tiny_cfg(), extra={"max_events": 10}
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path, tiny_stats):
        cache = ResultCache(tmp_path, fingerprint="fp")
        cfg = tiny_cfg()
        cache.put(RunRecord.from_stats(cfg, tiny_stats))
        cache._path(cfg).write_text("{not json")
        assert cache.get(cfg) is None

    def test_deterministic_failures_cached_transient_not(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        sim_fail = RunRecord.from_failure(tiny_cfg(), SimulationError("budget"))
        assert cache.put(sim_fail)
        timeout_fail = RunRecord.from_failure(
            tiny_cfg(granularity=64), TimeoutError("slow host")
        )
        assert not cache.put(timeout_fail)
        assert cache.get(tiny_cfg(granularity=64)) is None

    def test_clear_and_len(self, tmp_path, tiny_stats):
        cache = ResultCache(tmp_path, fingerprint="fp")
        cache.put(RunRecord.from_stats(tiny_cfg(), tiny_stats))
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestEventLog:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        with EventLog(path) as log:
            log.emit("run_started", config={"app": "lu"}, attempt=1)
            log.emit("run_finished", duration_s=0.5)
        events = read_events(path)
        assert [e["type"] for e in events] == ["run_started", "run_finished"]
        assert all("ts" in e for e in events)

    def test_in_memory_log(self):
        log = EventLog()
        log.emit("cache_hit")
        assert log.types() == ["cache_hit"]


class TestExecuteMany:
    CONFIGS = [
        tiny_cfg(protocol=p, granularity=g)
        for p in ("sc", "hlrc")
        for g in (64, 4096)
    ]

    def test_failed_cell_does_not_abort_sweep(self):
        log = EventLog()
        records = execute_many(self.CONFIGS, max_events=50, events=log)
        # every cell blows the 50-event budget but the sweep completes
        assert len(records) == len(self.CONFIGS)
        assert all(not r.ok for r in records.values())
        assert all(r.error_type == "SimulationError" for r in records.values())
        assert log.types().count("run_failed") == len(self.CONFIGS)

    def test_timeout_reported_as_failed_record(self):
        cfg = tiny_cfg(app="water-nsquared", granularity=64)
        rec = execute_many([cfg], timeout=1e-4)[cfg]
        assert not rec.ok and rec.error_type == "CellTimeout"

    def test_parallel_matches_serial_bit_identical(self):
        serial = execute_many(self.CONFIGS, jobs=1)
        parallel = execute_many(self.CONFIGS, jobs=4)
        assert list(serial) == list(parallel)
        for cfg in self.CONFIGS:
            assert serial[cfg].summary() == parallel[cfg].summary()

    def test_second_sweep_served_entirely_from_disk(self, tmp_path):
        log1 = EventLog()
        execute_many(self.CONFIGS, jobs=2, cache=ResultCache(tmp_path), events=log1)
        assert log1.types().count("run_finished") == len(self.CONFIGS)
        # fresh cache object = what a fresh interpreter would build
        log2 = EventLog(str(tmp_path / "events.jsonl"))
        records = execute_many(
            self.CONFIGS, jobs=2, cache=ResultCache(tmp_path), events=log2
        )
        assert all(r.cached for r in records.values())
        logged = read_events(str(tmp_path / "events.jsonl"))
        types = {e["type"] for e in logged}
        assert not types & set(RUN_EVENT_TYPES)
        assert sum(1 for e in logged if e["type"] == "cache_hit") == len(self.CONFIGS)

    def test_cached_summaries_match_fresh(self, tmp_path):
        cache = ResultCache(tmp_path)
        fresh = execute_many(self.CONFIGS, cache=cache)
        cached = execute_many(self.CONFIGS, cache=ResultCache(tmp_path))
        for cfg in self.CONFIGS:
            assert cached[cfg].summary() == fresh[cfg].summary()

    def test_duplicate_configs_collapse(self):
        cfg = tiny_cfg()
        records = execute_many([cfg, cfg, cfg])
        assert len(records) == 1


class TestSweepIntegration:
    def test_sweep_jobs_matches_serial(self):
        kwargs = dict(
            protocols=["sc", "hlrc"], granularities=[64, 4096],
            scale="tiny", nprocs=4,
        )
        clear_cache()
        serial = sweep(["lu"], **kwargs)
        clear_cache()
        parallel = sweep(["lu"], jobs=4, **kwargs)
        clear_cache()
        assert {c: r.summary() for c, r in serial.items()} == {
            c: r.summary() for c, r in parallel.items()
        }

    def test_sweep_uses_disk_cache(self, tmp_path):
        kwargs = dict(
            protocols=["sc"], granularities=[1024], scale="tiny", nprocs=4
        )
        clear_cache()
        sweep(["fft"], cache=ResultCache(tmp_path), **kwargs)
        clear_cache()
        log = EventLog()
        out = sweep(["fft"], cache=ResultCache(tmp_path), events=log, **kwargs)
        clear_cache()
        assert all(r.cached for r in out.values())
        assert "cache_hit" in log.types()

    def test_speedup_matrix_skips_failed_records(self):
        cfg_ok = tiny_cfg()
        ok = execute_many([cfg_ok])[cfg_ok]
        cfg_bad = tiny_cfg(granularity=64)
        bad = execute_many([cfg_bad], max_events=50)[cfg_bad]
        m = SpeedupMatrix({cfg_ok: ok, cfg_bad: bad})
        assert m.speedup("lu", "sc", 1024) > 0
        with pytest.raises(KeyError):
            m.speedup("lu", "sc", 64)
        assert ("lu", "sc", 64) not in m.speedups()
        assert [r.config for r in m.failed()] == [cfg_bad]
        assert m.best_combination("lu")[:2] == ("sc", 1024)


class TestFingerprintScoping:
    """The cache fingerprint covers simulation semantics only:
    measurement/presentation edits must not invalidate cached results."""

    def test_relevance_predicate(self):
        from repro.exec.cache import _fingerprint_relevant

        # semantics: in
        assert _fingerprint_relevant("core/hlrc.py")
        assert _fingerprint_relevant("net/myrinet.py")
        assert _fingerprint_relevant("harness/experiment.py")
        assert _fingerprint_relevant("harness/matrix.py")
        assert _fingerprint_relevant("exec/serialize.py")
        # measurement/presentation/static analysis: out
        assert not _fingerprint_relevant("perf/micros.py")
        assert not _fingerprint_relevant("harness/sensitivity.py")
        assert not _fingerprint_relevant("analyze/drf.py")
        assert not _fingerprint_relevant("analyze/cfg.py")
        assert not _fingerprint_relevant("harness/report.py")
        assert not _fingerprint_relevant("harness/tables.py")
        assert not _fingerprint_relevant("harness/figures.py")
        assert not _fingerprint_relevant("harness/cli.py")

    def test_perf_edit_keeps_keys_core_edit_invalidates(self, tmp_path):
        import shutil

        import repro
        from pathlib import Path

        from repro.exec.cache import _fingerprint_tree

        tree = tmp_path / "repro"
        shutil.copytree(Path(repro.__file__).parent, tree)
        before = _fingerprint_tree(tree)
        # Editing repro.perf leaves every cache key stable ...
        micros = tree / "perf" / "micros.py"
        micros.write_text(micros.read_text() + "\n# tuned threshold\n")
        assert _fingerprint_tree(tree) == before
        # ... as does editing the static analyzer ...
        drf = tree / "analyze" / "drf.py"
        drf.write_text(drf.read_text() + "\n# new ANA rule\n")
        assert _fingerprint_tree(tree) == before
        # ... while touching a protocol invalidates everything.
        hlrc = tree / "core" / "hlrc.py"
        hlrc.write_text(hlrc.read_text() + "\n# semantics change\n")
        assert _fingerprint_tree(tree) != before


class TestTimeoutDelivery:
    """The SIGALRM handler must never raise: a raise from a signal
    handler vanishes when it lands in a frame that discards exceptions
    (a GC callback, a ``__del__``) and escapes through unrelated code
    when it lands in exception-reporting machinery.  The handler only
    flags the timeout and poisons the active engine; the engine's own
    dispatch frame does the raising."""

    def test_handler_is_raise_free_and_sets_flag(self):
        import signal as _signal

        from repro.exec import pool

        pool._TIMED_OUT = False
        try:
            # No engine active: must not raise, must leave the flag.
            pool._alarm_handler(_signal.SIGALRM, None)
            assert pool._TIMED_OUT
        finally:
            pool._TIMED_OUT = False

    def test_poisoned_engine_raises_from_its_own_frame(self):
        from repro.exec.pool import CellTimeout
        from repro.sim.engine import Engine

        eng = Engine()
        ran = []
        eng.post(5.0, ran.append, "late")
        eng.interrupt(CellTimeout("per-run timeout expired"))
        with pytest.raises(CellTimeout):
            eng.run()
        # The poison sorts ahead of every pending event.
        assert ran == []

    def test_active_engine_registered_during_run(self):
        from repro.sim import engine as engine_mod
        from repro.sim.engine import Engine

        seen = []
        eng = Engine()
        eng.post(0.0, lambda: seen.append(engine_mod._ACTIVE))
        eng.run()
        assert seen == [eng]
        assert engine_mod._ACTIVE is None

    def test_handler_fire_mid_run_interrupts_the_simulation(self):
        import signal as _signal

        from repro.exec import pool
        from repro.sim.engine import Engine

        eng = Engine()
        ran = []

        def tick(k):
            if k == 2:
                # Stand-in for an asynchronous SIGALRM landing between
                # bytecodes of event k=2.
                pool._alarm_handler(_signal.SIGALRM, None)
            ran.append(k)
            eng.post(1.0, tick, k + 1)

        eng.post(0.0, tick, 0)
        try:
            with pytest.raises(pool.CellTimeout):
                eng.run()
        finally:
            pool._TIMED_OUT = False
        # Event 2 finished (the handler never raises mid-event); the
        # poison then beat event 3 to the dispatcher.
        assert ran == [0, 1, 2]

    def test_fire_outside_the_event_loop_still_fails_the_cell(self, monkeypatch):
        # A timeout whose every fire lands while no engine is
        # dispatching (setup, teardown) produces no exception at all --
        # _simulate_cell must convert the flag into a CellTimeout
        # record after the run returns.
        import signal as _signal

        import repro.harness.experiment as exp
        from repro.exec import pool

        class _FakeResult:
            stats = None
            check = None

        def fake_run_experiment(cfg, max_events=None, check=False):
            pool._alarm_handler(_signal.SIGALRM, None)
            return _FakeResult()

        monkeypatch.setattr(exp, "run_experiment", fake_run_experiment)
        rec = pool._simulate_cell(tiny_cfg(), timeout_s=60.0)
        assert not rec.ok and rec.error_type == "CellTimeout"
        assert pool._TIMED_OUT is False  # cleared on the way out


class TestTimeoutWorkerReset:
    """A CellTimeout fires at an arbitrary bytecode boundary; the
    worker must reset process-level memo state before its next cell."""

    def _timeout_cell(self):
        from repro.exec.pool import _simulate_cell

        cfg = tiny_cfg(app="water-nsquared", granularity=64)
        rec = _simulate_cell(cfg, timeout_s=1e-4)
        assert not rec.ok and rec.error_type == "CellTimeout"

    def test_timeout_resets_process_memos(self):
        import repro.exec.cache as cache_mod
        from repro.harness import matrix

        cache_mod._FINGERPRINT = "poisoned-by-interrupted-build"
        matrix._CACHE["sentinel"] = "stale"
        try:
            self._timeout_cell()
            assert cache_mod._FINGERPRINT is None
            assert matrix._CACHE == {}
        finally:
            cache_mod._FINGERPRINT = None
            matrix._CACHE.clear()

    def test_registered_reset_hook_runs(self):
        from repro.exec import pool

        calls = []
        pool.register_worker_reset(lambda: calls.append(1))
        try:
            self._timeout_cell()
            assert calls == [1]
        finally:
            pool._WORKER_RESETS.clear()

    def test_normal_cell_after_timeout_is_cache_identical(self, tmp_path):
        # The regression the reset exists for: a timed-out cell followed
        # by a normal cell in the same process must produce exactly the
        # record (and cache entry) a fresh process would.
        cache = ResultCache(tmp_path)
        cfg = tiny_cfg()
        fresh = execute_many([cfg], cache=cache)[cfg]
        assert fresh.ok
        key_fresh = cache.key(cfg)
        self._timeout_cell()
        again = execute_many([cfg], cache=ResultCache(tmp_path))[cfg]
        assert again.cached  # same key -> served from disk
        assert ResultCache(tmp_path).key(cfg) == key_fresh
        assert again.summary() == fresh.summary()


class TestMaxEventsPlumbing:
    def test_machine_accepts_max_events(self):
        m = Machine(MachineParams(n_nodes=2, granularity=1024), max_events=123)
        assert m.engine._max_events == 123

    def test_run_experiment_budget_raises(self):
        with pytest.raises(SimulationError):
            run_experiment(tiny_cfg(), max_events=50)
