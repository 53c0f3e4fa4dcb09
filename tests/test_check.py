"""Tests for repro.check: the data-race detector, the
protocol-invariant sanitizer, the execution-layer wiring, and the
simulator lint (tools/lint_sim.py)."""

import importlib.util
import random
from pathlib import Path

import numpy as np
import pytest

from repro import Machine, MachineParams, run_program
from repro.apps import APP_NAMES
from repro.check import CheckFailure, install_checkers
from repro.check.race import resolve_unit
from repro.exec.pool import _cache_extra
from repro.exec.serialize import RunRecord
from repro.harness.experiment import RunConfig, run_experiment

PROTOCOLS = ("sc", "swlrc", "hlrc")


def _machine(protocol="hlrc", g=256, n=2):
    return Machine(MachineParams(n_nodes=n, granularity=g), protocol=protocol)


# ======================================================================
# race detector
# ======================================================================
class TestRaceDetector:
    def test_racy_program_flagged_with_both_sites(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def racy_writer(dsm, rank, nprocs):
                yield from dsm.touch_write(seg.base, 64, pattern=rank)

            return racy_writer

        report = checked_run(build, protocol="sc", nprocs=2)
        assert report.races_total >= 1
        assert not report.ok
        race = report.races[0]
        # Both access sites point at the racy program's source line.
        assert "test_check.py" in race.earlier.location
        assert "test_check.py" in race.later.location
        assert "racy_writer" in race.earlier.location
        assert "racy_writer" in race.later.location
        assert race.earlier.node != race.later.node
        assert race.true_race
        # Each side carries its synchronization context.
        assert "synchronization" in race.earlier.sync_context or \
            "@t=" in race.earlier.sync_context
        assert "data race" in race.describe()

    def test_drf_sibling_with_locks_is_clean(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def drf_writer(dsm, rank, nprocs):
                yield from dsm.acquire(7)
                yield from dsm.touch_write(seg.base, 64, pattern=rank)
                yield from dsm.release(7)

            return drf_writer

        report = checked_run(build, protocol="sc", nprocs=2)
        assert report.races_total == 0
        assert report.ok

    def test_barrier_orders_accesses(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                if rank == 0:
                    yield from dsm.touch_write(seg.base, 64, pattern=1)
                yield from dsm.barrier(0, participants=nprocs)
                if rank == 1:
                    yield from dsm.touch_read(seg.base, 64)

            return program

        report = checked_run(build, protocol="hlrc", nprocs=2)
        assert report.races_total == 0

    def test_barrier_exit_clocks_match_per_entry_merge(self):
        """The folded episode clock gives every exit the clock that
        merging each entry clock in turn (the oracle) gives."""
        from repro.check.race import RaceDetector
        from repro.sim.engine import Engine

        n = 65
        rng = random.Random(65)
        det = RaceDetector(n, 4, Engine())
        for clock in det._clock:
            clock.merge([rng.randrange(9) for _ in range(n)])
        entries = list(range(n))
        rng.shuffle(entries)
        before = {nid: det._clock[nid].copy() for nid in entries}
        for nid in entries:
            det.on_barrier_enter(nid, 3, 0)
        exits = list(range(n))
        rng.shuffle(exits)
        for nid in exits:
            det.on_barrier_exit(nid, 3, 0)
            want = before[nid].copy()
            for other in entries:
                want.merge(before[other])
            want.tick(nid)
            assert det._clock[nid].as_tuple() == want.as_tuple()
        assert not det._episodes  # the countdown retired the episode

    def test_post_barrier_race_reports_barrier_context(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                yield from dsm.barrier(0, participants=nprocs)
                if rank < 2:
                    yield from dsm.touch_write(seg.base, 64, pattern=rank)

            return program

        report = checked_run(build, protocol="swlrc", nprocs=3)
        assert report.races_total >= 1
        race = report.races[0]
        assert {race.earlier.node, race.later.node} == {0, 1}
        for site in (race.earlier, race.later):
            assert site.sync_context.startswith("after barrier 0 (episode 0) @t=")

    def test_unordered_read_write_flagged(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                if rank == 0:
                    yield from dsm.touch_write(seg.base, 64, pattern=1)
                else:
                    yield from dsm.touch_read(seg.base, 64)

            return program

        report = checked_run(build, protocol="sc", nprocs=2)
        assert report.races_total >= 1
        kinds = {report.races[0].earlier.write, report.races[0].later.write}
        assert kinds == {True, False}

    def test_lock_chain_transitivity(self, checked_run):
        """0 -> (release L) -> 1 -> (release L) -> 2 orders 0's write
        before 2's read even though they never synchronize directly."""

        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                # Serialize the lock hand-off with barriers so the
                # acquisition ORDER is deterministic; data accesses stay
                # ordered only by the lock chain itself.
                if rank == 0:
                    yield from dsm.touch_write(seg.base, 32, pattern=1)
                    yield from dsm.acquire(9)
                    yield from dsm.release(9)
                yield from dsm.barrier(0, participants=nprocs)
                if rank == 1:
                    yield from dsm.acquire(9)
                    yield from dsm.release(9)
                yield from dsm.barrier(1, participants=nprocs)
                if rank == 2:
                    yield from dsm.acquire(9)
                    yield from dsm.touch_read(seg.base, 32)
                    yield from dsm.release(9)

            return program

        report = checked_run(build, protocol="swlrc", nprocs=3)
        # The barriers alone also order the accesses here, but a broken
        # lock-clock merge would already have failed the DRF smoke.
        assert report.races_total == 0

    def test_false_sharing_distinguished_at_block_granularity(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                # Disjoint bytes of one 256-byte coherence block.
                yield from dsm.touch_write(seg.base + rank * 128, 8,
                                           pattern=rank)

            return program

        report = checked_run(
            build, protocol="sc", nprocs=2, race_granularity="block"
        )
        assert report.races_total == 0
        assert report.false_sharing_total >= 1
        assert report.ok  # false sharing is not a correctness failure
        assert not report.false_sharing[0].true_race
        assert "false sharing" in report.false_sharing[0].describe()

    def test_same_bytes_at_block_granularity_is_true_race(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                yield from dsm.touch_write(seg.base, 8, pattern=rank)

            return program

        report = checked_run(
            build, protocol="sc", nprocs=2, race_granularity="block"
        )
        assert report.races_total >= 1

    def test_assume_disjoint_suppresses_and_counts(self, checked_run):
        def build(machine):
            seg = machine.alloc(1024, "x")

            def program(dsm, rank, nprocs):
                with dsm.assume_disjoint("element-disjoint by construction"):
                    yield from dsm.touch_write(seg.base, 64, pattern=rank)

            return program

        report = checked_run(build, protocol="sc", nprocs=2)
        assert report.races_total == 0
        assert report.ok

    def test_assume_disjoint_one_side_suffices(self):
        m = _machine(protocol="sc", n=2)
        seg = m.alloc(1024, "x")
        checkers = install_checkers(m)

        def program(dsm, rank, nprocs):
            if rank == 0:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            else:
                with dsm.assume_disjoint("reads the other colour"):
                    yield from dsm.touch_read(seg.base, 64)

        run_program(m, program, nprocs=2)
        report = checkers.report()
        assert report.races_total == 0
        assert checkers.race.exempted_total >= 1

    def test_checkers_join_existing_hooks_in_one_collapse(self, monkeypatch):
        """On a machine that already has a hook (the model checker's
        footprint recorder), both checkers join the composite in order
        and its dispatch slots are rebuilt once, not once per checker."""
        from repro.hooks import CompositeHooks, Hooks

        m = _machine(protocol="sc", n=2)
        first = Hooks()
        m.add_hooks(first)
        calls = []
        collapse = CompositeHooks._collapse
        monkeypatch.setattr(CompositeHooks, "_collapse",
                            lambda self: (calls.append(1), collapse(self)))
        checkers = install_checkers(m)
        assert len(calls) == 1
        assert m.hooks.hooks == [first, checkers.race, checkers.invariants]

    def test_resolve_unit(self):
        assert resolve_unit("byte", 4096) == 1
        assert resolve_unit("word", 4096) == 4
        assert resolve_unit("block", 4096) == 4096
        assert resolve_unit(128, 4096) == 128
        with pytest.raises(ValueError):
            resolve_unit("page", 4096)
        with pytest.raises(ValueError):
            resolve_unit(0, 4096)


# ======================================================================
# invariant sanitizer (violation injection per protocol)
# ======================================================================
class TestInvariantInjection:
    def _run_app_cell(self, protocol):
        m = _machine(protocol=protocol, g=256, n=2)
        seg = m.alloc(2048, "x")
        checkers = install_checkers(m, races=False)

        def program(dsm, rank, nprocs):
            yield from dsm.acquire(3)
            yield from dsm.touch_write(seg.base, 256, pattern=rank)
            yield from dsm.release(3)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=2)
        return m, checkers

    def test_sc_single_writer_violation(self):
        m, checkers = self._run_app_cell("sc")
        from repro.memory.access_control import RW

        block = 0
        m.nodes[0].access.set_tag(block, RW)
        m.nodes[1].access.set_tag(block, RW)
        checkers.invariants._msg_sc(block)
        rules = {v.rule for v in checkers.invariants.violations}
        assert "single-writer" in rules

    def test_sc_owner_tag_agreement_violation(self):
        m, checkers = self._run_app_cell("sc")
        from repro.memory.access_control import RW

        # RW copy on a node the directory does not register as owner.
        block = 1
        m.nodes[1].access.set_tag(block, RW)
        e = m.protocol.dir.get(block)
        if e is not None:
            e.owner = 0
        checkers.invariants._msg_sc(block)
        rules = {v.rule for v in checkers.invariants.violations}
        assert "owner-tag-agreement" in rules

    def test_swlrc_duplicate_writer_violation(self):
        m, checkers = self._run_app_cell("swlrc")
        from repro.memory.access_control import RW

        block = 0
        m.nodes[0].access.set_tag(block, RW)
        m.nodes[1].access.set_tag(block, RW)
        m.protocol.owned[0].add(block)
        m.protocol.owned[1].add(block)
        checkers.invariants._msg_swlrc(block)
        rules = {v.rule for v in checkers.invariants.violations}
        assert "single-writable-copy" in rules
        assert "unique-owner" in rules

    def test_swlrc_rw_without_ownership_violation(self):
        m, checkers = self._run_app_cell("swlrc")
        from repro.memory.access_control import RW

        block = 2
        m.protocol.owned[0].discard(block)
        m.protocol.owned[1].discard(block)
        m.nodes[0].access.set_tag(block, RW)
        checkers.invariants._msg_swlrc(block)
        rules = {v.rule for v in checkers.invariants.violations}
        assert "rw-implies-owned" in rules

    def test_hlrc_twin_survives_release_violation(self):
        m, checkers = self._run_app_cell("hlrc")
        m.protocol.twins[0][5] = np.zeros(256, dtype=np.uint8)
        checkers.invariants._release_hlrc(0)
        rules = {v.rule for v in checkers.invariants.violations}
        assert "twin-survives-release" in rules

    def test_lrc_dirty_survives_release_violation(self):
        m, checkers = self._run_app_cell("hlrc")
        m.protocol.dirty[1].add(7)
        checkers.invariants._release_common(1)
        rules = {v.rule for v in checkers.invariants.violations}
        assert "dirty-survives-release" in rules

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_lrc_clock_bound_violation(self, protocol):
        m, checkers = self._run_app_cell(protocol)
        vt = m.protocol.vt
        # Node 1 claims an interval of node 0 that node 0 never closed.
        vt[1].merge((vt[0][0] + 1, 0))
        checkers.invariants.on_sync_applied(1, {"vt": vt[1].as_tuple(), "notices": []})
        [v] = checkers.invariants.violations
        assert (v.rule, v.node) == ("clock-bound", 1)
        assert "component 0" in v.detail

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_lrc_barrier_own_notice_violation(self, protocol):
        from repro.core.timestamps import WriteNotice, notice_plan

        m, checkers = self._run_app_cell(protocol)
        vt = m.protocol.vt[1].as_tuple()
        # A barrier release handing node 1 a notice node 1 wrote itself.
        notices = [WriteNotice(9, 1, 0), WriteNotice(7, 3, 1)]
        release = {"vt": vt, "notices": notices,
                   "plan": notice_plan(notices), "dominates": True}
        checkers.invariants._barrier_own_notice(1, release)
        [v] = checkers.invariants.violations
        assert (v.rule, v.node, v.block) == ("barrier-own-notice", 1, 7)
        # A lock grant may carry one: the receiver filters its own.
        grant = {"vt": vt, "notices": notices}
        checkers.invariants._barrier_own_notice(1, grant)
        assert len(checkers.invariants.violations) == 1

    def test_clean_cells_report_nothing(self):
        for protocol in PROTOCOLS:
            _, checkers = self._run_app_cell(protocol)
            report = checkers.report()
            assert report.violations_total == 0, protocol


# ======================================================================
# whole-app smoke: every app x protocol is race- and invariant-clean
# ======================================================================
class TestAppSmoke:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_all_apps_clean_under_check(self, protocol):
        failures = []
        for app in APP_NAMES:
            cfg = RunConfig(
                app=app, protocol=protocol, granularity=4096,
                nprocs=4, scale="tiny",
            )
            result = run_experiment(cfg, check=True)
            rep = result.check
            if not rep.ok:
                failures.append(f"{app}: {rep.describe()[:500]}")
        assert not failures, "\n".join(failures)

    def test_checked_run_bit_identical(self):
        cfg = RunConfig(
            app="ocean-original", protocol="hlrc", granularity=1024,
            nprocs=4, scale="tiny",
        )
        plain = run_experiment(cfg)
        checked = run_experiment(cfg, check=True)
        assert plain.check is None
        assert checked.check is not None and checked.check.ok
        assert plain.stats.to_dict() == checked.stats.to_dict()


# ======================================================================
# execution-layer wiring
# ======================================================================
class TestExecWiring:
    def test_cache_extra_unchanged_without_check(self):
        # The unchecked keys are exactly the pre-checker behaviour:
        # a sweep without --check reuses existing cache entries.
        assert _cache_extra(None) is None
        assert _cache_extra(5000) == {"max_events": 5000}

    def test_cache_extra_partitions_checked_runs(self):
        assert _cache_extra(None, True) == {"check": True}
        assert _cache_extra(5000, True) == {"max_events": 5000, "check": True}
        # the unit is part of the key; True is the word unit
        assert _cache_extra(None, "word") == {"check": True}
        assert _cache_extra(None, "block") == {"check": "block"}

    def test_execute_attaches_check_counters(self):
        from repro.exec.pool import execute_many

        cfg = RunConfig(app="lu", protocol="sc", granularity=1024,
                        nprocs=2, scale="tiny")
        rec = execute_many([cfg], check=True)[cfg]
        assert rec.ok
        assert rec.check == {
            "races": 0, "false_sharing": 0, "violations": 0,
            "race_sites": [],
        }
        plain = execute_many([cfg])[cfg]
        assert plain.check is None

    def test_failed_checked_record_keeps_its_summary(self, tmp_path):
        # Block units merge a rank's exempt and non-exempt ranges into
        # one reportable epoch: water-nsquared "races" there and not at
        # word units.  Both records are cached apart.
        from repro.exec import ResultCache
        from repro.exec.pool import execute_many

        cfg = RunConfig(app="water-nsquared", protocol="hlrc",
                        granularity=1024, nprocs=4, scale="tiny")
        cache = ResultCache(tmp_path)
        word = execute_many([cfg], check="word", cache=cache)[cfg]
        block = execute_many([cfg], check="block", cache=cache)[cfg]
        assert word.ok and word.check["races"] == 0
        assert not block.ok and block.error_type == "CheckFailure"
        assert block.check["races"] > 0
        assert block.check["race_sites"]
        assert all(site.startswith("water_nsquared.py:")
                   for site in block.check["race_sites"])
        assert execute_many([cfg], check="word", cache=cache)[cfg].cached

    def test_run_record_check_roundtrip(self):
        cfg = RunConfig(app="lu", protocol="sc", granularity=1024,
                        nprocs=2, scale="tiny")
        rec = RunRecord(config=cfg, ok=True,
                        check={"races": 1, "false_sharing": 0,
                               "violations": 2})
        back = RunRecord.from_json_dict(rec.to_json_dict())
        assert back.check == rec.check

    def test_sweep_check_bypasses_memo(self):
        from repro.harness import matrix

        matrix.clear_cache()
        results = matrix.sweep(
            ["lu"], protocols=("sc",), granularities=(1024,),
            scale="tiny", nprocs=2, check=True,
        )
        (rec,) = results.values()
        assert rec.ok and rec.check is not None
        assert not matrix._CACHE  # checked records never enter the memo

    def test_check_failure_message_carries_report(self):
        from repro.check.api import CheckReport

        rep = CheckReport(races_total=2, violations_total=1)
        exc = CheckFailure(rep, "lu/sc-64")
        assert "lu/sc-64" in str(exc)
        assert "2 race(s)" in str(exc)

    def test_cli_check_subcommand(self, capsys):
        from repro.harness.cli import main

        rc = main([
            "check", "--apps", "lu", "--protocols", "sc",
            "--scale", "tiny", "--nprocs", "2", "--granularity", "1024",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all cells clean" in out


# ======================================================================
# the simulator lint
# ======================================================================
def _load_lint():
    path = Path(__file__).resolve().parent.parent / "tools" / "lint_sim.py"
    spec = importlib.util.spec_from_file_location("lint_sim", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


class TestLintSim:
    BAD = '''\
import random
import time


class P:
    def _h_msg(self, node, msg):
        yield 1.0

    def helper(self):
        return 2

    def stub(self):
        raise NotImplementedError

    def run(self):
        t = time.time()
        x = random.random()
        r = random.Random()
        seeded = random.Random(42)
        yield from self.helper()
        yield from self.stub()
        q = self.engine._queue
        quiet = time.monotonic()  # noqa: SIM001
        return t, x, r, seeded, q, quiet
'''

    def _lint_bad(self, tmp_path):
        lint = _load_lint()
        # The determinism rules key off the path, so place the file
        # inside a simulated sim-package directory.
        pkg = tmp_path / "repro" / "core"
        pkg.mkdir(parents=True)
        f = pkg / "bad.py"
        f.write_text(self.BAD)
        return lint, lint.lint_file(f)

    def test_lint_flags_each_rule_once(self, tmp_path):
        _, findings = self._lint_bad(tmp_path)
        codes = sorted(f.code for f in findings)
        assert codes == ["SIM001", "SIM002", "SIM002", "SIM003",
                         "SIM004", "SIM005"]

    def test_lint_noqa_and_abstract_stub_exemptions(self, tmp_path):
        _, findings = self._lint_bad(tmp_path)
        lines = {f.line for f in findings}
        text = self.BAD.splitlines()
        # noqa'd wall-clock line not flagged
        noqa_line = next(i for i, l in enumerate(text, 1) if "noqa" in l)
        assert noqa_line not in lines
        # yield from self.stub() exempt: abstract raise-only stub
        stub_line = next(i for i, l in enumerate(text, 1) if "self.stub()" in l)
        assert stub_line not in lines
        # seeded Random(42) not flagged
        seeded_line = next(i for i, l in enumerate(text, 1) if "Random(42)" in l)
        assert seeded_line not in lines

    def test_lint_ignores_host_side_packages(self, tmp_path):
        lint = _load_lint()
        pkg = tmp_path / "repro" / "exec"
        pkg.mkdir(parents=True)
        f = pkg / "host.py"
        f.write_text("import time\n\nT = time.monotonic()\n")
        assert lint.lint_file(f) == []

    DROPPED = '''\
class App:
    def helper(self, dsm):
        yield from dsm.read(0, 4)

    def plain(self, dsm):
        return 7

    def program(self, dsm, rank, nprocs):
        self.helper(dsm)
        dsm.touch_write(0, 8)
        def local_gen():
            yield from dsm.barrier(0)
        local_gen()
        yield from self.helper(dsm)
        g = self.helper(dsm)
        self.plain(dsm)
        dsm.read(0, 4)  # noqa: SIM007
'''

    def test_lint_flags_dropped_generators(self, tmp_path):
        lint = _load_lint()
        f = tmp_path / "dropped.py"
        f.write_text(self.DROPPED)
        findings = lint.lint_file(f)
        assert [x.code for x in findings] == ["SIM007"] * 3
        text = self.DROPPED.splitlines()
        flagged = {x.line for x in findings}
        assert flagged == {
            next(i for i, l in enumerate(text, 1) if l.strip() == "self.helper(dsm)"),
            next(i for i, l in enumerate(text, 1) if "dsm.touch_write" in l),
            next(i for i, l in enumerate(text, 1) if l.strip() == "local_gen()"),
        }
        # driven, assigned, non-generator, and noqa'd calls stay clean
        assert all("yield from" not in text[x.line - 1] for x in findings)

    def test_source_tree_is_clean(self):
        lint = _load_lint()
        root = Path(__file__).resolve().parent.parent
        findings = []
        for base in ("src/repro", "tools"):
            for f in sorted((root / base).rglob("*.py")):
                findings.extend(lint.lint_file(f))
        assert not findings, "\n".join(str(f) for f in findings)
