"""Static labeling/DRF analyzer (repro.analyze).

Three layers of assurance:

* the 12-app corpus is properly labeled (zero findings) and the
  false-sharing predictor produces sane per-granularity cells;
* a planted-bug corpus of deliberately mislabeled micro-apps, each
  caught with the expected ANA code and both access sites named --
  the gate is proven able to fail;
* the CLI/report/concordance plumbing round-trips.
"""

from __future__ import annotations

import inspect
import json
from contextlib import nullcontext
from pathlib import Path

import pytest

from repro.analyze.api import analyze_app, analyze_corpus
from repro.analyze.canary import MislabeledStencil, canary_analysis
from repro.analyze.footprint import IntervalSet, explore
from repro.apps.base import Application

NPROCS = 4


def codes(analysis):
    return sorted({f.code for f in analysis.findings})


def _line_of(app_cls, text):
    """Line number of the first line of ``app_cls.program`` containing
    ``text``."""
    lines, start = inspect.getsourcelines(app_cls.program)
    return start + next(i for i, ln in enumerate(lines) if text in ln)


# ======================================================================
# planted-bug corpus: each mislabeling caught with the expected code
# ======================================================================
class _PlantedBase(Application):
    tiny_params: dict = {}
    default_params: dict = {}
    full_params: dict = {}

    def _configure(self) -> None:
        pass

    def sequential_time_us(self) -> float:
        return 1.0

    def setup(self, machine) -> None:
        self.data = machine.alloc(8192, "data")


class MissingRelease(_PlantedBase):
    """Rank 0 exits its critical section without releasing."""

    name = "planted-missing-release"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        yield from dsm.acquire(7)
        yield from dsm.touch_write(self.data.addr(0), 64, pattern=1)
        if rank != 0:
            yield from dsm.release(7)


class UnheldRelease(_PlantedBase):
    """The last rank releases a lock it never acquired."""

    name = "planted-unheld-release"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        if rank == nprocs - 1:
            yield from dsm.release(3)
        yield from dsm.touch_write(self.data.addr(rank * 64), 64, pattern=1)


class MidProgramCrash(_PlantedBase):
    """Rank 2 raises between its barriers."""

    name = "planted-mid-program-crash"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        if rank == 2:
            raise ValueError("planted failure")
        yield from dsm.barrier(1)


class PhaseSkew(_PlantedBase):
    """The last rank skips a barrier the others wait at."""

    name = "planted-phase-skew"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        if rank < nprocs - 1:
            yield from dsm.barrier(1)
        yield from dsm.touch_write(
            self.data.addr(rank * 64), 64, pattern=1)


class WrongLock(_PlantedBase):
    """Two lock 'domains' both guard the same byte range."""

    name = "planted-wrong-lock"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        if rank % 2 == 0:
            yield from dsm.acquire(10)
            yield from dsm.touch_write(self.data.addr(0), 256, pattern=1)
            yield from dsm.release(10)
        else:
            yield from dsm.acquire(11)
            yield from dsm.touch_write(self.data.addr(0), 256, pattern=2)
            yield from dsm.release(11)
        yield from dsm.barrier(1)


class StaleDisjoint(_PlantedBase):
    """An annotation left behind after the sharing pattern changed."""

    name = "planted-stale-disjoint"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        with dsm.assume_disjoint("leftover from an old sharing pattern"):
            yield from dsm.touch_write(
                self.data.addr(rank * 1024), 64, pattern=1)


class OverbroadDisjoint(_PlantedBase):
    """The scope covers a private access that needs no exemption."""

    name = "planted-overbroad-disjoint"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        with dsm.assume_disjoint("covers more than it must"):
            yield from dsm.touch_write(self.data.addr(0), 64, pattern=1)
            yield from dsm.touch_write(
                self.data.addr(2048 + rank * 256), 64, pattern=2)


class NeverEnteredDisjoint(_PlantedBase):
    """An unconditional scope on a branch no rank takes."""

    name = "planted-never-entered-disjoint"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        if rank >= nprocs:  # no rank takes this branch
            with dsm.assume_disjoint("dead branch"):
                yield from dsm.touch_write(self.data.addr(0), 64, pattern=1)
        yield from dsm.touch_write(self.data.addr(rank * 64), 64, pattern=2)


class ConditionalDisjointNotEntered(_PlantedBase):
    """barnes' mode-gated scope in a run where every rank locks instead."""

    name = "planted-conditional-disjoint"

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        locked = True
        if locked:
            yield from dsm.acquire(5)
        ctx = (nullcontext() if locked
               else dsm.assume_disjoint("uncontended writes"))
        with ctx:
            yield from dsm.touch_write(self.data.addr(0), 64, pattern=1)
        if locked:
            yield from dsm.release(5)


class TestPlantedBugs:
    def test_missing_barrier_canary_is_caught_with_both_sites(self):
        a = canary_analysis(NPROCS)
        assert not a.ok
        assert codes(a) == ["ANA101"]
        (f,) = a.findings
        sites = f.extra["sites"]
        assert len(sites) == 2
        src = Path(MislabeledStencil.program.__code__.co_filename)
        lines = src.read_text().splitlines()
        read_line = next(i for i, ln in enumerate(lines, 1)
                         if "touch_read(self.grid.addr((lo - 1)" in ln)
        write_line = next(i for i, ln in enumerate(lines, 1)
                          if "yield from dsm.touch_write(" in ln)
        assert {s["line"] for s in sites} == {read_line, write_line}
        assert {s["kind"] for s in sites} == {"read", "write"}
        # the rendered finding names both sites too
        text = str(f)
        assert f"canary.py:{read_line}" in text
        assert f"canary.py:{write_line}" in text
        # each side shows its whole statement (the write spans two
        # lines) and the barriers that bracket it in the run
        first = next(i for i, ln in enumerate(lines, 1) if "barrier(0)" in ln)
        last = next(i for i, ln in enumerate(lines, 1)
                    if ln.strip() == "yield from dsm.barrier(2)")
        region = f"region between [barrier(0)@{first}] and [barrier(2)@{last}]"
        read_side, write_side = f.detail[:2]
        assert ("`yield from dsm.touch_read(self.grid.addr((lo - 1) * ROW), "
                "ROW)`") in read_side
        assert ("`yield from dsm.touch_write(self.grid.addr(row * ROW), ROW, "
                "pattern=self.pattern(it, row))`") in write_side
        assert region in read_side and region in write_side

    def test_missing_release_is_ana106(self):
        a = analyze_app(MissingRelease, nprocs=NPROCS)
        assert codes(a) == ["ANA106"]
        msgs = " | ".join(f.message for f in a.findings)
        assert "never released" in msgs or "still held" in msgs

    def test_unheld_release_is_ana106_at_the_release(self):
        a = analyze_app(UnheldRelease, nprocs=NPROCS)
        assert codes(a) == ["ANA106"]
        (f,) = a.findings
        assert f.message == (
            f"release of lock 3 not held by rank {NPROCS - 1}")
        assert f.line == _line_of(UnheldRelease, "yield from dsm.release(3)")

    def test_mid_program_crash_is_ana107_naming_the_rank(self):
        a = analyze_app(MidProgramCrash, nprocs=NPROCS)
        assert codes(a) == ["ANA107"]
        (f,) = a.findings
        assert f.message.startswith(
            "rank 2 crashed during footprint exploration: ValueError")
        assert "planted failure" in f.message

    def test_phase_skew_is_ana102(self):
        a = analyze_app(PhaseSkew, nprocs=NPROCS)
        assert "ANA102" in codes(a)
        # the exploration sees the other ranks parked at barrier(1)
        msgs = " | ".join(f.message for f in a.findings)
        assert "phase skew" in msgs

    def test_wrong_lock_is_ana103_with_both_sites(self):
        a = analyze_app(WrongLock, nprocs=NPROCS)
        assert codes(a) == ["ANA103"]
        f = a.findings[0]
        assert "DIFFERENT locks" in f.message
        sites = f.extra["sites"]
        assert len(sites) == 2
        assert sites[0]["line"] != sites[1]["line"]
        assert a.lock_protected_pairs > 0  # same-lock pairs stay clean

    def test_stale_disjoint_is_ana104(self):
        a = analyze_app(StaleDisjoint, nprocs=NPROCS)
        assert codes(a) == ["ANA104"]
        assert "unnecessary" in a.findings[0].message
        # the scope is named by its reason, not its enclosing function
        assert ('assume_disjoint("leftover from an old sharing pattern")'
                in a.findings[0].message)

    def test_never_entered_unconditional_scope_is_ana104(self):
        a = analyze_app(NeverEnteredDisjoint, nprocs=NPROCS)
        assert codes(a) == ["ANA104"]
        (f,) = a.findings
        assert "never entered in any analyzed mode" in f.message
        assert f.line == _line_of(NeverEnteredDisjoint, "assume_disjoint(")

    def test_never_entered_conditional_scope_is_no_finding(self):
        a = analyze_app(ConditionalDisjointNotEntered, nprocs=NPROCS)
        assert a.ok, [str(f) for f in a.findings]
        assert a.lock_protected_pairs > 0 and a.exempted_pairs == 0

    def test_overbroad_disjoint_is_ana105(self):
        a = analyze_app(OverbroadDisjoint, nprocs=NPROCS)
        assert codes(a) == ["ANA105"]
        (f,) = a.findings
        # the idle (never-conflicting) site is listed in the detail
        assert len(f.detail) == 1
        assert a.exempted_pairs > 0  # the contended site did need it


# ======================================================================
# the real corpus is clean
# ======================================================================
class TestCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return analyze_corpus()

    def test_all_twelve_apps_properly_labeled(self, corpus):
        assert len(corpus.apps) == 12
        bad = {a.name: [str(f) for f in a.findings]
               for a in corpus.apps if not a.ok}
        assert corpus.ok, bad

    def test_no_suppressions_needed(self, corpus):
        assert all(not a.suppressed for a in corpus.apps)

    def test_barnes_family_analyzed_in_both_modes(self, corpus):
        by_name = {a.name: a for a in corpus.apps}
        for name in ("barnes-original", "barnes-parttree", "barnes-spatial"):
            assert [m.lrc_mode for m in by_name[name].modes] == [False, True]
        assert [m.lrc_mode for m in by_name["lu"].modes] == [False]

    def test_work_stealing_path_is_explored(self, corpus):
        # Under the machine's real schedule a rank that drains its own
        # queue steals under the victim's queue lock, which cuts extra
        # segments; a schedule where no rank ever steals leaves one
        # segment per rank.
        (sc,) = {a.name: a for a in corpus.apps}["volrend-original"].modes
        assert sc.n_segments > NPROCS

    def test_annotations_all_justified(self, corpus):
        """Every assume_disjoint in the corpus exempts real pairs
        (no ANA104/ANA105 -- checked implicitly by ok, asserted
        explicitly here)."""
        by_name = {a.name: a for a in corpus.apps}
        for name in ("ocean-original", "ocean-rowwise", "water-nsquared",
                     "water-spatial"):
            assert by_name[name].exempted_pairs > 0, name

    def test_false_sharing_prediction_sanity(self, corpus):
        fs = {a.name: a.false_sharing for a in corpus.apps}
        # lu: block-row partitioning is page-aligned; false sharing
        # appears only when blocks outgrow the 4 KB pages
        for g in (64, 256, 1024):
            assert fs["lu"][g]["bytes"] == 0
        assert fs["lu"][4096]["bytes"] > 0
        # fft: transpose reads are ordered by barriers on whole-row
        # ranges; nothing to false-share at any granularity
        assert all(v["bytes"] == 0 for v in fs["fft"].values())
        # water-spatial: fine-grained cells fragment badly
        assert fs["water-spatial"][4096]["bytes"] > 0
        # ranking is sorted worst-first
        ranked = corpus.ranking
        assert all(ranked[i]["bytes"] >= ranked[i + 1]["bytes"]
                   for i in range(len(ranked) - 1))


# ======================================================================
# noqa suppression of ANA findings
# ======================================================================
NOQA_APP = '''\
from repro.apps.base import Application


class NoqaApp(Application):
    name = "planted-noqa"
    tiny_params = {}

    def _configure(self):
        pass

    def sequential_time_us(self):
        return 1.0

    def setup(self, machine):
        self.data = machine.alloc(4096, "data")

    def program(self, dsm, rank, nprocs):
        yield from dsm.barrier(0)
        yield from dsm.touch_write(self.data.addr(0), 64, pattern=1)  # noqa: ANA101
'''


class TestNoqa:
    def test_noqa_moves_finding_to_suppressed(self, tmp_path):
        import importlib.util

        path = tmp_path / "noqa_app.py"
        path.write_text(NOQA_APP)
        spec = importlib.util.spec_from_file_location("noqa_app", path)
        mod = importlib.util.module_from_spec(spec)
        import sys

        sys.modules["noqa_app"] = mod
        try:
            spec.loader.exec_module(mod)
            a = analyze_app(mod.NoqaApp, nprocs=NPROCS)
        finally:
            del sys.modules["noqa_app"]
        assert a.ok
        assert [f.code for f in a.suppressed] == ["ANA101"]


# ======================================================================
# footprint primitives
# ======================================================================
class TestIntervalSet:
    def test_merge_and_count(self):
        s = IntervalSet()
        s.add(0, 10)
        s.add(20, 30)
        s.add(5, 25)  # bridges both
        assert s.intervals() == [(0, 30)]
        assert s.nbytes == 30

    def test_intersect(self):
        a, b = IntervalSet(), IntervalSet()
        a.add(0, 100)
        b.add(50, 150)
        b.add(200, 300)
        assert a.intersect(b) == [(50, 100)]

    def test_blocks(self):
        s = IntervalSet()
        s.add(100, 300)
        assert s.blocks(256) == frozenset({0, 1})


class TestExploration:
    def test_canary_exploration_is_structurally_clean(self):
        # the canary's bug is a labeling bug, not a structural one
        e = explore(MislabeledStencil(scale="tiny"), NPROCS)
        assert not e.stalls and not e.lock_errors and not e.crashes
        assert e.n_ops > 0

    def test_missing_release_stalls_other_ranks(self):
        # How many ranks get lock 7 before rank 0 keeps it depends on
        # the grant order; what holds on every schedule: each rank that
        # got the lock wrote under it, and every other rank is stalled
        # on lock 7, which rank 0 still holds at its end.
        e = explore(MissingRelease(scale="tiny"), NPROCS)
        got_lock = {seg.rank for seg in e.segments}
        assert 0 in got_lock
        assert {s.rank for s in e.stalls} == set(range(NPROCS)) - got_lock
        assert e.stalls
        for s in e.stalls:
            assert s.kind == "lock"
            assert s.detail == "waiting forever for lock 7 (held by rank 0)"
        assert [(err.rank, err.lock) for err in e.lock_errors] == [(0, 7)]
        assert "still held" in e.lock_errors[0].message

    def test_rank_parked_outside_sync_is_incomplete(self):
        from repro.sim.process import Future

        class ParkedOnOwnFuture(_PlantedBase):
            def program(self, dsm, rank, nprocs):
                yield from dsm.barrier(0)
                if rank == 1:
                    yield Future(dsm.machine.engine)  # never resolved

        e = explore(ParkedOnOwnFuture(scale="tiny"), NPROCS)
        assert not e.stalls and not e.lock_errors
        assert e.crashes == [
            (1, "parked forever outside any lock or barrier wait")]


# ======================================================================
# concordance
# ======================================================================
class TestConcordance:
    def test_judge_verdicts(self):
        from repro.analyze.concordance import CellConcordance, _judge

        def cell(**kw):
            base = dict(app="x", protocol="hlrc", granularity=1024,
                        static_findings=0, static_sites=set(),
                        dynamic_races=0, dynamic_race_sites=set(),
                        dynamic_false_sharing=0, predicted_fs_bytes=0)
            base.update(kw)
            c = CellConcordance(**base)
            _judge(c)
            return c

        assert cell().verdict == "concordant"
        assert cell(static_findings=1).verdict == "static_extra"
        assert cell(dynamic_races=1,
                    dynamic_race_sites={"a.py:1"}).verdict == "static_miss"
        both = cell(static_findings=1, static_sites={"a.py:1", "a.py:2"},
                    dynamic_races=1, dynamic_race_sites={"a.py:1"})
        assert both.verdict == "concordant"

    def test_lu_cell_concordant(self):
        from repro.analyze.concordance import run_concordance

        res = run_concordance(["lu"], protocols=("hlrc",),
                              granularities=(1024,), nprocs=NPROCS)
        assert res.ok
        (c,) = res.cells
        assert c.verdict == "concordant"
        assert c.dynamic_races == 0 and c.static_findings == 0
        d = res.to_dict()
        assert d["ok"] and d["verdicts"] == {"concordant": 1}


# ======================================================================
# CLI + report plumbing
# ======================================================================
class TestCli:
    def test_analyze_corpus_subset_clean(self, tmp_path, capsys):
        from repro.harness.cli import main

        out_json = tmp_path / "analysis.json"
        events = tmp_path / "events.jsonl"
        rc = main(["analyze", "--apps", "lu,fft",
                   "--json", str(out_json), "--events", str(events)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "properly labeled" in text
        data = json.loads(out_json.read_text())
        assert data["ok"] and len(data["apps"]) == 2
        etypes = [json.loads(line)["type"]
                  for line in events.read_text().splitlines()]
        assert etypes.count("analyze_app") == 2
        assert etypes[-1] == "analyze_finished"

    def test_analyze_canary_fails_naming_both_sites(self, capsys):
        from repro.harness.cli import main

        rc = main(["analyze", "--canary"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "ANA101" in out
        assert out.count("canary.py:") >= 2
        assert "read " in out and "write" in out
