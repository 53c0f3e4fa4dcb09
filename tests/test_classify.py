"""Tests for the sharing-pattern classifier (Table 2 machinery)."""

from collections import Counter

import pytest

from repro.stats.classify import (
    COARSE_ACCESS_BYTES,
    FINE_SYNC_THRESHOLD_US,
    MULTI_WRITER_FRACTION,
    AccessTrace,
    classify,
    install_trace,
)
from repro.stats.counters import Stats


class TestAccessTrace:
    def test_writers_tracked_per_block(self):
        tr = AccessTrace()
        tr.record_write(0, 10)
        tr.record_write(1, 10)
        tr.record_write(0, 11)
        assert tr.max_writers == 2
        assert tr.multi_writer_fraction == pytest.approx(0.5)

    def test_empty_trace(self):
        tr = AccessTrace()
        assert tr.max_writers == 0
        assert tr.multi_writer_fraction == 0.0
        assert tr.median_read_bytes == 0.0
        assert tr.mean_access_bytes == 0.0

    def test_read_median_ignores_writes(self):
        tr = AccessTrace()
        for _ in range(10):
            tr.record_region(8, write=False)
        tr.record_region(100_000, write=True)
        assert tr.median_read_bytes == 8.0

    def test_median_odd_even(self):
        tr = AccessTrace()
        for size in (10, 20, 30):
            tr.record_region(size, write=False)
        assert tr.median_read_bytes == 20.0
        tr.record_region(40, write=False)
        assert tr.median_read_bytes == 20.0  # lower median of 4


class TestClassify:
    def _stats(self, n=2, compute_us=100_000.0, locks=0, barriers=0):
        stats = Stats(n)
        for node in stats.nodes:
            node.compute_us = compute_us / n
            node.lock_acquires = locks // n
            node.barriers = barriers
        return stats

    def test_single_writer_coarse(self):
        tr = AccessTrace()
        tr.record_write(0, 1)
        tr.record_region(4096, write=False)
        c = classify(tr, self._stats(barriers=2))
        assert c.writers == "single"
        assert c.access_grain == "coarse"

    def test_multi_writer_by_fraction(self):
        tr = AccessTrace()
        for b in range(10):
            tr.record_write(0, b)
            tr.record_write(1, b)
        tr.record_region(8, write=False)
        c = classify(tr, self._stats(barriers=1))
        assert c.writers == "multiple"
        assert c.access_grain == "fine"

    def test_two_writer_boundary_artifact_is_single(self):
        """A handful of blocks with exactly two writers (partition
        boundaries) does not make an application multiple-writer."""
        tr = AccessTrace()
        for b in range(100):
            tr.record_write(b % 4, b)
        tr.record_write(1, 0)  # one boundary block shared by 2 writers
        tr.record_region(4096, write=False)
        c = classify(tr, self._stats(barriers=1))
        assert c.writers == "single"

    def test_heavily_shared_block_is_multiple(self):
        """One block written by many processors (a tree root) flags
        multiple-writer even among many private blocks."""
        tr = AccessTrace()
        for b in range(100):
            tr.record_write(b % 4, b)
        for w in range(8):
            tr.record_write(w, 0)
        tr.record_region(8, write=False)
        c = classify(tr, self._stats(barriers=1))
        assert c.writers == "multiple"

    def test_sync_grain_threshold(self):
        tr = AccessTrace()
        tr.record_region(4096, write=False)
        # 100ms compute over 2 nodes, 1000 locks: 50us per sync -> fine.
        fine = classify(tr, self._stats(compute_us=100_000.0, locks=1000))
        assert fine.sync_grain == "fine"
        # 2 barriers only: 25ms per sync -> coarse.
        coarse = classify(tr, self._stats(compute_us=100_000.0, barriers=2))
        assert coarse.sync_grain == "coarse"

    def test_no_sync_is_coarse(self):
        tr = AccessTrace()
        tr.record_region(4096, write=False)
        c = classify(tr, self._stats())
        assert c.sync_grain == "coarse"
        assert c.comp_per_sync_us == float("inf")

    def test_comp_per_sync_matches_paper_formula(self):
        """LU at full scale: (73.41 s / 16) / 64 barriers = 71.69 ms."""
        tr = AccessTrace()
        tr.record_region(2048, write=False)
        stats = Stats(16)
        for node in stats.nodes:
            node.compute_us = 73.41e6 / 16
            node.barriers = 64
        c = classify(tr, stats)
        assert c.comp_per_sync_us == pytest.approx(71.69e3, rel=0.01)


class TestInstallTrace:
    def test_trace_observes_runtime_accesses(self):
        import numpy as np

        from repro import Machine, MachineParams, SharedArray, run_program

        m = Machine(MachineParams(n_nodes=2, granularity=256), protocol="sc")
        arr = SharedArray(m, "x", 64, dtype=np.float64)
        arr.init(np.zeros(64))
        arr.place(0, 64, 0)
        tr = install_trace(m)

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from arr.set_slice(dsm, 0, np.ones(64))
            yield from dsm.barrier(0, participants=nprocs)
            yield from arr.get_slice(dsm, 0, 64)

        run_program(m, program, nprocs=2)
        assert tr.write_accesses >= 1
        assert tr.read_accesses >= 2
        assert tr.max_writers >= 1
        # 64 float64 = 512 bytes per region access
        assert tr.median_read_bytes == 512.0


class TestClassifyApp:
    def test_lu_matches_its_paper_row(self):
        from repro.apps import make_app
        from repro.stats import classify_app

        c = classify_app("lu", scale="tiny", nprocs=4)
        app = make_app("lu", scale="tiny")
        assert (c.writers, c.access_grain) == (app.writers, app.access_grain)
        assert c.barriers > 0 and c.lock_acquires == 0

    def test_cli_takes_no_mechanism(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["classify", "--mechanism", "interrupt"])
