"""Tests for the extensions beyond the paper's evaluation (its own
Section 7 future-work list): delayed consistency, block sizes beyond
4096 bytes, 32-node runs, all-software configurations, and memory
utilization accounting."""

import numpy as np
import pytest

from repro import Machine, MachineParams, SharedArray, run_program
from repro.cluster.config import (
    EXTENDED_GRANULARITIES,
    PAGE_SIZE,
    SVM_COSTS,
    switch_of,
)
from repro.harness.experiment import RunConfig
from repro.stats.counters import memory_utilization


class TestDelayedConsistency:
    def test_registered(self):
        from repro.core import available_protocols

        assert "dc" in available_protocols()

    @pytest.mark.parametrize("g", [64, 4096])
    def test_coherent_across_barriers(self, g):
        m = Machine(MachineParams(n_nodes=4, granularity=g), protocol="dc")
        arr = SharedArray(m, "x", 256, dtype=np.float64)
        arr.init(np.zeros(256))

        def program(dsm, rank, nprocs):
            n = 256 // nprocs
            yield from arr.set_slice(
                dsm, rank * n, np.arange(rank * n, rank * n + n, dtype=float)
            )
            yield from dsm.barrier(0, participants=nprocs)
            v = yield from arr.get_slice(dsm, 0, 256)
            yield from dsm.barrier(0, participants=nprocs)
            return float(v.sum())

        r = run_program(m, program, nprocs=4)
        assert all(x == float(np.arange(256).sum()) for x in r.results)

    def test_no_lost_updates_under_locks(self):
        m = Machine(MachineParams(n_nodes=4, granularity=4096), protocol="dc")
        arr = SharedArray(m, "c", 1, dtype=np.int64)
        arr.init([0])

        def program(dsm, rank, nprocs):
            for _ in range(4):
                yield from dsm.acquire(1)
                v = yield from arr.get(dsm, 0)
                yield from arr.set(dsm, 0, int(v) + 1)
                yield from dsm.release(1)
            yield from dsm.barrier(0, participants=nprocs)
            final = yield from arr.get(dsm, 0)
            return int(final)

        r = run_program(m, program, nprocs=4)
        assert all(x == 16 for x in r.results)

    def test_delays_invalidations_while_computing(self):
        """A reader that is computing keeps its copy until the bounded
        delay expires; the writer's transaction completes afterwards."""
        m = Machine(MachineParams(n_nodes=2, granularity=4096), protocol="dc")
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)

        def program2(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_read(seg.base, 64)
                yield from dsm.compute(5000.0)
                yield from dsm.barrier(0, participants=nprocs)
                return 0.0
            # Long enough that the reader's (slow, 4KB) reply has
            # arrived and it is genuinely computing when the
            # invalidation lands.
            yield from dsm.compute(2000.0)
            t0 = dsm.now
            yield from dsm.touch_write(seg.base, 64, pattern=1)
            elapsed = dsm.now - t0
            yield from dsm.barrier(0, participants=nprocs)
            return elapsed

        r = run_program(m, program2, nprocs=2)
        assert m.protocol.delayed_actions >= 1
        # The write stalled on the deferred invalidation (~DELAY_US).
        assert r.results[0] > 100.0

    def test_reduces_ping_pong_misses_vs_sc(self):
        """On a write-write false-sharing workload, DC takes no more
        misses than plain SC (usually fewer)."""
        misses = {}
        for proto in ("sc", "dc"):
            m = Machine(MachineParams(n_nodes=4, granularity=4096),
                        protocol=proto)
            seg = m.alloc(4096, "x")
            m.place(seg.base, 4096, 0)

            def program(dsm, rank, nprocs):
                for it in range(20):
                    yield from dsm.touch_write(
                        seg.base + rank * 1024, 64,
                        pattern=(it + rank) & 0xFF,
                    )
                    yield from dsm.compute(30.0)
                yield from dsm.barrier(0, participants=nprocs)

            r = run_program(m, program, nprocs=4)
            misses[proto] = r.stats.read_faults + r.stats.write_faults
        assert misses["dc"] <= misses["sc"]


class TestExtendedGranularities:
    @pytest.mark.parametrize("g", EXTENDED_GRANULARITIES)
    @pytest.mark.parametrize("protocol", ["sc", "hlrc"])
    def test_runs_coherently(self, g, protocol):
        m = Machine(MachineParams(n_nodes=4, granularity=g), protocol=protocol)
        arr = SharedArray(m, "x", 4096, dtype=np.float64)  # 32 KB
        arr.init(np.zeros(4096))

        def program(dsm, rank, nprocs):
            n = 4096 // nprocs
            yield from arr.set_slice(
                dsm, rank * n, np.arange(rank * n, rank * n + n, dtype=float)
            )
            yield from dsm.barrier(0, participants=nprocs)
            v = yield from arr.get_slice(dsm, 0, 4096)
            yield from dsm.barrier(0, participants=nprocs)
            return float(v.sum())

        r = run_program(m, program, nprocs=4)
        assert all(x == float(np.arange(4096).sum()) for x in r.results)

    def test_bigger_blocks_fragment_worse_for_fine_reads(self):
        """An 8-byte read costs a 16 KB transfer at the largest block."""
        from repro.memory.blocks import BlockSpace

        assert BlockSpace(16384).fragmentation(8, 1) > 0.999


class TestThirtyTwoNodes:
    def test_topology_extends(self):
        switches = {switch_of(i) for i in range(32)}
        assert switches == {0, 1, 2, 3, 4, 5}

    def test_run_on_32_nodes(self):
        m = Machine(MachineParams(n_nodes=32, granularity=1024),
                    protocol="hlrc")
        arr = SharedArray(m, "x", 1024, dtype=np.float64)
        arr.init(np.zeros(1024))

        def program(dsm, rank, nprocs):
            n = 1024 // nprocs
            yield from arr.set_slice(
                dsm, rank * n, np.arange(rank * n, rank * n + n, dtype=float)
            )
            yield from dsm.barrier(0, participants=nprocs)
            v = yield from arr.get_slice(dsm, 0, 1024)
            yield from dsm.barrier(0, participants=nprocs)
            return float(v.sum())

        r = run_program(m, program, nprocs=32)
        assert all(x == float(np.arange(1024).sum()) for x in r.results)

    def test_app_scales_to_32_nodes(self):
        from repro.apps import make_app
        from repro.runtime.program import run_program as rp

        app = make_app("water-nsquared", "tiny")
        m = Machine(MachineParams(n_nodes=32, granularity=1024),
                    protocol="hlrc", poll_dilation=app.poll_dilation)
        app.setup(m)
        r = rp(m, app.program, nprocs=32,
               sequential_time_us=app.sequential_time_us())
        assert r.stats.parallel_time_us > 0


class TestAllSoftwarePresets:
    def test_svm_preset_values(self):
        p = MachineParams(**dict(SVM_COSTS))
        assert p.granularity == PAGE_SIZE  # the default: no override needed
        assert p.fault_exception_us > 50.0
        assert p.tag_change_us > MachineParams().tag_change_us
        p.validate()

    def test_svm_overrides(self):
        """SVM_COSTS are RunConfig cost overrides; the node count and
        block size stay the config's own fields."""
        cfg = RunConfig("lu", "sc", 4096, nprocs=8, params=SVM_COSTS)
        assert cfg.params == SVM_COSTS and cfg.nprocs == 8
        assert cfg != RunConfig("lu", "sc", 4096, nprocs=8)

    def test_svm_faults_cost_more(self):
        """The same program takes longer when faults cost SVM prices --
        the paper's 'differences would be larger on real SVM systems'."""
        times = {}
        for name, params in (
            ("t0", MachineParams(n_nodes=4, granularity=4096)),
            ("svm", MachineParams(n_nodes=4, **dict(SVM_COSTS))),
        ):
            m = Machine(params, protocol="sc")
            seg = m.alloc(64 * 1024, "x")
            m.place(seg.base, 64 * 1024, 0)

            def program(dsm, rank, nprocs):
                if rank == 1:
                    yield from dsm.touch_read(seg.base, 64 * 1024)
                yield from dsm.barrier(0, participants=nprocs)

            r = run_program(m, program, nprocs=2)
            times[name] = r.stats.parallel_time_us
        assert times["svm"] > times["t0"]


class TestMemoryUtilization:
    def test_replication_factor_reflects_sharing(self):
        m = Machine(MachineParams(n_nodes=4, granularity=1024), protocol="sc")
        arr = SharedArray(m, "x", 512, dtype=np.float64)
        arr.init(np.zeros(512))
        arr.place(0, 512, 0)

        def program(dsm, rank, nprocs):
            if rank == 0:
                yield from arr.set_slice(dsm, 0, np.ones(512))
            yield from dsm.barrier(0, participants=nprocs)
            yield from arr.get_slice(dsm, 0, 512)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        util = memory_utilization(m)
        # All four nodes cached the whole array: ~4x replication.
        assert util["replication_factor"] > 3.0
        assert util["cached_bytes"] >= util["distinct_bytes"]

    def test_hlrc_twin_bytes_counted(self):
        m = Machine(MachineParams(n_nodes=2, granularity=1024), protocol="hlrc")
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        snapshot = {}

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 2048, pattern=3)
                snapshot.update(memory_utilization(m))  # twins live now
                yield from dsm.acquire(1)
                yield from dsm.release(1)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=2)
        assert snapshot["twin_bytes"] == 2048.0
        # After the release the twins are gone.
        assert memory_utilization(m)["twin_bytes"] == 0.0
