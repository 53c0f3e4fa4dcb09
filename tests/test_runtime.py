"""Tests for the DSM runtime layer: region ops, shared arrays, the
program runner, and the machine assembly."""

import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Machine,
    MachineParams,
    SharedArray,
    SharedMatrix,
    run_program,
)
from repro.hooks import Hooks, add_hooks
from repro.runtime.dsm import Dsm


def make(protocol="sc", g=256, n=4):
    return Machine(MachineParams(n_nodes=n, granularity=g), protocol=protocol)


class TestRegionOps:
    def test_write_then_read_roundtrip(self):
        m = make()
        seg = m.alloc(1000, "x")
        data = np.arange(100, dtype=np.uint8)

        def program(dsm, rank, nprocs):
            yield from dsm.write(seg.base + 123, data)
            out = yield from dsm.read(seg.base + 123, 100)
            return out

        r = run_program(m, program, nprocs=1)
        assert np.array_equal(r.results[0], data)

    def test_write_accepts_bytes(self):
        m = make()
        seg = m.alloc(64, "x")

        def program(dsm, rank, nprocs):
            yield from dsm.write(seg.base, b"hello")
            out = yield from dsm.read(seg.base, 5)
            return bytes(out)

        r = run_program(m, program, nprocs=1)
        assert r.results[0] == b"hello"

    @pytest.mark.parametrize("data", [
        array.array("d", [1.0] * 8),
        np.ones(8),
        memoryview(np.ones(8)),
    ], ids=["array-d", "numpy-f8", "memoryview-f8"])
    def test_write_reports_typed_buffer_region_in_bytes(self, data):
        """A typed buffer of 8 doubles is a 64-byte region to the hooks
        (the race detector and the mc footprint), not an 8-byte one."""
        m = make()
        seg = m.alloc(128, "x")
        seen = []

        class Recorder(Hooks):
            def on_region(self, node_id, addr, size, write):
                seen.append((node_id, addr, size, write))

        add_hooks(m, Recorder())

        def program(dsm, rank, nprocs):
            yield from dsm.write(seg.base, data)
            out = yield from dsm.read(seg.base, 64)
            return bytes(out)

        r = run_program(m, program, nprocs=1)
        assert r.results[0] == bytes(memoryview(data).cast("B"))
        assert seen[0] == (0, seg.base, 64, True)

    def test_touch_write_pattern_fills(self):
        m = make()
        seg = m.alloc(512, "x")

        def program(dsm, rank, nprocs):
            yield from dsm.touch_write(seg.base, 512, pattern=0xAB)
            out = yield from dsm.read(seg.base, 512)
            return out

        r = run_program(m, program, nprocs=1)
        assert bytes(r.results[0]) == bytes([0xAB]) * 512

    def test_touch_read_faults_without_copying(self):
        m = make()
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 1)

        def program(dsm, rank, nprocs):
            if rank == 0:
                yield from dsm.touch_read(seg.base, 4096)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=2)
        assert r.stats.read_faults == 4096 // 256

    @given(
        offset=st.integers(min_value=0, max_value=2000),
        size=st.integers(min_value=1, max_value=1500),
        g=st.sampled_from([64, 256, 1024, 4096]),
    )
    @settings(max_examples=30, deadline=None)
    def test_roundtrip_property_across_granularities(self, offset, size, g):
        m = make(g=g)
        seg = m.alloc(4096, "x")
        rng = np.random.default_rng(offset * 7 + size)
        data = rng.integers(0, 256, size, dtype=np.uint8)
        addr = seg.base + offset

        def program(dsm, rank, nprocs):
            yield from dsm.write(addr, data)
            out = yield from dsm.read(addr, size)
            return out

        r = run_program(m, program, nprocs=1)
        assert np.array_equal(r.results[0], data)


class TestSharedArray:
    def test_index_bounds(self):
        m = make()
        arr = SharedArray(m, "a", 10)
        with pytest.raises(IndexError):
            arr.addr(10)
        with pytest.raises(IndexError):
            arr.addr(-1)

    def test_init_requires_matching_length(self):
        m = make()
        arr = SharedArray(m, "a", 10)
        with pytest.raises(ValueError):
            arr.init(np.zeros(9))

    def test_dtype_preserved(self):
        m = make()
        arr = SharedArray(m, "a", 8, dtype=np.int32)
        arr.init(np.arange(8, dtype=np.int32))

        def program(dsm, rank, nprocs):
            v = yield from arr.get(dsm, 3)
            yield from arr.set(dsm, 3, v * 10)
            v2 = yield from arr.get(dsm, 3)
            return int(v2)

        r = run_program(m, program, nprocs=1)
        assert r.results[0] == 30

    def test_empty_slice_ok(self):
        m = make()
        arr = SharedArray(m, "a", 8)

        def program(dsm, rank, nprocs):
            yield from arr.set_slice(dsm, 4, np.array([]))
            out = yield from arr.get_slice(dsm, 2, 2)
            return len(out)

        r = run_program(m, program, nprocs=1)
        assert r.results[0] == 0


class TestSharedMatrix:
    def test_row_roundtrip(self):
        m = make()
        mat = SharedMatrix(m, "m", (4, 8))
        mat.init(np.zeros((4, 8)))

        def program(dsm, rank, nprocs):
            yield from mat.set_row(dsm, 2, np.arange(8, dtype=np.float64))
            row = yield from mat.get_row(dsm, 2)
            v = yield from mat.get(dsm, 2, 5)
            return float(row.sum()), float(v)

        r = run_program(m, program, nprocs=1)
        assert r.results[0] == (28.0, 5.0)

    def test_bounds(self):
        m = make()
        mat = SharedMatrix(m, "m", (4, 8))
        with pytest.raises(IndexError):
            mat.addr(4, 0)
        with pytest.raises(IndexError):
            mat.addr(0, 8)


class TestRunProgram:
    def test_results_in_rank_order(self):
        m = make()

        def program(dsm, rank, nprocs):
            yield from dsm.compute(10.0 * (nprocs - rank))
            return rank

        r = run_program(m, program, nprocs=4)
        assert r.results == [0, 1, 2, 3]

    def test_deadlock_detected(self):
        m = make()

        def program(dsm, rank, nprocs):
            # Only one of two arrives at the barrier.
            if rank == 0:
                yield from dsm.barrier(0, participants=2)
            else:
                yield from dsm.compute(1.0)

        with pytest.raises(RuntimeError, match="deadlock"):
            run_program(m, program, nprocs=2)

    def test_bad_nprocs_rejected(self):
        m = make()
        with pytest.raises(ValueError):
            run_program(m, lambda dsm, r, n: iter(()), nprocs=9)

    def test_speedup_definition(self):
        m = make()

        def program(dsm, rank, nprocs):
            yield from dsm.compute(1000.0)

        r = run_program(m, program, nprocs=4, sequential_time_us=4000.0)
        assert r.speedup == pytest.approx(4000.0 / r.elapsed_us)


class TestMachine:
    def test_place_segment_and_init_data(self):
        m = make()
        seg = m.alloc(1024, "x")
        m.place_segment(seg, 2)
        m.init_data(seg.base, np.full(1024, 7, dtype=np.uint8))
        block = seg.base // 256
        assert m.home.home(block) == 2
        assert bytes(m.nodes[2].store.block(block)) == bytes([7]) * 256

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            Machine(MachineParams(n_nodes=2), protocol="mesi")

    def test_message_dispatch_routes_by_prefix(self):
        m = make()
        # All three families are registered through one dispatcher.
        assert m.locks.handles("lock_req")
        assert m.barriers.handles("barrier_arrive")
        assert not m.locks.handles("read_req")
