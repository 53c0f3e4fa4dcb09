"""Tests for the Eager Release Consistency extension protocol."""

import numpy as np
import pytest

from repro import Machine, MachineParams, SharedArray, run_program
from repro.runtime.shared_array import dtype, typed_view


def make(g=4096, n=4):
    return Machine(MachineParams(n_nodes=n, granularity=g), protocol="erc")


def test_registered():
    from repro.core import available_protocols, get_protocol

    assert "erc" in available_protocols()
    assert not get_protocol("erc").uses_notices  # acquires carry nothing


@pytest.mark.parametrize("g", [64, 256, 1024, 4096])
def test_barrier_coherence(g):
    m = make(g=g, n=8)
    arr = SharedArray(m, "x", 512, dtype=np.float64)
    arr.init(np.zeros(512))

    def program(dsm, rank, nprocs):
        n = 512 // nprocs
        yield from arr.set_slice(
            dsm, rank * n, np.arange(rank * n, rank * n + n, dtype=float)
        )
        yield from dsm.barrier(0, participants=nprocs)
        v = yield from arr.get_slice(dsm, 0, 512)
        yield from dsm.barrier(0, participants=nprocs)
        return float(v.sum())

    r = run_program(m, program, nprocs=8)
    assert all(x == float(np.arange(512).sum()) for x in r.results)


def test_release_publishes_before_any_acquire():
    """The eager property: once the writer's release returns, the home
    holds the data and every other cached copy is invalid -- no acquire
    needed anywhere."""
    m = make()
    arr = SharedArray(m, "x", 512, dtype=np.float64)
    arr.init(np.zeros(512))
    arr.place(0, 512, 3)
    block = arr.segment.base // 4096
    state = {}

    def program(dsm, rank, nprocs):
        if rank == 0:
            yield from dsm.touch_read(arr.segment.base, 64)  # cache a copy
            yield from dsm.barrier(0, participants=nprocs)
            yield from dsm.barrier(1, participants=nprocs)
            return 0.0
        elif rank == 1:
            yield from dsm.barrier(0, participants=nprocs)
            yield from dsm.acquire(5)
            yield from arr.set(dsm, 0, 42.0)
            yield from dsm.release(5)
            # Immediately after the release: home current, reader dead.
            state["home_val"] = float(
                typed_view(m.nodes[3].store.block(block), dtype(np.float64))[0]
            )
            state["reader_tag"] = m.nodes[0].access.tag(block)
            yield from dsm.barrier(1, participants=nprocs)
            return 0.0
        else:
            yield from dsm.barrier(0, participants=nprocs)
            yield from dsm.barrier(1, participants=nprocs)
            return 0.0

    run_program(m, program, nprocs=3)
    from repro.memory.access_control import INV

    assert state["home_val"] == 42.0
    assert state["reader_tag"] == INV


def test_no_lost_updates_with_locks():
    m = make()
    arr = SharedArray(m, "c", 1, dtype=np.int64)
    arr.init([0])

    def program(dsm, rank, nprocs):
        for _ in range(5):
            yield from dsm.acquire(1)
            v = yield from arr.get(dsm, 0)
            yield from arr.set(dsm, 0, int(v) + 1)
            yield from dsm.release(1)
        yield from dsm.barrier(0, participants=nprocs)
        v = yield from arr.get(dsm, 0)
        return int(v)

    r = run_program(m, program, nprocs=4)
    assert all(x == 20 for x in r.results)


def test_concurrent_writers_merge_via_piggyback():
    """Two writers under different locks, one block: the eager
    invalidation of the second writer's copy carries its diff along."""
    m = make()
    arr = SharedArray(m, "x", 512, dtype=np.float64)
    arr.init(np.zeros(512))
    arr.place(0, 512, 3)

    def program(dsm, rank, nprocs):
        if rank < 2:
            yield from dsm.acquire(rank + 1)
            yield from arr.set_slice(dsm, rank * 256,
                                     np.full(256, float(rank + 1)))
            yield from dsm.release(rank + 1)
        yield from dsm.barrier(0, participants=nprocs)
        v = yield from arr.get_slice(dsm, 0, 512)
        return float(v.sum())

    r = run_program(m, program, nprocs=3)
    assert all(x == 256.0 * 3 for x in r.results)


def test_eager_release_is_expensive_lazy_acquire_is_cheap():
    """The protocol's signature cost profile versus HLRC: more release
    work (invalidation round trips) but zero acquire-side notices."""
    times = {}
    for proto in ("erc", "hlrc"):
        m = Machine(MachineParams(n_nodes=8, granularity=4096), protocol=proto)
        arr = SharedArray(m, "x", 512, dtype=np.float64)
        arr.init(np.zeros(512))
        arr.place(0, 512, 7)
        rel = {}

        def program(dsm, rank, nprocs):
            # Everyone caches the block first.
            yield from dsm.touch_read(arr.segment.base, 64)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 0:
                yield from dsm.acquire(3)
                yield from arr.set(dsm, 0, 1.0)
                t0 = dsm.now
                yield from dsm.release(3)
                rel["us"] = dsm.now - t0
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=8)
        times[proto] = rel["us"]
    # ERC's release must invalidate 6 remote copies; HLRC just flushes
    # one diff to the home.
    assert times["erc"] > times["hlrc"]


def test_copyset_tracks_fetchers():
    m = make()
    arr = SharedArray(m, "x", 512, dtype=np.float64)
    arr.init(np.zeros(512))
    arr.place(0, 512, 0)
    block = arr.segment.base // 4096

    def program(dsm, rank, nprocs):
        if rank > 0:
            yield from dsm.touch_read(arr.segment.base, 64)
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m, program, nprocs=4)
    assert m.protocol.copyset[block] == {1, 2, 3}


def test_quiescent_state_clean():
    m = make(g=1024)
    arr = SharedArray(m, "x", 512, dtype=np.float64)
    arr.init(np.zeros(512))

    def program(dsm, rank, nprocs):
        yield from arr.set(dsm, rank, float(rank))
        yield from dsm.barrier(0, participants=nprocs)

    run_program(m, program, nprocs=4)
    assert m.protocol._inflight == set()
    assert m.protocol._poisoned == set()
    assert all(not t for t in m.protocol.twins)
    assert all(not d for d in m.protocol.dirty)


def test_fetch_parked_during_invalidation_storm():
    """Regression: a fetch serviced while a release's invalidation
    transaction is open can hand out a snapshot missing a concurrent
    writer's piggybacked diff, leaving the requester a stale cached
    copy that nothing ever invalidates.

    The shape (found by hypothesis): three writers share a 64-byte
    block; the reader's poisoned-retry refetch races the slowest
    writer's piggybacked diff at the home.
    """
    m = Machine(MachineParams(n_nodes=3, granularity=64), protocol="erc")
    arr = SharedArray(m, "x", 9, dtype=np.float64)
    arr.init(np.zeros(9))
    arr.place(0, 9, 1)
    bounds = [0, 1, 2, 9]

    def value(rank, rnd, idx):
        return float(rnd * 1_000_000 + rank * 10_000 + idx)

    reads = [(0, 3), (0, 1), (0, 1)]
    failures = []

    def program(dsm, rank, nprocs):
        for rnd in range(2):
            lo, hi = bounds[rank], bounds[rank + 1]
            vals = np.array([value(rank, rnd, i) for i in range(lo, hi)])
            yield from arr.set_slice(dsm, lo, vals)
            yield from dsm.barrier(0, participants=nprocs)
            rlo, rlen = reads[rank]
            rhi = min(9, rlo + rlen)
            got = yield from arr.get_slice(dsm, rlo, rhi)
            expect = np.array([
                value(w, rnd, i)
                for i in range(rlo, rhi)
                for w in [next(r for r in range(nprocs)
                               if bounds[r] <= i < bounds[r + 1])]
            ])
            if not np.array_equal(got, expect):
                failures.append((rank, rnd, got.copy(), expect))
            yield from dsm.barrier(1, participants=nprocs)

    run_program(m, program, nprocs=3)
    assert not failures, failures
    # every storm closed, nothing left parked
    assert m.protocol._storms == {}
    assert m.protocol._parked == {}
