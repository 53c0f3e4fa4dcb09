"""Property-based coherence testing with randomly generated programs.

Hypothesis generates small *data-race-free* parallel programs -- every
shared location is either owned by a single writer between barriers, or
protected by a lock -- and we execute each program under every
registered protocol (the paper's three, tardis, and the
delayed-consistency and eager-release-consistency extensions) at
several granularities.  Correctness oracle: a sequential
reference execution that applies the same operations in a
synchronization-consistent order.

Two program families:

* **barrier-phased**: each round, every rank writes its own disjoint
  slice (placed arbitrarily), then a barrier, then every rank reads
  arbitrary slices and must observe the latest round's values.
* **lock-protected counters**: ranks perform read-modify-write updates
  on shared cells under per-cell locks; the final values must equal the
  total number of updates (no lost updates) under every protocol.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Machine, MachineParams, SharedArray, run_program
from repro.core.registry import available_protocols

#: every registered protocol except the model checker's planted-bug
#: canary, which registers itself when repro.mc.broken is imported
PROTOCOLS = [p for p in available_protocols() if p != "swlrc-broken"]


@st.composite
def barrier_phase_programs(draw):
    """A random barrier-phased program description."""
    nprocs = draw(st.integers(min_value=2, max_value=4))
    n_elems = draw(st.integers(min_value=nprocs, max_value=96))
    rounds = draw(st.integers(min_value=1, max_value=3))
    granularity = draw(st.sampled_from([64, 256, 4096]))
    # Disjoint slice per rank per round (random partition points).
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=n_elems - 1),
                min_size=nprocs - 1,
                max_size=nprocs - 1,
                unique=True,
            )
        )
    )
    bounds = [0] + cuts + [n_elems]
    # Placement of the array start across nodes.
    placement = draw(st.integers(min_value=0, max_value=nprocs - 1))
    # Per-rank read windows (arbitrary, may overlap anything).
    reads = [
        (
            draw(st.integers(min_value=0, max_value=n_elems - 1)),
            draw(st.integers(min_value=1, max_value=n_elems)),
        )
        for _ in range(nprocs)
    ]
    return {
        "nprocs": nprocs,
        "n_elems": n_elems,
        "rounds": rounds,
        "granularity": granularity,
        "bounds": bounds,
        "placement": placement,
        "reads": reads,
    }


@given(spec=barrier_phase_programs())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_barrier_phased_programs_coherent(spec):
    nprocs = spec["nprocs"]
    n = spec["n_elems"]
    bounds = spec["bounds"]

    def value(rank, rnd, idx):
        return float(rnd * 1_000_000 + rank * 10_000 + idx)

    # Sequential oracle.
    oracle = np.zeros(n)
    for rnd in range(spec["rounds"]):
        for rank in range(nprocs):
            lo, hi = bounds[rank], bounds[rank + 1]
            for i in range(lo, hi):
                oracle[i] = value(rank, rnd, i)

    for protocol in PROTOCOLS:
        m = Machine(
            MachineParams(n_nodes=nprocs, granularity=spec["granularity"]),
            protocol=protocol,
        )
        arr = SharedArray(m, "x", n, dtype=np.float64)
        arr.init(np.zeros(n))
        arr.place(0, n, spec["placement"])

        def program(dsm, rank, nprocs_):
            for rnd in range(spec["rounds"]):
                lo, hi = bounds[rank], bounds[rank + 1]
                if hi > lo:
                    vals = np.array(
                        [value(rank, rnd, i) for i in range(lo, hi)]
                    )
                    yield from arr.set_slice(dsm, lo, vals)
                yield from dsm.barrier(0, participants=nprocs_)
                # Reads must see the freshest round everywhere.
                rlo, rlen = spec["reads"][rank]
                rhi = min(n, rlo + rlen)
                got = yield from arr.get_slice(dsm, rlo, rhi)
                expect = np.array(
                    [
                        value(w, rnd, i)
                        for i in range(rlo, rhi)
                        for w in [next(
                            r for r in range(nprocs_)
                            if bounds[r] <= i < bounds[r + 1]
                        )]
                    ]
                )
                assert np.array_equal(got, expect), (
                    protocol, rnd, rank, got, expect,
                )
                yield from dsm.barrier(1, participants=nprocs_)
            return 0.0

        run_program(m, program, nprocs=nprocs)


@st.composite
def lock_counter_programs(draw):
    nprocs = draw(st.integers(min_value=2, max_value=4))
    n_cells = draw(st.integers(min_value=1, max_value=6))
    increments = draw(st.integers(min_value=1, max_value=4))
    granularity = draw(st.sampled_from([64, 4096]))
    # Which cells each rank updates, in which order.
    schedules = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n_cells - 1),
                min_size=increments,
                max_size=increments,
            )
        )
        for _ in range(nprocs)
    ]
    return {
        "nprocs": nprocs,
        "n_cells": n_cells,
        "granularity": granularity,
        "schedules": schedules,
    }


@given(spec=lock_counter_programs())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_lock_protected_updates_never_lost(spec):
    nprocs = spec["nprocs"]
    n_cells = spec["n_cells"]
    expected = np.zeros(n_cells, dtype=np.int64)
    for sched in spec["schedules"]:
        for cell in sched:
            expected[cell] += 1

    for protocol in PROTOCOLS:
        m = Machine(
            MachineParams(n_nodes=nprocs, granularity=spec["granularity"]),
            protocol=protocol,
        )
        arr = SharedArray(m, "cells", n_cells, dtype=np.int64)
        arr.init(np.zeros(n_cells, dtype=np.int64))

        def program(dsm, rank, nprocs_):
            for cell in spec["schedules"][rank]:
                yield from dsm.acquire(100 + cell)
                v = yield from arr.get(dsm, cell)
                yield from dsm.compute(2.0)
                yield from arr.set(dsm, cell, int(v) + 1)
                yield from dsm.release(100 + cell)
            yield from dsm.barrier(0, participants=nprocs_)
            # Everyone reads the final counters under the locks.
            out = []
            for cell in range(n_cells):
                yield from dsm.acquire(100 + cell)
                v = yield from arr.get(dsm, cell)
                yield from dsm.release(100 + cell)
                out.append(int(v))
            return out

        r = run_program(m, program, nprocs=nprocs)
        for rank, final in enumerate(r.results):
            assert final == list(expected), (protocol, rank, final, expected)


@given(
    g=st.sampled_from([64, 256, 1024, 4096]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=15, deadline=None)
def test_protocols_agree_on_final_memory_state(g, seed):
    """After a fully barrier-synchronized random write pattern, the
    authoritative memory contents must be identical across protocols."""
    rng = np.random.default_rng(seed)
    n = 64
    writes = [
        (int(rng.integers(0, 4)), int(rng.integers(0, n)), float(rng.integers(1, 100)))
        for _ in range(12)
    ]

    finals = {}
    for protocol in PROTOCOLS:
        m = Machine(MachineParams(n_nodes=4, granularity=g), protocol=protocol)
        arr = SharedArray(m, "x", n, dtype=np.float64)
        arr.init(np.zeros(n))

        def program(dsm, rank, nprocs):
            for step, (writer, idx, val) in enumerate(writes):
                if rank == writer:
                    yield from arr.set(dsm, idx, val)
                yield from dsm.barrier(0, participants=nprocs)
            if rank == 0:
                out = yield from arr.get_slice(dsm, 0, n)
                return out.tolist()
            return None

        r = run_program(m, program, nprocs=4)
        finals[protocol] = tuple(r.results[0])

    base = finals["sc"]
    for proto in PROTOCOLS:
        assert finals[proto] == base, proto
