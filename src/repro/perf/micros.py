"""Micro-workloads for the simulator-core performance suite.

Each micro is a zero-argument callable that performs a fixed,
fully deterministic amount of work and returns ``(counts, sha)``:

* ``counts`` -- work units performed (``{"events": N}`` or
  ``{"ops": N}``), from which the harness derives throughput
  (events/sec, ops/sec, runs/sec) using the *median* wall time;
* ``sha`` -- a short digest of the workload's observable result for
  determinism checking, or ``None`` for pure-throughput micros.

The suite covers the four hot layers of the simulator:

* ``engine_churn`` -- the event loop alone: heap-lane scheduling,
  the zero-delay FIFO fast lane, and lazily-skipped cancellations;
* ``engine_policy`` -- the same workload through the policy-driven
  dispatch loop (``repro.mc``'s per-schedule cost);
* ``vc_merge`` -- vector-clock merge/dominates, the per-grant cost
  of the LRC protocols;
* ``diff_roundtrip`` -- twin/diff create+apply over the three block
  shapes that occur in practice (unchanged, one contiguous run,
  scattered runs);
* ``full_cell_{sc,swlrc,hlrc}`` -- one tiny LU cell end to end per
  protocol: the number every other table in the repo is built from.

Determinism is part of the contract: the full-cell micros hash their
final stats, and the harness refuses to report timings whose reps
disagree on the hash.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, Optional, Tuple

#: counts returned by a micro, e.g. {"events": 40000}
Counts = Dict[str, int]
MicroFn = Callable[[], Tuple[Counts, Optional[str]]]

#: full-cell configuration (one tiny LU cell, the PR-2 smoke shape)
FULL_CELL_APP = "lu"
FULL_CELL_GRANULARITY = 1024
FULL_CELL_NPROCS = 16
FULL_CELL_SCALE = "tiny"


# ----------------------------------------------------------------------
# engine churn
# ----------------------------------------------------------------------
def engine_churn(n_events: int = 40_000, chains: int = 16) -> Tuple[Counts, None]:
    """Pure event-loop throughput: no protocol, no block data.

    ``chains`` self-rescheduling callbacks hop through simulated time
    with a cheap multiplicative hash choosing, per hop, between the
    zero-delay FIFO lane, a positive-delay heap push, and occasionally
    an extra schedule+cancel pair (exercising the lazy cancelled-entry
    skip).  Everything is derived from the (chain, step) pair, so the
    event sequence is bit-identical across runs.
    """
    from repro.sim.engine import Engine

    eng = Engine()
    budget = [n_events]

    def sink() -> None:
        pass

    def hop(chain: int, step: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        r = (chain * 2654435761 + step * 40503) & 0xFFFF
        if r % 4 == 0:
            eng.post(0.0, hop, chain, step + 1)
        else:
            eng.post((r % 97) / 8.0, hop, chain, step + 1)
        if r % 7 == 0:
            ev = eng.schedule((r % 13) / 4.0 + 0.5, sink)
            if r % 14 == 0:
                ev.cancel()

    for c in range(chains):
        eng.post(float(c), hop, c, 0)
    eng.run()
    return {"events": eng.events_run}, None


# ----------------------------------------------------------------------
# policy-driven dispatch (the repro.mc loop)
# ----------------------------------------------------------------------
def engine_policy(n_events: int = 8_000, chains: int = 16) -> Tuple[Counts, None]:
    """The controllable-scheduler dispatch path under ``DefaultPolicy``.

    Same deterministic hop workload as ``engine_churn`` but run through
    ``_run_policy``: every dispatch snapshots and sorts the ready set,
    removes the chosen entry from its lane, and notifies the policy.
    That is the loop every ``repro.mc`` exploration schedule pays per
    event, so regressions here multiply by the schedule count.  Fewer
    events than ``engine_churn``: the path is O(pending) per dispatch
    by design.
    """
    from repro.sim.engine import DefaultPolicy, Engine

    eng = Engine()
    eng.set_policy(DefaultPolicy())
    budget = [n_events]

    def sink() -> None:
        pass

    def hop(chain: int, step: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        r = (chain * 2654435761 + step * 40503) & 0xFFFF
        if r % 4 == 0:
            eng.post(0.0, hop, chain, step + 1)
        else:
            eng.post((r % 97) / 8.0, hop, chain, step + 1)
        if r % 7 == 0:
            ev = eng.schedule((r % 13) / 4.0 + 0.5, sink)
            if r % 14 == 0:
                ev.cancel()

    for c in range(chains):
        eng.post(float(c), hop, c, 0)
    eng.run()
    return {"events": eng.events_run}, None


# ----------------------------------------------------------------------
# vector clocks
# ----------------------------------------------------------------------
def vc_merge(n_nodes: int = 32, iterations: int = 20_000) -> Tuple[Counts, None]:
    """Vector-clock merge + dominance over a pool of seeded clocks."""
    from repro.core.timestamps import VectorClock

    pool = [VectorClock(n_nodes) for _ in range(8)]
    for i, c in enumerate(pool):
        for j in range(n_nodes):
            c.v[j] = (i * 37 + j * 11) % 50
    dominated = 0
    for k in range(iterations):
        a = pool[k % 8]
        b = pool[(k * 5 + 3) % 8]
        a.merge(b.v)
        if a.dominates(b.v):
            dominated += 1
        a.tick(k % n_nodes)
    # one merge + one dominates per iteration
    return {"ops": iterations * 2, "dominated": dominated}, None


# ----------------------------------------------------------------------
# twin/diff
# ----------------------------------------------------------------------
def diff_roundtrip(block_bytes: int = 4096, reps: int = 300) -> Tuple[Counts, None]:
    """create_diff + apply_diff over the three real-world block shapes."""
    from repro.core.diff import apply_diff, create_diff
    from repro.simcore import alloc_block, frombytes

    base = bytearray(i % 251 for i in range(block_bytes))
    twin = frombytes(base)
    identical = frombytes(base)
    sweep_b = bytearray(base)
    for i in range(64, min(1600, block_bytes)):
        sweep_b[i] += 1
    sweep = frombytes(sweep_b)
    scattered_b = bytearray(base)
    for i in range(0, block_bytes, 17):
        scattered_b[i] += 3
    scattered = frombytes(scattered_b)
    target = alloc_block(block_bytes)
    ops = 0
    for _ in range(reps):
        for dirty in (identical, sweep, scattered):
            d = create_diff(7, dirty, twin)
            apply_diff(target, d)
            ops += 1
    return {"ops": ops}, None


# ----------------------------------------------------------------------
# full cells
# ----------------------------------------------------------------------
def _stats_sha(result) -> str:
    blob = json.dumps(result.stats.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def full_cell(protocol: str) -> Tuple[Counts, str]:
    """One tiny LU cell end to end under ``protocol``."""
    from repro.harness.experiment import RunConfig, run_experiment

    cfg = RunConfig(
        app=FULL_CELL_APP,
        protocol=protocol,
        granularity=FULL_CELL_GRANULARITY,
        nprocs=FULL_CELL_NPROCS,
        scale=FULL_CELL_SCALE,
    )
    result = run_experiment(cfg)
    counts: Counts = {"runs": 1, "events": result.machine.engine.events_run}
    return counts, _stats_sha(result)


def full_cell_sc() -> Tuple[Counts, str]:
    return full_cell("sc")


def full_cell_swlrc() -> Tuple[Counts, str]:
    return full_cell("swlrc")


def full_cell_hlrc() -> Tuple[Counts, str]:
    return full_cell("hlrc")


#: Per-micro measurement overrides, applied on top of the suite-wide
#: reps/warmup by :func:`repro.perf.gate.run_suite`.  ``engine_churn``
#: is the one noisy micro: its first runs still pay allocator and
#: code-object warmup (the committed baseline shows 33-56 ms spread),
#: so it gets a longer warmup and a rep floor that keeps the median
#: robust against scheduler interference on shared CI runners.
MICRO_TUNING: Dict[str, Dict[str, int]] = {
    "engine_churn": {"warmup": 3, "min_reps": 9},
}

#: the suite, in run order
MICROS: Dict[str, MicroFn] = {
    "engine_churn": engine_churn,
    "engine_policy": engine_policy,
    "vc_merge": vc_merge,
    "diff_roundtrip": diff_roundtrip,
    "full_cell_sc": full_cell_sc,
    "full_cell_swlrc": full_cell_swlrc,
    "full_cell_hlrc": full_cell_hlrc,
}


def calibration_spin(n: int = 400_000) -> int:
    """A pure-Python interpreter-speed probe.

    The gate normalizes baseline medians by the ratio of calibration
    times, so a baseline recorded on a fast machine does not flag a
    slower CI runner (or vice versa) as a regression.  The loop touches
    only arithmetic and list indexing -- the same mix the simulator's
    hot loops are made of.
    """
    acc = 0
    buf = [0] * 64
    for i in range(n):
        acc = (acc + i * 2654435761) & 0xFFFFFFFF
        buf[i & 63] = acc
    return acc
