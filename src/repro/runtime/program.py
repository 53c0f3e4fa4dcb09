"""Program runner: spawn one application process per node, run the
machine, collect timing.

An application *program* is a callable ``program(dsm, rank, nprocs,
**kwargs) -> generator``; the runner creates the per-node Dsm handles,
wraps each generator in a simulation process, and runs the engine until
every process finishes.  The wall-clock simulation time of the parallel
section becomes ``stats.parallel_time_us``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.cluster.machine import Machine
from repro.runtime.dsm import Dsm
from repro.sim.process import Process
from repro.stats.counters import Stats


class Deadlock(RuntimeError):
    """The engine drained while processes were still parked; they are
    :attr:`unfinished`, in rank order (process ``rank<r>`` runs rank r)."""

    def __init__(self, message: str, unfinished: Sequence[Process] = ()):
        super().__init__(message)
        self.unfinished = list(unfinished)


@dataclass
class ProgramResult:
    """Outcome of one program run."""

    machine: Machine
    stats: Stats
    elapsed_us: float
    results: List  # per-rank generator return values

    @property
    def speedup(self) -> float:
        return self.stats.speedup


def run_program(
    machine: Machine,
    program: Callable,
    nprocs: Optional[int] = None,
    sequential_time_us: float = 0.0,
    **kwargs,
) -> ProgramResult:
    """Run ``program`` on ``nprocs`` nodes (default: all) to completion.

    ``sequential_time_us`` is the modeled uniprocessor execution time
    of the same problem (no DSM, no polling instrumentation); it is
    stored in the stats so ``stats.speedup`` matches the paper's
    definition.
    """
    n = machine.params.n_nodes if nprocs is None else nprocs
    if not 1 <= n <= machine.params.n_nodes:
        raise ValueError(f"nprocs {n} out of range")
    start = machine.engine.now
    procs = []
    for rank in range(n):
        dsm = Dsm(machine, rank)
        gen = program(dsm, rank, n, **kwargs)
        procs.append(Process(machine.engine, gen, name=f"rank{rank}"))
    machine.run()
    unfinished = [p for p in procs if not p.finished]
    if unfinished:
        raise Deadlock(
            f"deadlock: processes never finished: {[p.name for p in unfinished]} "
            f"(simulated t={machine.engine.now:.1f}us)",
            unfinished,
        )
    elapsed = machine.engine.now - start
    machine.stats.parallel_time_us = elapsed
    machine.stats.sequential_time_us = sequential_time_us
    return ProgramResult(
        machine=machine,
        stats=machine.stats,
        elapsed_us=elapsed,
        results=[p.result for p in procs],
    )
