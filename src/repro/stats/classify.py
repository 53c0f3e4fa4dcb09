"""Sharing-pattern classifier: derives the paper's Table 2 columns
from measured run data rather than from prior knowledge.

* **writers per block** -- instrumented at the memory system: the
  maximum number of distinct writers of any block over the run
  (single vs multiple);
* **spatial access granularity** -- the average contiguous run length
  of application region accesses (coarse if accesses average >= one
  page);
* **temporal synchronization granularity** -- average computation time
  between consecutive synchronization events per processor, compared
  against the platform's ~150 us minimum synchronization handling time
  (the paper classifies "fine" when the ratio is within ~1-2 orders of
  magnitude).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Set

from repro.cluster.config import PAGE_SIZE
from repro.hooks import Hooks

#: Section 5.2.1: minimum time to handle a synchronization event
MIN_SYNC_HANDLING_US = 150.0
#: "if average computation time between two consecutive synchronization
#: events is less than several milliseconds, the application is
#: classified as having fine-grain synchronization"
FINE_SYNC_THRESHOLD_US = 5000.0
#: accesses of at least half a page (median) count as coarse-grained
COARSE_ACCESS_BYTES = PAGE_SIZE / 2
#: a quarter of written blocks having >1 writer marks an application
#: as genuinely multiple-writer (below that it is boundary artifact)
MULTI_WRITER_FRACTION = 0.25


@dataclass
class AccessTrace(Hooks):
    """Aggregated access observations for one run.

    Implemented as an instrumentation hook (see
    :mod:`repro.hooks`): region shapes arrive through
    ``on_region`` and distinct writers per block through
    ``on_write_fault`` (every writer of a block faults on it at least
    once, so fault-level observation identifies all writers).
    """

    writers_per_block: Dict[int, Set[int]] = field(default_factory=dict)
    read_accesses: int = 0
    read_bytes: int = 0
    write_accesses: int = 0
    write_bytes: int = 0
    #: histogram of read-access sizes (communication-inducing accesses)
    read_sizes: Counter = field(default_factory=Counter)

    # -- hook interface -------------------------------------------------
    def on_region(self, node_id: int, addr: int, size: int, write: bool) -> None:
        self.record_region(size, write)

    def on_write_fault(self, node_id: int, block: int) -> None:
        self.record_write(node_id, block)

    # -- recording ------------------------------------------------------
    def record_write(self, node: int, block: int) -> None:
        self.writers_per_block.setdefault(block, set()).add(node)

    def record_region(self, size: int, write: bool) -> None:
        if write:
            self.write_accesses += 1
            self.write_bytes += size
        else:
            self.read_sizes[size] += 1
            self.read_accesses += 1
            self.read_bytes += size

    @property
    def max_writers(self) -> int:
        if not self.writers_per_block:
            return 0
        return max(len(w) for w in self.writers_per_block.values())

    @property
    def multi_writer_fraction(self) -> float:
        """Fraction of written blocks with more than one writer.

        The paper's single/multiple classification describes the
        application's *dominant* logical pattern: Ocean-Rowwise is
        "single writer" even though its partition-boundary blocks see
        two writers (that incidental false sharing is the artifact the
        protocols fight, not the application's character).  A block-
        fraction threshold separates dominant multi-writer sharing from
        boundary artifacts."""
        if not self.writers_per_block:
            return 0.0
        multi = sum(1 for w in self.writers_per_block.values() if len(w) > 1)
        return multi / len(self.writers_per_block)

    @property
    def mean_access_bytes(self) -> float:
        n = self.read_accesses + self.write_accesses
        if n == 0:
            return 0.0
        return (self.read_bytes + self.write_bytes) / n

    @staticmethod
    def _median(hist: Counter) -> float:
        total = sum(hist.values())
        if total == 0:
            return 0.0
        mid = (total + 1) // 2
        seen = 0
        for size in sorted(hist):
            seen += hist[size]
            if seen >= mid:
                return float(size)
        return 0.0  # pragma: no cover

    @property
    def median_read_bytes(self) -> float:
        """Median *read* size.  Spatial access granularity is judged by
        the reads: they are the accesses that pull remote data in, and
        they are what the paper's fragmentation analysis is about.  (A
        program's writes land in its own partition and show up in the
        writers-per-block column instead.)"""
        return self._median(self.read_sizes)


@dataclass
class Classification:
    """One application's measured Table 2 row."""

    writers: str            # 'single' | 'multiple'
    access_grain: str       # 'coarse' | 'fine'
    sync_grain: str         # 'coarse' | 'fine'
    comp_per_sync_us: float
    barriers: int
    lock_acquires: int


def classify(trace: AccessTrace, stats) -> Classification:
    """Derive the classification from a trace plus run stats."""
    # Multiple-writer when a substantial fraction of blocks have >1
    # writer OR some block is written by many processors (a heavily
    # shared structure like a tree's top levels counts even when large
    # single-writer arrays dilute the block fraction).  Exactly two
    # writers on a few blocks is the partition-boundary artifact of a
    # logically single-writer program (Ocean-Rowwise).
    writers = (
        "multiple"
        if (
            trace.multi_writer_fraction > MULTI_WRITER_FRACTION
            or trace.max_writers >= 4
        )
        else "single"
    )
    access = (
        "coarse" if trace.median_read_bytes >= COARSE_ACCESS_BYTES else "fine"
    )

    # The paper's "computation time / synch" column divides per-
    # processor compute time by the total number of synchronization
    # events: lock calls (all processors) plus barrier episodes --
    # e.g. LU: (73.41s/16)/64 barriers = 71.69 ms, and Barnes-Original
    # under the LRC protocols: (33.787s/16)/17,167 locks ~ 0.12 ms.
    per_proc_compute = stats.total_compute_us / max(1, stats.n_nodes)
    barrier_episodes = max((n.barriers for n in stats.nodes), default=0)
    sync_events = stats.total_lock_acquires + barrier_episodes
    if sync_events == 0:
        comp_per_sync = float("inf")
        sync = "coarse"
    else:
        comp_per_sync = per_proc_compute / sync_events
        sync = "fine" if comp_per_sync < FINE_SYNC_THRESHOLD_US else "coarse"

    return Classification(
        writers=writers,
        access_grain=access,
        sync_grain=sync,
        comp_per_sync_us=comp_per_sync,
        barriers=max((n.barriers for n in stats.nodes), default=0),
        lock_acquires=stats.total_lock_acquires,
    )


def install_trace(machine) -> AccessTrace:
    """Attach an AccessTrace to a machine before running a program."""
    trace = AccessTrace()
    machine.add_hooks(trace)
    return trace


def classify_app(name: str, scale: str = "default",
                 nprocs: int = 16) -> Classification:
    """Run one application under an :class:`AccessTrace` (HLRC,
    1024-byte blocks) and classify it.

    The machine runs without the application's poll dilation, unlike
    every matrix cell, so the comp/sync column is the undilated compute
    time between synchronization events.
    """
    # imported here: the cluster and runtime layers import repro.stats
    from repro.apps import make_app
    from repro.cluster.config import MachineParams
    from repro.cluster.machine import Machine
    from repro.runtime.program import run_program

    app = make_app(name, scale=scale)
    machine = Machine(MachineParams(n_nodes=nprocs, granularity=1024),
                      protocol="hlrc")
    app.setup(machine)
    trace = install_trace(machine)
    run_program(machine, app.program, nprocs=nprocs,
                sequential_time_us=app.sequential_time_us())
    return classify(trace, machine.stats)
