"""Barnes-Hut hierarchical N-body simulation, three versions (Section
4 / 5.3).  The versions differ in the tree-building algorithm, which
sets their synchronization frequency:

* **Barnes-Original** -- the SPLASH-2 "rebuild" version: every
  processor inserts its particles into one shared tree, locking tree
  cells.  The LRC protocols additionally require extra locking to make
  the program release-consistent: the paper reports 2,086 lock calls
  under SC vs 17,167 under the LRC protocols, with only ~120-150 us of
  computation between synchronizations -- fine-grain synchronization
  that makes relaxed protocols *never worthwhile* for this application
  (Section 5.2.2).
* **Barnes-Parttree** -- each processor builds a partial local tree,
  then the trees are merged: far fewer locks (~1.5 ms between syncs),
  but still too frequent for HLRC-4096 to beat SC-64.
* **Barnes-Spatial** -- space, not particles, is partitioned; the tree
  build uses no locks at all (barriers only), at the cost of load
  imbalance in the build phase (35% barrier time under SC-64).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Generator

from repro.apps.base import Application, register_app

#: bytes per particle record
BODY_BYTES = 96
#: bytes per tree cell
CELL_BYTES = 136
#: us per particle per step for the force phase (calibrated: 16384
#: particles x 2 steps ~ 33.787 s with the other phases below)
FORCE_US = 956.0
#: us per particle insertion into the tree
INSERT_US = 55.0
#: us per particle for the update phase
UPDATE_US = 20.0


class BarnesBase(Application):
    writers = "multiple"
    access_grain = "fine"
    paper_seq_time_s = 33.787
    poll_dilation = 0.10

    tiny_params = {"n_bodies": 256, "steps": 1}
    default_params = {"n_bodies": 2048, "steps": 2}
    full_params = {"n_bodies": 16384, "steps": 2}

    def _configure(self, n_bodies: int, steps: int) -> None:
        self.n_bodies = n_bodies
        self.steps = steps
        # Tree cells ~ 0.5 cells per body (Barnes-Hut octree shape).
        self.n_cells = max(64, n_bodies // 2)

    def sequential_time_us(self) -> float:
        n = self.n_bodies
        return self.steps * n * (FORCE_US + INSERT_US + UPDATE_US)

    # ------------------------------------------------------------------
    def setup(self, machine) -> None:
        nprocs = machine.params.n_nodes
        self.bodies = machine.alloc(self.n_bodies * BODY_BYTES, "bh-bodies")
        self.cells = machine.alloc(self.n_cells * CELL_BYTES, "bh-cells")
        for r in range(nprocs):
            lo, hi = self.split(self.n_bodies, nprocs, r)
            machine.place(self.bodies.base + lo * BODY_BYTES,
                          (hi - lo) * BODY_BYTES, r)
        # Tree cells end up spread round-robin over the nodes that
        # allocated them during previous builds.
        for c in range(self.n_cells):
            machine.place(self.cells.base + c * CELL_BYTES,
                          CELL_BYTES, c % nprocs)

    def body_addr(self, i: int) -> int:
        return self.bodies.base + i * BODY_BYTES

    def cell_addr(self, c: int) -> int:
        return self.cells.base + c * CELL_BYTES

    # ------------------------------------------------------------------
    # shared phases
    # ------------------------------------------------------------------
    def _cell_of_insertion(self, body: int, depth: int, step: int) -> int:
        """Deterministic scattered tree-path cell for an insertion."""
        return ((body * 2654435761) ^ (depth * 40503) ^ (step * 9176)) % self.n_cells

    def _force_phase(self, dsm, rank, nprocs, step, lo, hi) -> Generator:
        """Each rank's particles traverse the tree: scattered reads of
        cells and other bodies, then local writes of own particles."""
        mine = hi - lo
        chunk = 4
        for start in range(lo, hi, chunk):
            cnt = min(chunk, hi - start)
            # Tree traversal: scattered cell reads, ~log(n) distinct
            # cells per body.  This is what makes all Barnes versions
            # communication-heavy: at 64 bytes every cell is a separate
            # miss; at 4096 bytes a page fetch prefetches ~30 cells
            # (the 24x SC-64 vs HLRC-4096 read-miss gap of Table 12).
            for k in range(8):
                c = self._cell_of_insertion(start * 2654435761 + k * 7919, k, step)
                yield from dsm.touch_read(self.cell_addr(c), CELL_BYTES)
            # Nearby bodies of other partitions.  The force traversal
            # reads only their *prior-step* position fields; the owner's
            # same-phase update writes the velocity/new-position fields,
            # so the pair is field-disjoint within the record.
            peer = (rank + 1 + (start % max(1, nprocs - 1))) % nprocs
            plo, phi = self.split(self.n_bodies, nprocs, peer)
            if phi > plo:
                baddr = self.body_addr(plo + (start % (phi - plo)))
                with dsm.assume_disjoint(
                    "force phase reads prior-step position fields"
                ):
                    yield from dsm.touch_read(baddr, BODY_BYTES)
            yield from dsm.compute(FORCE_US * cnt)
        # Update own particles (local).
        yield from dsm.touch_write(
            self.body_addr(lo), mine * BODY_BYTES,
            pattern=self.pattern(step, rank),
        )
        yield from dsm.compute(UPDATE_US * mine)


@register_app
class BarnesOriginal(BarnesBase):
    """Shared-tree rebuild with per-cell locks (lock-heavy)."""

    name = "barnes-original"
    sync_grain = "fine"
    paper_barriers = 8

    def program(self, dsm, rank: int, nprocs: int) -> Generator:
        lo, hi = self.split(self.n_bodies, nprocs, rank)
        # The LRC protocols require the extra synchronization that makes
        # the program release-consistent: one lock per insertion instead
        # of one lock per contended cell allocation (~1 in 8).
        lrc_mode = dsm.machine.protocol.uses_notices
        yield from dsm.barrier(0, participants=nprocs)
        for step in range(self.steps):
            # ---- tree build: insert own particles into the shared tree
            for body in range(lo, hi):
                depth = 1 + (body % 3)
                locked = lrc_mode or (body % 8 == 0)
                cell = self._cell_of_insertion(body, depth, step)
                if locked:
                    yield from dsm.acquire(700 + cell % 128)
                # Unlocked (SC-mode) insertions model the common case
                # where the insertion descends into a freshly allocated
                # cell private to this processor; only the ~1-in-8
                # contended allocations take the cell lock.
                ctx = (
                    nullcontext() if locked
                    else dsm.assume_disjoint(
                        "uncontended insertions write privately allocated cells"
                    )
                )
                with ctx:
                    yield from dsm.touch_write(
                        self.cell_addr(cell), CELL_BYTES,
                        pattern=self.pattern(step, body),
                    )
                yield from dsm.compute(INSERT_US)
                if locked:
                    yield from dsm.release(700 + cell % 128)
            yield from dsm.barrier(1, participants=nprocs)
            # ---- forces + update
            yield from self._force_phase(dsm, rank, nprocs, step, lo, hi)
            yield from dsm.barrier(2, participants=nprocs)
            yield from dsm.barrier(3, participants=nprocs)
            yield from dsm.barrier(1, participants=nprocs)


@register_app
class BarnesParttree(BarnesBase):
    """Partial local trees merged into a global tree (fewer locks)."""

    name = "barnes-parttree"
    sync_grain = "coarse"
    paper_barriers = 13

    def program(self, dsm, rank: int, nprocs: int) -> Generator:
        lo, hi = self.split(self.n_bodies, nprocs, rank)
        mine = hi - lo
        yield from dsm.barrier(0, participants=nprocs)
        for step in range(self.steps):
            # ---- local tree build: no shared writes, no locks.
            yield from dsm.compute(INSERT_US * mine * 0.8)
            yield from dsm.barrier(1, participants=nprocs)
            # ---- merge local trees into the global tree: writes to the
            # shared cells under locks, but only ~n/32 merge operations.
            # Merging goes into the (shared) top levels of the tree, so
            # different processors' merge writes land on the same cells.
            merges = max(1, mine // 24)
            top_cells = max(16, self.n_cells // 16)
            for k in range(merges):
                cell = self._cell_of_insertion(rank * 131 + k, k % 4, step) % top_cells
                yield from dsm.acquire(700 + cell % 64)
                yield from dsm.touch_write(
                    self.cell_addr(cell), CELL_BYTES,
                    pattern=self.pattern(step, rank, k),
                )
                yield from dsm.compute(INSERT_US * 0.2 * mine / merges)
                yield from dsm.release(700 + cell % 64)
            yield from dsm.barrier(2, participants=nprocs)
            # ---- forces + update
            yield from self._force_phase(dsm, rank, nprocs, step, lo, hi)
            yield from dsm.barrier(3, participants=nprocs)
            yield from dsm.barrier(4, participants=nprocs)
            yield from dsm.barrier(1, participants=nprocs)
            yield from dsm.barrier(2, participants=nprocs)


@register_app
class BarnesSpatial(BarnesBase):
    """Spatial partitioning: lock-free tree build, barriers only, at
    the price of load imbalance in the build phase."""

    name = "barnes-spatial"
    sync_grain = "coarse"
    paper_barriers = 12

    #: build-phase imbalance: the densest spatial region has ~2.6x the
    #: average insertion work (paper: >35% barrier time at SC-64)
    IMBALANCE = 2.6

    def spatial_cell_owner(self, c: int, step: int, nprocs: int) -> int:
        """Which processor's space a tree cell belongs to.

        Octree cells are allocated from a shared pool as the tree
        grows, so one processor's cells *scatter* across the address
        space ("each processor accesses tree cells and particles that
        fall on different pages") -- a hash, not a contiguous slab.
        Particles drift between regions, so a fraction of cells change
        owner every step."""
        owner = ((c * 40503) >> 3) % nprocs
        if (c + step) % 6 == 0:
            owner = (owner + 1) % nprocs
        return owner

    def _build_weight(self, rank: int, nprocs: int, step: int) -> float:
        """Deterministic per-rank build-load factor with mean 1.

        The hot rank's factor is capped at ``nprocs``: on fewer than
        three nodes the full imbalance would leave the others a
        negative share (and one node a mean of 2.6)."""
        hot_factor = min(self.IMBALANCE, nprocs)
        if rank == (step * 5 + 3) % nprocs:
            return hot_factor
        return (nprocs - hot_factor) / (nprocs - 1)

    def program(self, dsm, rank: int, nprocs: int) -> Generator:
        lo, hi = self.split(self.n_bodies, nprocs, rank)
        mine = hi - lo
        yield from dsm.barrier(0, participants=nprocs)
        for step in range(self.steps):
            # ---- lock-free spatial tree build: each rank writes only
            # the cells of its own space (no locks, but imbalanced, and
            # the cells scatter over pages written by other regions'
            # owners -> write-write false sharing at coarse grain).
            w = self._build_weight(rank, nprocs, step)
            for c in range(self.n_cells):
                if self.spatial_cell_owner(c, step, nprocs) == rank:
                    yield from dsm.touch_write(
                        self.cell_addr(c), CELL_BYTES,
                        pattern=self.pattern(step, rank, c),
                    )
            yield from dsm.compute(INSERT_US * mine * w)
            yield from dsm.barrier(1, participants=nprocs)
            # ---- forces + update
            yield from self._force_phase(dsm, rank, nprocs, step, lo, hi)
            yield from dsm.barrier(2, participants=nprocs)
            yield from dsm.barrier(3, participants=nprocs)
            yield from dsm.barrier(1, participants=nprocs)
            yield from dsm.barrier(2, participants=nprocs)
