"""Per-node DSM handle: the API surface applications use.

Access model
------------
Applications issue *region* reads and writes.  The runtime decomposes a
region into coherence blocks and, per block, checks the Typhoon-0
access tag; a miss raises the 5 us fault exception and enters the
protocol.  The check-and-copy for each block is atomic with respect to
protocol handlers (no yield between the final tag check and the byte
copy), and is retried if a recall/steal races the fault reply -- the
exact semantics of a hardware store replaying after access is granted.

A region operation therefore produces the same per-block fault sequence
per-word instrumented code would, at region-op cost.  See DESIGN.md for
why this substitution is the one that keeps a Python reproduction
feasible.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Generator, Optional

from repro.cluster.machine import Machine
from repro.memory.storage import as_payload


class Dsm:
    """A node-local view of the shared memory system."""

    __slots__ = ("machine", "node", "params", "_bs", "_protocol", "_stats")

    def __init__(self, machine: Machine, node_id: int):
        self.machine = machine
        self.node = machine.nodes[node_id]
        self.params = machine.params
        self._bs = machine.blockspace
        self._protocol = machine.protocol
        self._stats = machine.stats

    @property
    def node_id(self) -> int:
        return self.node.id

    @property
    def now(self) -> float:
        return self.machine.engine.now

    # ------------------------------------------------------------------
    # compute
    # ------------------------------------------------------------------
    def compute(self, us: float) -> Generator:
        """Model ``us`` microseconds of local computation."""
        # Return the node's generator directly instead of delegating
        # with `yield from`: one less generator frame per compute call.
        return self.node.compute(us)

    # ------------------------------------------------------------------
    # shared-memory access
    # ------------------------------------------------------------------
    def _ensure(self, block: int, write: bool) -> Generator:
        node = self.node
        p = self.params
        access = node.access
        permits = access.permits_write if write else access.permits_read
        while not permits(block):
            # Fault exception dispatch + requester-side protocol entry.
            # (Fault counting happens inside the protocols, which
            # distinguish real coherence faults from cheap node-local
            # tag re-opens -- the paper's tables only count the former.)
            yield p.fault_exception_us + p.handler_base_us
            if write:
                hooks = self.machine.hooks
                if hooks is not None:
                    hooks.on_write_fault(node.id, block)
                yield from self._protocol.write_fault(node, block)
            else:
                yield from self._protocol.read_fault(node, block)
            # Loop: re-check the tag -- the grant may have been stolen
            # by a recall/transfer that raced our reply (the hardware
            # analogue is the store replay after TLB/tag update).

    def read(self, addr: int, size: int) -> Generator:
        """Read ``size`` bytes at ``addr``; returns a ``bytearray``."""
        node = self.node
        hooks = self.machine.hooks
        if hooks is not None:
            hooks.on_region(node.id, addr, size, False)
        out = bytearray(size)
        permits_read = node.access.permits_read
        for block, off, roff, length in self._bs.block_slices(addr, size):
            if not permits_read(block):
                yield from self._ensure(block, write=False)
            out[roff : roff + length] = node.store.block(block)[off : off + length]
        return out

    def write(self, addr: int, data) -> Generator:
        """Write bytes at ``addr`` through the coherence protocol."""
        node = self.node
        data = as_payload(data)  # a typed buffer's length counts bytes
        hooks = self.machine.hooks
        if hooks is not None:
            hooks.on_region(node.id, addr, len(data), True)
        permits_write = node.access.permits_write
        for block, off, roff, length in self._bs.block_slices(addr, len(data)):
            if not permits_write(block):
                yield from self._ensure(block, write=True)
            node.store.block(block)[off : off + length] = data[roff : roff + length]

    def touch_read(self, addr: int, size: int) -> Generator:
        """Ensure read access to a region without materializing bytes
        (used by apps that only need the access-pattern effects)."""
        hooks = self.machine.hooks
        if hooks is not None:
            hooks.on_region(self.node.id, addr, size, False)
        # Access-hit fast path: skip the _ensure generator entirely when
        # the tag already permits the access (the common case by far).
        permits_read = self.node.access.permits_read
        for block in self._bs.blocks_in_region(addr, size):
            if not permits_read(block):
                yield from self._ensure(block, write=False)

    def touch_write(self, addr: int, size: int, *, pattern: int = -1) -> Generator:
        """Ensure write access to a region and dirty it.

        ``pattern`` >= 0 additionally writes that byte value into the
        region so HLRC diffs are non-empty (performance apps vary the
        pattern per iteration to model real data changing).
        """
        node = self.node
        hooks = self.machine.hooks
        if hooks is not None:
            hooks.on_region(node.id, addr, size, True)
        permits_write = node.access.permits_write
        if pattern < 0:
            for block in self._bs.blocks_in_region(addr, size):
                if not permits_write(block):
                    yield from self._ensure(block, write=True)
            return
        fill = bytes((pattern & 0xFF,))
        for block, off, roff, length in self._bs.block_slices(addr, size):
            if not permits_write(block):
                yield from self._ensure(block, write=True)
            node.store.block(block)[off : off + length] = fill * length

    # ------------------------------------------------------------------
    # checker annotations
    # ------------------------------------------------------------------
    @contextmanager
    def assume_disjoint(self, reason: str):
        """Scope declaring that this node's region touches inside model
        accesses the *original program* keeps conflict-free at element
        level (red-black colours, private accumulation arrays merged
        under locks, privately allocated pool entries), even though the
        model's region-granularity touches overlap other processors'.

        Pure annotation: it only notifies instrumentation hooks (the
        :mod:`repro.check` race detector suppresses -- and separately
        counts -- conflicts involving these accesses).  It costs no
        simulated time and sends no messages, so annotated programs
        produce bit-identical results.
        """
        hooks = self.machine.hooks
        if hooks is not None:
            hooks.on_assume_disjoint(self.node.id, True, reason)
        try:
            yield
        finally:
            hooks = self.machine.hooks
            if hooks is not None:
                hooks.on_assume_disjoint(self.node.id, False, reason)

    # ------------------------------------------------------------------
    # synchronization
    # ------------------------------------------------------------------
    def acquire(self, lock_id: int) -> Generator:
        return self.machine.locks.acquire(self.node, lock_id)

    def release(self, lock_id: int) -> Generator:
        return self.machine.locks.release(self.node, lock_id)

    def barrier(self, barrier_id: int, participants: Optional[int] = None) -> Generator:
        return self.machine.barriers.barrier(self.node, barrier_id, participants)
