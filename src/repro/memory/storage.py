"""Per-node backing stores holding real block contents.

Every node caches blocks of the shared address space in local memory;
the contents are real byte buffers (``bytearray``) so that the HLRC
twin/diff machinery operates on actual data and the correctness tests
can verify that values written on one node are the values read on
another.

Blocks materialize lazily, zero-filled -- the DSM's initial contents.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple


def as_payload(data):
    """Coerce external bytes-like input to a sliceable byte buffer."""
    if isinstance(data, (bytes, bytearray)):
        return data
    if isinstance(data, memoryview):
        return data.cast("B") if data.format != "B" else data
    # numpy arrays (tests hand them over), lists of ints, anything
    # buffer-like
    try:
        return bytes(memoryview(data).cast("B"))
    except TypeError:
        return bytes(data)


class NodeStore:
    """One node's local copies of coherence blocks."""

    __slots__ = ("granularity", "_blocks")

    def __init__(self, granularity: int):
        self.granularity = granularity
        self._blocks: Dict[int, bytearray] = {}

    def block(self, block_id: int):
        """The local copy of a block, created zero-filled on demand."""
        buf = self._blocks.get(block_id)
        if buf is None:
            buf = bytearray(self.granularity)
            self._blocks[block_id] = buf
        return buf

    def has_block(self, block_id: int) -> bool:
        return block_id in self._blocks

    def install(self, block_id: int, data) -> None:
        """Overwrite the local copy with fetched contents."""
        if len(data) != self.granularity:
            raise ValueError(
                f"block data length {len(data)} != granularity {self.granularity}"
            )
        self.block(block_id)[:] = as_payload(data)

    def snapshot(self, block_id: int):
        """An independent copy of the block (twin creation, messaging)."""
        return bytearray(self.block(block_id))

    def drop(self, block_id: int) -> None:
        """Free the local copy (memory-pressure modeling; optional)."""
        self._blocks.pop(block_id, None)

    # ------------------------------------------------------------------
    # region I/O across block boundaries
    # ------------------------------------------------------------------
    def read_region(self, addr: int, size: int):
        """Copy ``size`` bytes starting at ``addr`` out of local copies."""
        g = self.granularity
        block, off = divmod(addr, g)
        if off + size <= g:
            # Common case: the region sits inside one block.
            return self.block(block)[off : off + size]
        out = bytearray(size)
        end = addr + size
        pos = addr
        while pos < end:
            block = pos // g
            off = pos - block * g
            length = min(g - off, end - pos)
            out[pos - addr : pos - addr + length] = self.block(block)[off : off + length]
            pos += length
        return out

    def write_region(self, addr: int, data) -> None:
        """Copy ``data`` into local copies starting at ``addr``."""
        data = as_payload(data)
        g = self.granularity
        size = len(data)
        block, off = divmod(addr, g)
        if off + size <= g:
            self.block(block)[off : off + size] = data
            return
        end = addr + size
        pos = addr
        while pos < end:
            block = pos // g
            off = pos - block * g
            length = min(g - off, end - pos)
            self.block(block)[off : off + length] = data[pos - addr : pos - addr + length]
            pos += length

    def blocks(self) -> Iterator[Tuple[int, bytearray]]:
        return iter(self._blocks.items())

    def __len__(self) -> int:
        return len(self._blocks)
