"""Block/granularity arithmetic.

A *block* is the unit of coherence (64, 256, 1024 or 4096 bytes); a
*page* is the 4096-byte unit of virtual-memory mapping.  All protocols
operate on block ids; applications operate on byte regions which the
runtime decomposes into blocks here.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.cluster.config import PAGE_SIZE


class BlockSpace:
    """Maps byte addresses to coherence-block ids for one granularity."""

    __slots__ = ("granularity", "blocks_per_page")

    def __init__(self, granularity: int):
        if granularity <= 0 or not (
            PAGE_SIZE % granularity == 0 or granularity % PAGE_SIZE == 0
        ):
            raise ValueError(
                f"granularity {granularity} must divide the page size or be "
                "a multiple of it"
            )
        self.granularity = granularity
        self.blocks_per_page = max(1, PAGE_SIZE // granularity)

    def block_of(self, addr: int) -> int:
        if addr < 0:
            raise ValueError("negative address")
        return addr // self.granularity

    def page_of_block(self, block: int) -> int:
        return (block * self.granularity) // PAGE_SIZE

    def blocks_in_region(self, addr: int, size: int) -> range:
        """All block ids overlapping ``[addr, addr+size)``."""
        if size <= 0:
            return range(0)
        first = addr // self.granularity
        last = (addr + size - 1) // self.granularity
        return range(first, last + 1)

    def block_slices(self, addr: int, size: int) -> Iterator[Tuple[int, int, int, int]]:
        """Decompose a region into per-block pieces.

        Yields ``(block, offset_in_block, region_offset, length)`` for
        each overlapped block, in address order.  Used when real bytes
        move between application buffers and block copies.
        """
        g = self.granularity
        end = addr + size
        pos = addr
        while pos < end:
            block = pos // g
            off = pos - block * g
            length = min(g - off, end - pos)
            yield block, off, pos - addr, length
            pos += length

    def fragmentation(self, useful_bytes: int, blocks_touched: int) -> float:
        """Fraction of fetched bytes that were not requested.

        The paper's Section 5.2.2 metric: with 4096-byte blocks, reading
        an 8-byte element fetches a full page, so fragmentation is
        ``1 - 8/4096 > 99%``.
        """
        fetched = blocks_touched * self.granularity
        if fetched == 0:
            return 0.0
        return 1.0 - min(useful_bytes, fetched) / fetched
