"""The shared virtual address space and its allocator.

Applications allocate named segments before the parallel phase (the
SPLASH-2 ``G_MALLOC`` idiom).  Segments are page-aligned by default --
separate data structures never share a page unless the application
explicitly packs them, which is exactly how the real programs behave
and is what creates (or avoids) false sharing at coarse granularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.config import PAGE_SIZE


@dataclass(frozen=True)
class Segment:
    """A named allocation in the shared address space."""

    name: str
    base: int
    size: int

    @property
    def end(self) -> int:
        return self.base + self.size

    def addr(self, offset: int) -> int:
        """Byte address of ``offset`` inside the segment, bounds-checked."""
        if not 0 <= offset < self.size:
            raise IndexError(
                f"offset {offset} out of range for segment {self.name!r} "
                f"(size {self.size})"
            )
        return self.base + offset

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class AddressSpace:
    """Bump allocator over the shared virtual address space."""

    def __init__(self, base: int = 0x10000):
        self._next = base
        self._segments: Dict[str, Segment] = {}
        self._ordered: List[Segment] = []

    def alloc(self, size: int, name: str, align: int = PAGE_SIZE) -> Segment:
        """Allocate ``size`` bytes with the given alignment.

        ``align`` must be a power of two.  Unique names are enforced so
        application code can look segments up by name.
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        if align <= 0 or align & (align - 1):
            raise ValueError(f"alignment must be a power of two, got {align}")
        if name in self._segments:
            raise ValueError(f"segment {name!r} already allocated")
        base = (self._next + align - 1) & ~(align - 1)
        seg = Segment(name=name, base=base, size=size)
        self._next = base + size
        self._segments[name] = seg
        self._ordered.append(seg)
        return seg

    def segment(self, name: str) -> Segment:
        return self._segments[name]

    def segment_at(self, addr: int) -> Optional[Segment]:
        """The segment containing ``addr``, or None (linear scan; used
        only for diagnostics, never on the hot path)."""
        for seg in self._ordered:
            if seg.contains(addr):
                return seg
        return None

    @property
    def segments(self) -> List[Segment]:
        return list(self._ordered)
