"""The Typhoon-0 fine-grain access-control model.

The Typhoon-0 card tags every coherence block with one of three access
levels and raises a fast exception (~5 us) when a load or store
violates the tag.  We keep one tag table per node; the default state of
every block is INVALID, so a node's first touch always faults -- which
is what triggers demand mapping and first-touch home assignment.

The table is a dense per-node byte array (one tag byte per block id)
that grows geometrically on first touch of a high block id and never
shrinks.  Alongside it two plain sets are maintained: the readable
block ids (exactly the blocks with a non-zero tag) and the writable
ones (exactly the RW blocks).  The region hot path therefore checks a
block with one C call for either access (``permits_read`` and
``permits_write`` are bound ``set.__contains__``), and bulk sweeps
(checker audits, ``blocks_with_access``) cost O(k log k) in the k
tagged blocks rather than O(capacity).  Bulk sweeps iterate in
ascending block id.
"""

from __future__ import annotations

from typing import AbstractSet, Iterator, Set, Tuple

#: access tags, ordered by permission
INV = 0  #: no access -- any load or store faults
RO = 1   #: read-only -- stores fault
RW = 2   #: read-write -- no faults

_NAMES = {INV: "INV", RO: "RO", RW: "RW"}


def tag_name(tag: int) -> str:
    return _NAMES[tag]


class AccessControl:
    """Per-node block tag table (one instance per node)."""

    __slots__ = ("_tags", "_readable", "_writable", "permits_read", "permits_write")

    def __init__(self, capacity: int = 0) -> None:
        self._tags = bytearray(capacity)
        #: invariant: exactly the block ids whose tag is non-zero
        self._readable: set = set()
        #: invariant: exactly the block ids whose tag is RW
        self._writable: set = set()
        #: bound fast path: a block permits reads iff it has any tag
        self.permits_read = self._readable.__contains__
        #: bound fast path: a block permits writes iff its tag is RW
        self.permits_write = self._writable.__contains__

    # ------------------------------------------------------------------
    # single-block operations (the hot path)
    # ------------------------------------------------------------------
    def tag(self, block: int) -> int:
        t = self._tags
        return t[block] if 0 <= block < len(t) else INV

    def permits(self, block: int, write: bool) -> bool:
        """Does the current tag allow the access (no fault)?"""
        return block in (self._writable if write else self._readable)

    def set_tag(self, block: int, tag: int) -> None:
        if tag not in (INV, RO, RW):
            raise ValueError(f"bad tag {tag}")
        t = self._tags
        if not 0 <= block < len(t):
            if tag == INV:
                return
            self._grow(block)
            t = self._tags
        t[block] = tag
        if tag == INV:
            self._readable.discard(block)
        else:
            self._readable.add(block)
        if tag == RW:
            self._writable.add(block)
        else:
            self._writable.discard(block)

    def invalidate(self, block: int) -> bool:
        """Drop to INVALID.  Returns True if the block had any access."""
        t = self._tags
        if 0 <= block < len(t) and t[block]:
            t[block] = INV
            self._readable.discard(block)
            self._writable.discard(block)
            return True
        return False

    def downgrade(self, block: int) -> bool:
        """RW -> RO.  Returns True if the block was RW."""
        t = self._tags
        if 0 <= block < len(t) and t[block] == RW:
            t[block] = RO
            self._writable.discard(block)
            return True
        return False

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def blocks_with_access(self) -> Iterator[Tuple[int, int]]:
        """All (block, tag) pairs with non-INVALID tags, ascending."""
        t = self._tags
        return ((b, t[b]) for b in sorted(self._readable))

    def readable_among(self, blocks: AbstractSet[int]) -> Set[int]:
        """The blocks of ``blocks`` (a set or a dict's keys) with any
        access, as a new set: one C-level intersection that walks the
        smaller side."""
        return self._readable & blocks

    def __len__(self) -> int:
        return len(self._readable)

    @property
    def capacity(self) -> int:
        """Current dense-array extent (diagnostics/tests)."""
        return len(self._tags)

    def _grow(self, block: int) -> None:
        cap = max(len(self._tags), 64)
        while cap <= block:
            cap <<= 1
        self._tags.extend(bytes(cap - len(self._tags)))
