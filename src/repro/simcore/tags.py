"""Dense per-node access-tag arrays.

One flat byte per coherence block, indexed by block id: 0 = INVALID,
1 = READ-ONLY, 2 = READ-WRITE.  The table grows geometrically on first
touch of a high block id and never shrinks.  Alongside the dense array
a plain ``set`` of readable block ids -- exactly the blocks with a
non-zero tag -- is maintained, so the region hot path keeps its
one-C-call membership test (``set.__contains__``) and bulk sweeps
(checker audits, ``blocks_with_access``) cost O(k log k) in the k
tagged blocks rather than O(capacity).

Iteration order over tagged blocks is ascending block id.
"""

from __future__ import annotations

from typing import Iterator, Tuple

#: access tags, ordered by permission (mirrors repro.memory.access_control)
_INV, _RO, _RW = 0, 1, 2


class TagArray:
    """Flat block-tag table plus the set of its readable blocks."""

    __slots__ = ("_tags", "_readable", "permits_read")

    def __init__(self, capacity: int = 0) -> None:
        self._tags = bytearray(capacity)
        #: invariant: exactly the block ids whose tag is non-zero
        self._readable: set = set()
        #: bound fast path: a block permits reads iff it has any tag
        self.permits_read = self._readable.__contains__

    # ------------------------------------------------------------------
    # single-block operations (the hot path)
    # ------------------------------------------------------------------
    def tag(self, block: int) -> int:
        t = self._tags
        return t[block] if 0 <= block < len(t) else _INV

    def permits(self, block: int, write: bool) -> bool:
        """Does the current tag allow the access (no fault)?"""
        t = self._tags
        tg = t[block] if 0 <= block < len(t) else _INV
        return tg == _RW or (tg == _RO and not write)

    def set_tag(self, block: int, tag: int) -> None:
        if tag not in (_INV, _RO, _RW):
            raise ValueError(f"bad tag {tag}")
        t = self._tags
        if not 0 <= block < len(t):
            if tag == _INV:
                return
            self._grow(block)
            t = self._tags
        t[block] = tag
        if tag == _INV:
            self._readable.discard(block)
        else:
            self._readable.add(block)

    def invalidate(self, block: int) -> bool:
        """Drop to INVALID.  Returns True if the block had any access."""
        t = self._tags
        if 0 <= block < len(t) and t[block]:
            t[block] = _INV
            self._readable.discard(block)
            return True
        return False

    def downgrade(self, block: int) -> bool:
        """RW -> RO.  Returns True if the block was RW."""
        t = self._tags
        if 0 <= block < len(t) and t[block] == _RW:
            t[block] = _RO
            return True
        return False

    # ------------------------------------------------------------------
    # bulk operations
    # ------------------------------------------------------------------
    def blocks_with_access(self) -> Iterator[Tuple[int, int]]:
        """All (block, tag) pairs with non-INVALID tags, ascending."""
        t = self._tags
        return ((b, t[b]) for b in sorted(self._readable))

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
