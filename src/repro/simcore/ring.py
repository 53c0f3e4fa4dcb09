"""Sequence-indexed ring buffer for per-link message queues.

The reliable transport holds out-of-order arrivals per (src, dst) link
until the sequence gap fills.  Held sequence numbers all lie inside the
retransmit window just above the link's delivery cursor, which makes a
power-of-two ring addressed by ``seq & mask`` the natural store: O(1)
membership, insert and pop with no hashing and no per-entry allocation.
The ring doubles itself on slot collision, so pathological windows
(deep reordering under heavy chaos) stay correct -- they just pay one
rehash.
"""

from __future__ import annotations

from typing import Any, Iterator, List, Optional, Tuple


class SeqRing:
    """A sparse window of items keyed by monotone sequence number."""

    __slots__ = ("_slots", "_mask", "_count")

    def __init__(self, capacity: int = 16):
        cap = 1
        while cap < capacity:
            cap <<= 1
        self._slots: List[Optional[Tuple[int, Any]]] = [None] * cap
        self._mask = cap - 1
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, seq: int) -> bool:
        slot = self._slots[seq & self._mask]
        return slot is not None and slot[0] == seq

    def put(self, seq: int, item: Any) -> bool:
        """Insert; returns False (and stores nothing) if ``seq`` is
        already present.  Grows on collision with a different live
        sequence number."""
        while True:
            i = seq & self._mask
            slot = self._slots[i]
            if slot is None:
                self._slots[i] = (seq, item)
                self._count += 1
                return True
            if slot[0] == seq:
                return False
            self._grow()

    def pop(self, seq: int) -> Any:
        """Remove and return the item at ``seq``; KeyError if absent."""
        i = seq & self._mask
        slot = self._slots[i]
        if slot is None or slot[0] != seq:
            raise KeyError(seq)
        self._slots[i] = None
        self._count -= 1
        return slot[1]

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Live (seq, item) pairs in ascending sequence order."""
        return iter(sorted(s for s in self._slots if s is not None))

    def _grow(self) -> None:
        live = [s for s in self._slots if s is not None]
        cap = len(self._slots)
        # Double until every live sequence number lands in its own
        # slot (two seqs collide iff they differ by a multiple of cap,
        # so a big enough power of two always separates a finite set).
        while True:
            cap <<= 1
            mask = cap - 1
            if len({seq & mask for seq, _ in live}) == len(live):
                break
        self._slots = [None] * cap
        self._mask = mask
        for slot in live:
            self._slots[slot[0] & mask] = slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeqRing {self._count}/{len(self._slots)}>"
