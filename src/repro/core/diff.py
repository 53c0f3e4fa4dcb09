"""Twin/diff machinery of the home-based multiple-writer protocols
(HLRC, and ERC, which shares it with coherence moved to the release).

Before the first write to a block in an interval, the writer snapshots
a *twin* (clean copy).  At release time the dirty copy is word-compared
against the twin; the changed runs form a *diff* which is shipped to
the block's home and applied there.  Diffs from concurrent writers to
disjoint words compose; overlapping concurrent writes are a data race
the programming model excludes (and our tests exercise anyway to pin
last-applier-wins behavior).

Run extraction (:func:`diff_runs`) is the hot path of the HLRC
simulation: a whole-buffer memcmp, then one big-int XOR of the two
copies and a regex scan for its non-zero runs, all of it in C.

The protocol layer both run on top of these functions -- fetch, twin,
diff and their costs -- is :class:`~repro.core.hlrc.HomeDiffMixin`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

#: per-run encoding overhead on the wire (offset + length words)
RUN_HEADER_BYTES = 4

#: one maximal run of non-zero bytes
_CHANGED_RUN = re.compile(rb"[^\x00]+")


def diff_runs(dirty, twin) -> List[Tuple[int, bytes]]:
    """Changed-byte runs of ``dirty`` vs ``twin``: maximal groups of
    consecutive differing byte offsets, as (offset, copied data).

    One memcmp rules out the no-change case.  Otherwise the two blocks
    are XORed as big integers, so every changed byte is a non-zero byte
    of the XOR at the same offset, and one regex scan over it yields
    each maximal changed run.
    """
    # Normalize foreign buffer types (numpy arrays, typed memoryviews)
    # to flat byte views so compares and lengths count bytes.
    if not isinstance(dirty, (bytes, bytearray)):
        dirty = memoryview(dirty).cast("B")
    if not isinstance(twin, (bytes, bytearray)):
        twin = memoryview(twin).cast("B")
    if dirty == twin:
        return []
    n = len(dirty)
    x = (int.from_bytes(dirty, "big") ^ int.from_bytes(twin, "big")).to_bytes(n, "big")
    runs: List[Tuple[int, bytes]] = []
    for m in _CHANGED_RUN.finditer(x):
        start, stop = m.span()
        runs.append((start, bytes(dirty[start:stop])))
    return runs


@dataclass(slots=True)
class Diff:
    """The changed byte runs of one block."""

    block: int
    #: list of (offset, data) runs, offsets ascending, non-adjacent;
    #: data is ``bytes`` (tests also build runs from numpy arrays)
    runs: List[Tuple[int, Sequence[int]]]

    @property
    def payload_bytes(self) -> int:
        """Bytes of changed data (the paper's 'diff size')."""
        return sum(len(d) for _, d in self.runs)

    @property
    def wire_bytes(self) -> int:
        """Encoded size on the wire."""
        return self.payload_bytes + RUN_HEADER_BYTES * len(self.runs)

    @property
    def empty(self) -> bool:
        return not self.runs


def create_diff(block: int, dirty, twin) -> Diff:
    """Compare a dirty copy against its twin and extract changed runs."""
    if len(dirty) != len(twin):
        raise ValueError("dirty/twin shape mismatch")
    return Diff(block=block, runs=diff_runs(dirty, twin))


def apply_diff(target, diff: Diff) -> int:
    """Apply a diff's runs to a block copy; returns bytes written."""
    written = 0
    n = len(target)
    for off, data in diff.runs:
        size = len(data)
        end = off + size
        if off < 0 or end > n:
            raise ValueError(
                f"diff run [{off}, {end}) outside block of {n} bytes"
            )
        if isinstance(data, (bytes, bytearray)) and not isinstance(target, bytearray):
            # bytes runs applied to a foreign buffer target (a numpy
            # array the tests hand in): numpy would *parse*
            # digit-looking bytes as an int literal, so route the copy
            # through a byte view instead of slice assignment.
            memoryview(target).cast("B")[off:end] = data
        else:
            target[off:end] = data
        written += size
    return written
