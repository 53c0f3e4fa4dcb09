"""Twin/diff machinery for the multiple-writer HLRC protocol.

Before the first write to a block in an interval, the writer snapshots
a *twin* (clean copy).  At release time the dirty copy is word-compared
against the twin; the changed runs form a *diff* which is shipped to
the block's home and applied there.  Diffs from concurrent writers to
disjoint words compose; overlapping concurrent writes are a data race
the programming model excludes (and our tests exercise anyway to pin
last-applier-wins behavior).

Run extraction is the hot path of the HLRC simulation and lives in
:mod:`repro.simcore`: a whole-buffer memcmp, then one big-int XOR of
the two copies and a regex scan for its non-zero runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.simcore import diff_runs

#: per-run encoding overhead on the wire (offset + length words)
RUN_HEADER_BYTES = 4


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
