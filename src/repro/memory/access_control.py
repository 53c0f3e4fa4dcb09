"""The Typhoon-0 fine-grain access-control model.

The Typhoon-0 card tags every coherence block with one of three access
levels and raises a fast exception (~5 us) when a load or store
violates the tag.  We keep one tag table per node; the default state of
every block is INVALID, so a node's first touch always faults -- which
is what triggers demand mapping and first-touch home assignment.

The table itself is a dense per-node byte array (one tag byte per
block id) provided by :mod:`repro.simcore`, with a parallel readable
set so the region hot path keeps its one-C-call membership test
(``permits_read`` is a bound ``set.__contains__``).  Bulk sweeps over
tagged blocks iterate that set in ascending block id.
"""

from __future__ import annotations

from repro import simcore

#: access tags, ordered by permission
INV = 0  #: no access -- any load or store faults
RO = 1   #: read-only -- stores fault
RW = 2   #: read-write -- no faults

_NAMES = {INV: "INV", RO: "RO", RW: "RW"}


def tag_name(tag: int) -> str:
    return _NAMES[tag]


class AccessControl(simcore.TagArray):
    """Per-node block tag table (one instance per node).

    A thin domain alias for the simcore tag-array kernel; the full API
    (``tag``/``permits``/``set_tag``/``invalidate``/``downgrade``/
    ``blocks_with_access``/``permits_read``/``__len__``) lives on the
    base class.
    """

    __slots__ = ()
