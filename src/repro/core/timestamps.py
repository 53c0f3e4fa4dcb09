"""Vector timestamps, intervals, and write notices (LRC machinery).

Lazy release consistency divides each node's execution into *intervals*
delimited by release operations.  Each interval carries the set of
*write notices* -- identifiers of blocks the node wrote during the
interval.  A vector timestamp ``vt`` on node ``n`` counts, per node
``i``, how many of ``i``'s intervals ``n`` has seen.  At an acquire the
granter sends every interval the acquirer has not seen (the vector
difference), and the acquirer invalidates its copies of the noticed
blocks.

The :class:`IntervalLog` is conceptually replicated through these
messages; we store it centrally for the simulation and charge message
sizes for the notices actually shipped.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple, Union

from repro.simcore import vc_alloc, vc_dominates, vc_merge_into


@dataclass(frozen=True, slots=True)
class WriteNotice:
    """One modified block, as advertised through synchronization.

    ``version`` and ``owner`` are meaningful for SW-LRC (block version
    at the writer's release, used to skip stale invalidations and to
    find the copy for one-hop read service).  HLRC only needs ``block``
    and ``owner``.
    """

    block: int
    version: int
    owner: int


#: anything a clock method accepts as "the other side": a component
#: sequence (the wire form) or another clock
ClockLike = Union[Sequence[int], "VectorClock"]

#: modeled storage cost of one clock component
_COMPONENT_BYTES = 8


def _components(other: ClockLike) -> Sequence[int]:
    """The component sequence of a clock-or-sequence operand."""
    if isinstance(other, VectorClock):
        return other.v  # zero-copy: the kernels take any int sequence
    return other


class VectorClock:
    """A mutable dense vector timestamp over ``n`` nodes.

    One representation serves every machine width: a barrier merges
    every node's component into every clock, so on barrier programs a
    dense clock is both the smallest and the fastest form.  Contract:

    * ``merge(other)`` -- elementwise max into self;
    * ``dominates(other)`` -- ``self[i] >= other[i]`` for every i;
    * ``tick(node)`` -- bump one component (interval start);
    * ``bytes_used()`` -- modeled storage bytes (8 per component);
    * plus ``as_tuple``/``copy``/``__getitem__``/``__len__``.

    ``other`` may be any component sequence (the wire form of a clock)
    or another clock.  The component container comes from
    ``simcore.vc_alloc``: a plain list for the paper's narrow clocks
    (fastest to index and loop over), a dense ``array('q')`` for wide
    clocks so the fast backend's merge/dominates kernels can vectorize
    over the raw int64 buffer.  Either way ``v`` supports indexing and
    item assignment; call sites go through the methods, not ``v``.
    """

    __slots__ = ("v",)

    def __init__(self, n: int):
        self.v = vc_alloc(n)

    def copy(self) -> "VectorClock":
        out = VectorClock.__new__(VectorClock)
        out.v = self.v[:]
        return out

    def merge(self, other: ClockLike) -> None:
        # Hot path (every grant/barrier application).
        vc_merge_into(self.v, _components(other))

    def tick(self, node: int) -> int:
        """Start a new interval for ``node``; returns the new count."""
        self.v[node] += 1
        return self.v[node]

    def bytes_used(self) -> int:
        """Dense cost: every component is materialized."""
        return _COMPONENT_BYTES * len(self.v)

    def __getitem__(self, i: int) -> int:
        return self.v[i]

    def __len__(self) -> int:
        return len(self.v)

    def as_tuple(self) -> Tuple[int, ...]:
        return tuple(self.v)

    def dominates(self, other: ClockLike) -> bool:
        return vc_dominates(self.v, _components(other))

    def __repr__(self) -> str:  # pragma: no cover
        return f"VC{list(self.v)}"


class IntervalLog:
    """Per-node sequences of closed intervals and their notices.

    ``intervals(i)[k]`` is the list of write notices of node ``i``'s
    ``k``-th closed interval (0-based).  A node's vector component
    ``vt[i] == m`` means it has seen intervals ``0..m-1`` of node ``i``.

    Most nodes of a wide machine close only empty intervals (every
    barrier closes one), so the log also keeps the sorted *writers*:
    nodes that closed at least one non-empty interval.  Only their
    intervals can contribute a notice, so :meth:`notices_between` walks
    them alone and returns the same list, in the same order, as a walk
    over every node.
    """

    def __init__(self, n_nodes: int):
        self._log: List[List[List[WriteNotice]]] = [[] for _ in range(n_nodes)]
        self._writers: List[int] = []
        self._writer_set: Set[int] = set()

    def close_interval(self, node: int, notices: List[WriteNotice]) -> int:
        """Append a closed interval for ``node``; returns its index."""
        log = self._log[node]
        log.append(notices)
        if notices and node not in self._writer_set:
            self._writer_set.add(node)
            insort(self._writers, node)
        return len(log) - 1

    def intervals(self, node: int) -> Sequence[List[WriteNotice]]:
        """``node``'s closed intervals in order (read-only view)."""
        return self._log[node]

    def intervals_of(self, node: int) -> int:
        return len(self._log[node])

    def notices_between(
        self, seen: Sequence[int], upto: Sequence[int]
    ) -> List[WriteNotice]:
        """All notices in intervals the acquirer (``seen``) lacks,
        bounded by what the granter has seen (``upto``)."""
        out: List[WriteNotice] = []
        log = self._log
        extend = out.extend
        for i in self._writers:
            lo, hi = seen[i], upto[i]
            if hi > lo:
                for interval in log[i][lo:hi]:
                    extend(interval)
        return out

    @staticmethod
    def compressed_count(notices: List[WriteNotice]) -> int:
        """Number of contiguous block runs in a notice batch.

        Write notices for consecutive blocks (a processor's contiguous
        partition) are run-length encoded on the wire, so a sweep that
        dirties 100 adjacent blocks costs one notice record, while
        scattered tree-cell notices (Barnes) compress not at all."""
        if not notices:
            return 0
        blocks = sorted({wn.block for wn in notices})
        runs = 1
        for a, b in zip(blocks, blocks[1:]):
            if b != a + 1:
                runs += 1
        return runs
