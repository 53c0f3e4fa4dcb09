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
from itertools import repeat
from operator import attrgetter
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Sequence, Set, Tuple, Union


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


_block_of = attrgetter("block")
_successor = (1).__add__
_predecessor = (-1).__add__

#: one closed interval: block -> its write notice, in the order the
#: interval's author listed them (ascending block)
Interval = Mapping[int, WriteNotice]
_NO_NOTICES: Interval = MappingProxyType({})
#: a notice plan: block -> the notice that acts at the receiver
Plan = Dict[int, WriteNotice]


#: anything a clock method accepts as "the other side": a component
#: sequence (the wire form) or another clock
ClockLike = Union[Sequence[int], "VectorClock"]

#: modeled storage cost of one clock component
_COMPONENT_BYTES = 8


def _components(other: ClockLike) -> Sequence[int]:
    """The component sequence of a clock-or-sequence operand."""
    if isinstance(other, VectorClock):
        return other.v  # zero-copy: the loops take any int sequence
    return other


class VectorClock:
    """A mutable dense vector timestamp over ``n`` nodes.

    One representation serves every machine width: a barrier merges
    every node's component into every clock, so on barrier programs a
    dense clock is both the smallest and the fastest form.  Contract:

    * ``merge(other)`` -- elementwise max into self;
    * ``assign(other)`` -- ``merge`` for an ``other`` that dominates self;
    * ``dominates(other)`` -- ``self[i] >= other[i]`` for every i;
    * ``tick(node)`` -- bump one component (interval start);
    * ``bytes_used()`` -- modeled storage bytes (8 per component);
    * plus ``as_tuple``/``copy``/``__getitem__``/``__len__``.

    ``other`` may be any component sequence (the wire form of a clock)
    or another clock.  The components are a plain list at every width:
    lists index faster than any typed container in pure python.  Call
    sites go through the methods, not ``v``.
    """

    __slots__ = ("v",)

    def __init__(self, n: int):
        self.v: List[int] = [0] * n

    def copy(self) -> "VectorClock":
        out = VectorClock.__new__(VectorClock)
        out.v = self.v[:]
        return out

    def merge(self, other: ClockLike) -> None:
        # Hot path (every grant/barrier application).
        v = self.v
        i = 0
        for x in _components(other):
            if x > v[i]:
                v[i] = x
            i += 1

    def assign(self, other: ClockLike) -> None:
        """Overwrite self with ``other``, a clock known to dominate it:
        then ``merge`` would leave exactly ``other``, at a slice copy's
        cost instead of a per-component loop."""
        self.v[:] = _components(other)

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
        v = self.v
        i = 0
        for x in _components(other):
            if v[i] < x:
                return False
            i += 1
        return True

    def __repr__(self) -> str:  # pragma: no cover
        return f"VC{self.v}"


def merge_plan(intervals: Iterable[Interval]) -> Plan:
    """The notice plan of a batch's interval maps, in batch order.

    The plan maps each noticed block to the one notice that acts at a
    receiver: per block only the highest version matters (a version
    hint keeps the max, and one invalidation covers every lower
    version), so it holds the block's first max-version notice, blocks
    in first-occurrence order -- the order a per-notice loop would
    first touch them.

    An interval that shares no block with the plan so far merges in one
    ``dict.update``; only the blocks it does share take a Python step,
    which keeps the earlier notice unless the new version is higher
    (``update`` keeps a key's first position either way)."""
    plan: Plan = {}
    merge = plan.update
    planned = plan.keys()
    for interval in filter(None, intervals):  # empty ones add nothing
        if planned.isdisjoint(interval.keys()):
            merge(interval)
        else:
            keep = [(b, plan[b]) for b in planned & interval.keys()
                    if plan[b].version >= interval[b].version]
            merge(interval)
            merge(keep)
    return plan


class IntervalLog:
    """Per-node sequences of closed intervals and their notices.

    ``intervals(i)[k]`` is node ``i``'s ``k``-th closed interval
    (0-based): a block -> :class:`WriteNotice` map, one entry per block
    the node wrote, in the order the release listed them (ascending
    block).  A node's vector component ``vt[i] == m`` means it has seen
    intervals ``0..m-1`` of node ``i``.

    Each interval is stored once, as that map: :meth:`notices_between`
    extends a batch's notice list with its ``.values()``, and
    :func:`merge_plan` builds the batch's notice plan by ``dict.update``
    merges of the same maps, so neither walks the notices one by one in
    Python.  Beside each map the log keeps the interval's run starts
    (:meth:`run_starts`), from which a batch's wire run count follows
    without a pass over its blocks.  Empty intervals share one
    read-only empty map and no starts.

    Most nodes of a wide machine close only empty intervals (every
    barrier closes one), so the log also keeps the sorted *writers*:
    nodes that closed at least one non-empty interval.  Only their
    intervals can contribute a notice, so :meth:`notices_between` walks
    them alone and returns the same batch, in the same order, as a walk
    over every node.

    An interval every node has seen is never read again, so
    :meth:`retire` drops it (TreadMarks collects intervals at barriers
    the same way).  A retired slot keeps its index and points at the
    shared empty map, so the slices of :meth:`notices_between` are
    unchanged; :attr:`floor` is each node's first live index, and no
    batch may start below it.  :attr:`notice_count` counts every
    notice ever closed, retired or live.
    """

    def __init__(self, n_nodes: int):
        self._log: List[List[Interval]] = [[] for _ in range(n_nodes)]
        self._starts: List[List[Tuple[int, ...]]] = [[] for _ in range(n_nodes)]
        self._writers: List[int] = []
        self._writer_set: Set[int] = set()
        #: per node, the index of its first interval not yet retired
        self.floor: List[int] = [0] * n_nodes
        #: notices in every interval ever closed
        self.notice_count = 0

    def close_interval(self, node: int, notices: List[WriteNotice]) -> int:
        """Append a closed interval for ``node`` (``notices``: one per
        block, ascending); returns its index."""
        log = self._log[node]
        if notices:
            self.notice_count += len(notices)
            blocks = list(map(_block_of, notices))
            log.append(dict(zip(blocks, notices)))
            self._starts[node].append(tuple(self.run_starts(blocks)))
            if node not in self._writer_set:
                self._writer_set.add(node)
                insort(self._writers, node)
        else:
            log.append(_NO_NOTICES)
            self._starts[node].append(())
        return len(log) - 1

    def intervals(self, node: int) -> Sequence[Interval]:
        """``node``'s closed intervals in order (read-only view)."""
        return self._log[node]

    @property
    def writers(self) -> Sequence[int]:
        """Sorted nodes that closed at least one non-empty interval."""
        return self._writers

    def intervals_of(self, node: int) -> int:
        return len(self._log[node])

    def retire(self, floor: Mapping[int, int]) -> None:
        """Retire writer ``w``'s intervals below ``floor[w]``, for every
        writer ``w`` in ``floor``: every node has seen them, so no batch
        reads them again.  A floor never moves down."""
        log, log_starts, lows = self._log, self._starts, self.floor
        for w, hi in floor.items():
            lo = lows[w]
            if hi > lo:
                log[w][lo:hi] = repeat(_NO_NOTICES, hi - lo)
                log_starts[w][lo:hi] = repeat((), hi - lo)
                lows[w] = hi

    def notices_between(
        self, seen: Sequence[int], upto: Sequence[int], skip: int = -1
    ) -> Tuple[List[WriteNotice], List[Interval], int]:
        """The notices in intervals the acquirer (``seen``) lacks,
        bounded by what the granter has seen (``upto``); the interval
        maps their plan merges (:func:`merge_plan`), which leave out node
        ``skip``'s own intervals (a lock acquirer's; the default matches
        no node); and their wire run count (:meth:`run_starts`).

        A run of the batch starts at a noticed block whose predecessor
        is not noticed.  That block also starts a run of its own
        interval, so only the intervals' stored run starts are tested
        against the noticed blocks."""
        notices: List[WriteNotice] = []
        walked: List[Interval] = []
        planned: List[Interval] = []
        starts: List[Tuple[int, ...]] = []
        log, log_starts = self._log, self._starts
        for i in self._writers:
            lo, hi = seen[i], upto[i]
            if hi > lo:
                intervals = log[i][lo:hi]
                walked += intervals
                starts += log_starts[i][lo:hi]
                if i != skip:
                    planned += intervals
        extend = notices.extend
        for interval in walked:
            extend(interval.values())
        noticed = set().union(*walked)
        candidates = set().union(*starts)
        joined = sum(map(noticed.__contains__, map(_predecessor, candidates)))
        return notices, planned, len(candidates) - joined

    @staticmethod
    def run_starts(blocks: Iterable[int]) -> Set[int]:
        """The blocks of ``blocks`` whose predecessor is not among them:
        one per contiguous run, found by one set difference, no sort.

        Write notices for consecutive blocks (a processor's contiguous
        partition) are run-length encoded on the wire, so a sweep that
        dirties 100 adjacent blocks costs one notice record, while
        scattered tree-cell notices (Barnes) compress not at all: a
        batch's wire record count is its number of run starts."""
        blocks = set(blocks)
        return blocks.difference(map(_successor, blocks))
