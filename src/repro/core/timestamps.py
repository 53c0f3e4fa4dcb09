"""Vector timestamps, intervals, and write notices (LRC machinery).

Lazy release consistency divides each node's execution into *intervals*
delimited by release operations.  Each interval carries the set of
*write notices* -- identifiers of blocks the node wrote during the
interval.  A vector timestamp ``vt`` on node ``n`` counts, per node
``i``, how many of ``i``'s intervals ``n`` has seen.  At an acquire the
granter sends every interval the acquirer has not seen (the vector
difference), and the acquirer invalidates its copies of the noticed
blocks.

A clock is a base tuple shared with every clock that adopted the same
timestamp, plus its owner's own component (:class:`VectorClock`):
after a barrier all N clocks share one merged tuple, so N clocks cost
O(N) host memory instead of O(N^2).  The modeled cost, and the wire
form, stay 8 bytes per component.

The :class:`IntervalLog` is conceptually replicated through these
messages; we store it centrally for the simulation and charge message
sizes for the notices actually shipped.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from functools import lru_cache
from operator import attrgetter, ge
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


@lru_cache(maxsize=None)
def _zeros(n: int) -> Tuple[int, ...]:
    """The all-zero base every fresh clock of width ``n`` shares."""
    return (0,) * n


def _replaced(base: Tuple[int, ...], i: int, x: int) -> Tuple[int, ...]:
    """``base`` with component ``i`` set to ``x``: a new tuple, O(N)."""
    out = list(base)
    out[i] = x
    return tuple(out)


class VectorClock:
    """A vector timestamp over ``n`` nodes: a shared base plus its
    owner's own component.

    Only node ``i`` ticks component ``i``, and after a full barrier
    every clock equals the one merged timestamp except for that own
    component.  So a clock is an immutable *base* tuple, shared by
    every clock that adopted the same timestamp, and its *owner*'s
    component ``mine`` beside it: component ``own`` reads ``mine``,
    every other component ``i`` reads ``base[i]``, and
    ``base[own] <= mine`` always.  A clock with no owner (a lock's
    clock in the race detector) has ``own == -1`` and is its base.
    Contract:

    * ``merge(other)`` -- elementwise max into self; rebuilds the base
      only when the two bases differ, and adopts the operand's tuple
      when it dominates;
    * ``assign(other)`` -- ``merge`` for an ``other`` that dominates
      self: adopts ``other``'s base by reference, O(1);
    * ``dominates(other)`` -- ``self[i] >= other[i]`` for every i;
    * ``tick(node)`` -- bump one component (interval start); O(1) for
      the owner's;
    * ``bytes_used()`` -- modeled storage bytes (8 per component, the
      dense wire form: sharing a base is a host-memory saving only);
    * plus ``as_tuple``/``copy``/``__getitem__``/``__len__``.

    ``other`` may be any component sequence (the wire form of a clock)
    or another clock.  Call sites go through the methods; the fields
    are read directly only where a hot loop needs one component.
    """

    __slots__ = ("base", "own", "mine")

    def __init__(self, n: int, own: int = -1):
        self.base: Tuple[int, ...] = _zeros(n)
        self.own = own
        self.mine = 0

    @classmethod
    def of(cls, components: Sequence[int], own: int = -1) -> "VectorClock":
        """A clock holding ``components`` (adopted when a tuple)."""
        out = cls.__new__(cls)
        out.base = tuple(components)
        out.own = own
        out.mine = out.base[own] if own >= 0 else 0
        return out

    def copy(self) -> "VectorClock":
        out = VectorClock.__new__(VectorClock)
        out.base, out.own, out.mine = self.base, self.own, self.mine
        return out

    def merge(self, other: ClockLike) -> None:
        # Hot path (every grant application).
        theirs: Sequence[int]
        if isinstance(other, VectorClock):
            theirs, their_own, their_mine = other.base, other.own, other.mine
        else:
            theirs, their_own, their_mine = other, -1, 0
        base = self.base
        if theirs is not base:
            if all(map(ge, theirs, base)):  # most grants: adopt, sharing a tuple
                base = self.base = tuple(theirs)
            else:
                merged = tuple([x if x > y else y for x, y in zip(base, theirs)])
                if merged != base:
                    base = self.base = merged
        own = self.own
        if own >= 0:
            x = their_mine if their_own == own else theirs[own]
            if x > self.mine:
                self.mine = x
        if their_own >= 0 and their_own != own and their_mine > base[their_own]:
            self.base = _replaced(base, their_own, their_mine)

    def assign(self, other: ClockLike) -> None:
        """Overwrite self with ``other``, a clock known to dominate it:
        then ``merge`` would leave exactly ``other``.  A tuple (the
        barrier's merged timestamp) becomes the base by reference, so
        every participant of a barrier shares one."""
        if isinstance(other, VectorClock):
            self.base = other.base
            theirs = other.own
            if theirs >= 0 and theirs != self.own and other.mine > self.base[theirs]:
                self.base = _replaced(self.base, theirs, other.mine)
        else:
            self.base = tuple(other)
        if self.own >= 0:
            self.mine = other[self.own]

    def tick(self, node: int) -> int:
        """Start a new interval for ``node``; returns the new count."""
        if node == self.own:
            self.mine += 1
            return self.mine
        x = self.base[node] + 1
        self.base = _replaced(self.base, node, x)
        return x

    def bytes_used(self) -> int:
        """Dense cost: every component is materialized on the wire."""
        return _COMPONENT_BYTES * len(self.base)

    def __getitem__(self, i: int) -> int:
        return self.mine if i == self.own else self.base[i]

    def __len__(self) -> int:
        return len(self.base)

    def as_tuple(self) -> Tuple[int, ...]:
        own, base = self.own, self.base
        if own < 0 or base[own] == self.mine:
            return base
        return _replaced(base, own, self.mine)

    def dominates(self, other: ClockLike) -> bool:
        if isinstance(other, VectorClock):
            other = other.as_tuple()
        return all(map(ge, self.as_tuple(), other))

    def __repr__(self) -> str:  # pragma: no cover
        return f"VC{list(self.as_tuple())}"


def join(clocks: Iterable[VectorClock]) -> Tuple[int, ...]:
    """The elementwise max of ``clocks``, as a tuple.

    Clocks that share a base are folded without materialising any of
    them: the distinct bases are merged (one pass when they all share
    one), then each owner's own component is patched in -- exact, since
    a base never exceeds its clock's own component there."""
    clocks = list(clocks)
    bases = iter({id(c.base): c.base for c in clocks}.values())
    folded = list(next(bases))
    for base in bases:
        folded = list(map(max, folded, base))
    for c in clocks:
        if c.own >= 0 and c.mine > folded[c.own]:
            folded[c.own] = c.mine
    return tuple(folded)


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
    the same way).  The log keeps only each node's live intervals:
    :attr:`floor` is the index of its first one, so interval ``k`` of
    node ``i`` sits at ``k - floor[i]`` and every index callers see
    (:meth:`intervals_of`, :meth:`notices_between`) is unchanged.  No
    batch may start below the floor; one that does reads the retired
    intervals as empty.  :attr:`notice_count` counts every notice ever
    closed, retired or live.
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
        return self.floor[node] + len(log) - 1

    def intervals(self, node: int) -> Sequence[Interval]:
        """``node``'s live intervals in order, from index
        ``floor[node]`` on (read-only view)."""
        return self._log[node]

    @property
    def writers(self) -> Sequence[int]:
        """Sorted nodes that closed at least one non-empty interval."""
        return self._writers

    def intervals_of(self, node: int) -> int:
        """How many intervals ``node`` has closed, retired or live."""
        return self.floor[node] + len(self._log[node])

    def retire(self, floor: Mapping[int, int]) -> None:
        """Retire writer ``w``'s intervals below ``floor[w]``, for every
        writer ``w`` in ``floor``: every node has seen them, so no batch
        reads them again.  A floor never moves down."""
        log, log_starts, lows = self._log, self._starts, self.floor
        for w, hi in floor.items():
            gone = hi - lows[w]
            if gone > 0:
                del log[w][:gone]
                del log_starts[w][:gone]
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
        log, log_starts, floor = self._log, self._starts, self.floor
        for i in self._writers:
            lo, hi = seen[i], upto[i]
            if hi > lo:
                f = floor[i]
                lo = lo - f if lo > f else 0
                hi = hi - f if hi > f else 0
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
