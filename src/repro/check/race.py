"""Happens-before data-race detector for simulated DSM programs.

The LRC protocols only promise coherent data to *data-race-free*
programs (paper Section 2): coherence information moves at acquires,
releases and barriers, so two conflicting accesses not ordered by the
synchronization graph read or clobber stale copies -- silently.  This
detector reconstructs the happens-before relation from the
instrumentation hooks (:mod:`repro.hooks`) and reports every
conflicting access pair it cannot order, in the DJIT+ style:

* each node carries a :class:`~repro.core.timestamps.VectorClock`
  that it owns (its own component is held beside a shared base),
  advanced at releases and barrier exits;
* each lock carries a clock merged from every releaser and folded into
  each acquirer (the transitive lock-chain ordering);
* a barrier episode stashes every participant's entry clock (an O(1)
  copy sharing its base), folds them into one tuple at the first exit
  (:func:`~repro.core.timestamps.join`: one pass over the distinct
  bases, then each owner's component), and every participant adopts
  that tuple as its base on exit (all-to-all ordering; max is
  associative, so this equals merging each entry clock; the fold
  dominates each participant's clock, which is its entry clock, so
  adopting it is the merge).  An N-way episode costs O(N) time and
  leaves the N clocks sharing one O(N) base;
* for every *detection unit* (byte / word / coherence block) the last
  read and last write of each node are kept as scalar epochs; an access
  conflicts with a stored epoch the accessor's clock has not seen.

Detection granularity vs. true races
------------------------------------
Tracking at coherence-block granularity reports every unordered pair
that the protocol could mis-handle, but lumps *false sharing* (disjoint
bytes in one unit) together with true races.  Each stored epoch
therefore remembers the byte ranges it covered: a conflicting pair
whose ranges overlap is a true race, a disjoint pair is reported
separately as false sharing.  Within one epoch the ranges of repeated
accesses are unioned (capped at :data:`MAX_RANGES` fragments, after
which the union collapses to its bounding box -- conservative: it can
only upgrade false sharing to a reported race, never hide one).

Reports carry *both* access sites (application source location via
frame inspection, simulated time, and the node's last synchronization
action) so a flagged pair reads like::

    node 2 write [0x1040, 0x1044) at t=812.4us, racy_app.py:31 in body
      (after acquire(lock 3) @t=640.0us)

The detector only observes -- it never yields simulated time or sends
messages, so a checked run is bit-identical to an unchecked one.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from types import CodeType
from typing import Dict, List, Optional, Tuple

from repro.core.timestamps import VectorClock, join
from repro.hooks import Hooks

#: named detection units; "block" resolves to the machine's coherence
#: granularity at install time
GRANULARITIES = ("byte", "word", "block")

#: per-epoch cap on stored byte-range fragments (see module docstring)
MAX_RANGES = 16

#: source paths whose frames are skipped when attributing an access to
#: application code (the runtime plumbing between the app generator and
#: the hook callback, the stdlib context-manager machinery of
#: ``assume_disjoint``, and the hook subscribers that attribute); apps
#: and test programs live outside these
_PLUMBING = ("/repro/runtime/", "/repro/check/", "/repro/sync/",
             "/repro/sim/", "/repro/cluster/", "/repro/hooks",
             "/contextlib.py", "/repro/analyze/footprint.py")


def resolve_unit(granularity, block_bytes: int) -> int:
    """Map a granularity name (or a positive int) to a unit size."""
    if isinstance(granularity, int):
        if granularity <= 0:
            raise ValueError(f"bad detection unit {granularity}")
        return granularity
    try:
        return {"byte": 1, "word": 4, "block": block_bytes}[granularity]
    except KeyError:
        raise ValueError(
            f"unknown race granularity {granularity!r}; "
            f"expected one of {GRANULARITIES} or a byte count"
        ) from None


#: code object -> True for runtime plumbing (see :data:`_PLUMBING`);
#: filled on first sight, so each stack walk matches strings once per
#: function
_PLUMBING_CODES: Dict[CodeType, bool] = {}


def is_plumbing(code: CodeType) -> bool:
    """True when ``code`` belongs to the runtime plumbing."""
    try:
        return _PLUMBING_CODES[code]
    except KeyError:
        filename = code.co_filename.replace("\\", "/")
        hit = _PLUMBING_CODES[code] = any(p in filename for p in _PLUMBING)
        return hit


def app_site() -> Tuple[str, int, str]:
    """``(file, line, function)`` of the innermost application frame.

    Generator resumption pushes the whole ``yield from`` chain onto the
    stack, so walking ``f_back`` from a hook callback passes through the
    runtime plumbing and reaches the app generator that issued the
    access (or entered the ``assume_disjoint`` scope).
    """
    f = sys._getframe(1)
    while f is not None:
        code = f.f_code
        if not is_plumbing(code):
            return (code.co_filename, f.f_lineno, code.co_name)
        f = f.f_back
    return ("<unknown>", 0, "?")  # pragma: no cover - plumbing-only stack


@dataclass(frozen=True)
class AccessSite:
    """One side of a reported conflict."""

    node: int
    write: bool
    addr: int
    size: int
    time_us: float
    location: str
    sync_context: str

    def describe(self) -> str:
        kind = "write" if self.write else "read"
        return (
            f"node {self.node} {kind} [{self.addr:#x}, {self.addr + self.size:#x}) "
            f"at t={self.time_us:.1f}us, {self.location}\n"
            f"      ({self.sync_context})"
        )


@dataclass(frozen=True)
class Race:
    """An unordered conflicting access pair on one detection unit."""

    unit: int            # unit index (addr // unit_bytes)
    unit_bytes: int
    earlier: AccessSite  # the stored epoch the new access conflicted with
    later: AccessSite
    true_race: bool      # byte ranges overlap (False = false sharing)

    def describe(self) -> str:
        lo = self.unit * self.unit_bytes
        kind = "data race" if self.true_race else "false sharing"
        return (
            f"{kind} on [{lo:#x}, {lo + self.unit_bytes:#x}) "
            f"({self.unit_bytes}-byte unit):\n"
            f"    {self.earlier.describe()}\n"
            f"    {self.later.describe()}"
        )


class _Epoch:
    """Last same-kind access of one node to one unit."""

    __slots__ = ("clock", "ranges", "site", "exempt")

    def __init__(
        self, clock: int, lo: int, hi: int, site: AccessSite, exempt: bool
    ):
        self.clock = clock
        self.ranges: List[Tuple[int, int]] = [(lo, hi)]
        self.site = site
        self.exempt = exempt

    def add_range(self, lo: int, hi: int) -> None:
        ranges = self.ranges
        last_lo, last_hi = ranges[-1]
        if lo <= last_hi and hi >= last_lo:  # touching/overlapping: extend
            ranges[-1] = (min(lo, last_lo), max(hi, last_hi))
        elif len(ranges) >= MAX_RANGES:
            # Collapse to the bounding box (conservative, see module doc).
            ranges[:] = [(min(lo, ranges[0][0]), max(hi, ranges[-1][1]))]
        else:
            ranges.append((lo, hi))

    def overlaps(self, lo: int, hi: int) -> bool:
        return any(a < hi and lo < b for a, b in self.ranges)


class RaceDetector(Hooks):
    """Vector-clock happens-before race detection over the hook stream.

    Install with :func:`repro.check.install_checkers` (or directly via
    ``machine.add_hooks``) *before* the program runs.
    """

    def __init__(
        self,
        n_nodes: int,
        unit_bytes: int,
        engine,
        max_reports: int = 100,
    ):
        self.unit_bytes = unit_bytes
        self.max_reports = max_reports
        self.engine = engine
        self._clock = [VectorClock(n_nodes, own=i) for i in range(n_nodes)]
        for i, c in enumerate(self._clock):
            # Epochs start at 1 so a first-epoch access is distinguishable
            # from "never synchronized with" (component 0).
            c.tick(i)
        self._lock_clock: Dict[int, VectorClock] = {}
        #: (barrier_id, episode) -> [entry clocks, exits so far, their
        #: fold as a tuple (None until the first exit)]
        self._episodes: Dict[Tuple[int, int], list] = {}
        #: unit -> node -> last write / last read epoch
        self._writes: Dict[int, Dict[int, _Epoch]] = {}
        self._reads: Dict[int, Dict[int, _Epoch]] = {}
        #: human-readable last-sync description per node
        self._context = ["before any synchronization"] * n_nodes
        #: assume_disjoint scope nesting depth per node
        self._exempt_depth = [0] * n_nodes
        self.races: List[Race] = []
        self.false_sharing: List[Race] = []
        self.races_total = 0
        self.false_sharing_total = 0
        #: distinct conflicting pairs suppressed by assume_disjoint
        self.exempted_total = 0
        self._seen: set = set()

    # ------------------------------------------------------------------
    # hook interface: accesses
    # ------------------------------------------------------------------
    def on_region(self, node_id: int, addr: int, size: int, write: bool) -> None:
        if size <= 0:
            return
        clock = self._clock[node_id]
        my = clock.mine
        seen = clock.base  # exact at every other node's component
        exempt = self._exempt_depth[node_id] > 0
        # Built on first need -- a report or a new epoch; an access
        # that only extends its node's current epoch needs none.
        site: Optional[AccessSite] = None
        ub = self.unit_bytes
        writes, reads = self._writes, self._reads
        for unit in range(addr // ub, (addr + size - 1) // ub + 1):
            lo = max(addr, unit * ub)
            hi = min(addr + size, (unit + 1) * ub)
            wmap = writes.get(unit)
            if wmap:
                for other, epoch in wmap.items():
                    if other != node_id and epoch.clock > seen[other]:
                        if site is None:
                            site = self._site(node_id, write, addr, size)
                        self._report(unit, epoch, site, lo, hi, exempt)
            if write:
                rmap = reads.get(unit)
                if rmap:
                    for other, epoch in rmap.items():
                        if other != node_id and epoch.clock > seen[other]:
                            if site is None:
                                site = self._site(node_id, write, addr, size)
                            self._report(unit, epoch, site, lo, hi, exempt)
            target = writes if write else reads
            umap = target.get(unit)
            if umap is None:
                umap = target[unit] = {}
            mine = umap.get(node_id)
            if mine is not None and mine.clock == my:
                mine.add_range(lo, hi)
                if not exempt:
                    # Mixed epochs stay reportable (conservative).
                    mine.exempt = False
            else:
                if site is None:
                    site = self._site(node_id, write, addr, size)
                umap[node_id] = _Epoch(my, lo, hi, site, exempt)

    def _site(self, node_id: int, write: bool, addr: int, size: int) -> AccessSite:
        """The :class:`AccessSite` of the access being checked (called
        from inside :meth:`on_region`, while its frames are live)."""
        file, line, func = app_site()
        return AccessSite(
            node=node_id,
            write=write,
            addr=addr,
            size=size,
            time_us=self.engine.now,
            location=f"{file.rsplit('/', 1)[-1]}:{line} in {func}",
            sync_context=self._context[node_id],
        )

    def _report(
        self,
        unit: int,
        epoch: _Epoch,
        site: AccessSite,
        lo: int,
        hi: int,
        exempt: bool,
    ) -> None:
        other = epoch.site
        key = (
            unit,
            other.node, other.write, other.location,
            site.node, site.write, site.location,
        )
        if key in self._seen:
            return
        self._seen.add(key)
        if exempt or epoch.exempt:
            # Either side ran under assume_disjoint: the original
            # program keeps this pair conflict-free at element level.
            self.exempted_total += 1
            return
        true_race = epoch.overlaps(lo, hi)
        race = Race(
            unit=unit,
            unit_bytes=self.unit_bytes,
            earlier=other,
            later=site,
            true_race=true_race,
        )
        if true_race:
            self.races_total += 1
            if len(self.races) < self.max_reports:
                self.races.append(race)
        else:
            self.false_sharing_total += 1
            if len(self.false_sharing) < self.max_reports:
                self.false_sharing.append(race)

    def on_assume_disjoint(self, node_id: int, active: bool, reason: str) -> None:
        self._exempt_depth[node_id] += 1 if active else -1

    # ------------------------------------------------------------------
    # hook interface: synchronization (the happens-before edges)
    # ------------------------------------------------------------------
    def on_acquire(self, node_id: int, lock_id: int) -> None:
        lock_clock = self._lock_clock.get(lock_id)
        if lock_clock is not None:
            self._clock[node_id].merge(lock_clock)
        self._context[node_id] = (
            f"after acquire(lock {lock_id}) @t={self.engine.now:.1f}us"
        )

    def on_release(self, node_id: int, lock_id: int) -> None:
        clock = self._clock[node_id]
        lock_clock = self._lock_clock.get(lock_id)
        if lock_clock is None:
            lock_clock = self._lock_clock[lock_id] = VectorClock(len(clock))
        lock_clock.merge(clock)
        clock.tick(node_id)
        self._context[node_id] = (
            f"after release(lock {lock_id}) @t={self.engine.now:.1f}us"
        )

    def on_barrier_enter(self, node_id: int, barrier_id: int, episode: int) -> None:
        key = (barrier_id, episode)
        rec = self._episodes.get(key)
        if rec is None:
            rec = self._episodes[key] = [[], 0, None]
        rec[0].append(self._clock[node_id].copy())

    def on_barrier_exit(self, node_id: int, barrier_id: int, episode: int) -> None:
        key = (barrier_id, episode)
        rec = self._episodes.get(key)
        if rec is None:  # pragma: no cover - exit without entry
            return
        # Every participant entered before the first exit (the manager
        # broadcasts only once all arrivals are in), so the entry list
        # is complete here: fold it once, and the countdown is exact.
        entry_clocks, exits, folded = rec
        if folded is None:
            folded = rec[2] = join(entry_clocks)
        clock = self._clock[node_id]
        clock.assign(folded)  # the fold dominates the entry clock
        clock.tick(node_id)
        rec[1] = exits = exits + 1
        if exits >= len(entry_clocks):
            del self._episodes[key]
        self._context[node_id] = (
            f"after barrier {barrier_id} (episode {episode}) "
            f"@t={self.engine.now:.1f}us"
        )
