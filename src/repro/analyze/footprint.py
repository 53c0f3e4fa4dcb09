"""Small-scope concretization: per-rank access footprints.

The labeling checker needs concrete byte ranges and concrete lock ids
-- "``100 + owner``" only becomes checkable once ``owner`` has a
value.  This module runs each app program against a **recording DSM
stub**: no simulator engine, no protocol, no timing -- just the
``runtime/dsm.py`` generator API surface, recording every access into
per-rank, per-synchronization-segment byte-interval sets.

The driver is a canonical round-robin coroutine scheduler: every rank
advances one DSM operation per turn, blocked ranks park on FIFO lock
queues or barrier arrival sets.  This is *one* schedule, but the
verdicts never depend on which one: the checker only uses
schedule-independent order (barrier episodes and common locksets),
never the accidental interleaving the driver happened to produce.
The near-lockstep interleaving only matters for *realism* of
value-dependent control flow (task queues drain evenly, steals happen
at the tail, like a real run).

A stuck exploration is itself a finding: ranks parked forever on a
barrier is phase skew (ANA102), on a lock it is a lost release
(ANA106).

Segments
--------
A rank's execution is cut into *segments* at every synchronization
event (lock acquire/release, barrier exit) and at every
``assume_disjoint`` scope boundary, so within one segment the
lockset, the barrier clock, and the exemption state are all constant.
Barrier-only vector clocks (one tick per barrier exit) give the
schedule-independent happens-before between segments.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.memory.address_space import AddressSpace

#: files whose frames are skipped when attributing an access to app
#: source (this module and the stdlib contextmanager plumbing)
_PLUMBING = ("repro/analyze/", "contextlib.py")


def _app_site() -> Tuple[str, int, str]:
    """(file, line, function) of the innermost app-code frame."""
    frame = sys._getframe(2)
    while frame is not None:
        fname = frame.f_code.co_filename.replace("\\", "/")
        if (not any(p in fname for p in _PLUMBING)
                or fname.endswith("/canary.py")):  # the planted app IS app code
            return (fname, frame.f_lineno, frame.f_code.co_name)
        frame = frame.f_back
    return ("<unknown>", 0, "?")


class IntervalSet:
    """Sorted, merged set of half-open byte intervals [lo, hi)."""

    __slots__ = ("_iv", "lo", "hi", "nbytes")

    def __init__(self):
        self._iv: List[Tuple[int, int]] = []
        self.lo = 1 << 62
        self.hi = -1
        self.nbytes = 0

    def add(self, lo: int, hi: int) -> None:
        if hi <= lo:
            return
        iv = self._iv
        i = bisect_left(iv, (lo, -1))
        # merge with a predecessor that overlaps/abuts
        if i > 0 and iv[i - 1][1] >= lo:
            i -= 1
            lo = iv[i][0]
        j = i
        while j < len(iv) and iv[j][0] <= hi:
            hi = max(hi, iv[j][1])
            j += 1
        removed = sum(b - a for a, b in iv[i:j])
        iv[i:j] = [(lo, hi)]
        self.nbytes += (hi - lo) - removed
        self.lo = min(self.lo, lo)
        self.hi = max(self.hi, hi)

    def intervals(self) -> List[Tuple[int, int]]:
        return self._iv

    def intersect(self, other: "IntervalSet") -> List[Tuple[int, int]]:
        """Intervals present in both sets."""
        if self.lo >= other.hi or other.lo >= self.hi:
            return []
        out: List[Tuple[int, int]] = []
        a, b = self._iv, other._iv
        i = j = 0
        while i < len(a) and j < len(b):
            lo = max(a[i][0], b[j][0])
            hi = min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        return out

    def blocks(self, g: int) -> FrozenSet[int]:
        """Ids of all size-``g`` blocks this set touches."""
        out = set()
        for lo, hi in self._iv:
            out.update(range(lo // g, (hi - 1) // g + 1))
        return frozenset(out)

    def __bool__(self) -> bool:
        return bool(self._iv)


class Segment:
    """A run of one rank's accesses with constant sync context."""

    __slots__ = ("rank", "index", "clock", "lockset", "disjoint", "accesses")

    def __init__(self, rank: int, index: int, clock: Tuple[int, ...],
                 lockset: FrozenSet[int], disjoint: Tuple[int, ...]):
        self.rank = rank
        self.index = index
        self.clock = clock  # barrier-only vector clock snapshot
        self.lockset = lockset  # concrete lock ids held
        self.disjoint = disjoint  # active disjoint-site ids (innermost last)
        #: (site_id, is_write) -> IntervalSet
        self.accesses: Dict[Tuple[int, bool], IntervalSet] = {}

    def add(self, site: int, is_write: bool, lo: int, hi: int) -> None:
        iv = self.accesses.get((site, is_write))
        if iv is None:
            iv = self.accesses[(site, is_write)] = IntervalSet()
        iv.add(lo, hi)


def ordered(s1: Segment, s2: Segment) -> bool:
    """True when the segments are barrier-ordered (either direction)."""
    return (s1.clock[s1.rank] <= s2.clock[s1.rank]
            or s2.clock[s2.rank] <= s1.clock[s2.rank])


@dataclass
class Stall:
    """One rank parked forever at exploration end."""

    rank: int
    kind: str  # 'barrier' | 'lock'
    detail: str  # e.g. 'barrier(2) with 3/4 arrivals'
    site: Tuple[str, int, str]


@dataclass
class LockError:
    rank: int
    lock: int
    message: str
    site: Tuple[str, int, str]


@dataclass
class Exploration:
    """Everything the checker needs from one small-scope run."""

    nprocs: int
    lrc_mode: bool
    segments: List[Segment] = field(default_factory=list)
    #: site_id -> (file, line, function)
    sites: List[Tuple[str, int, str]] = field(default_factory=list)
    #: disjoint site_id -> (file, line, reason); entered counts parallel
    disjoint_sites: List[Tuple[str, int, str]] = field(default_factory=list)
    disjoint_entered: List[int] = field(default_factory=list)
    stalls: List[Stall] = field(default_factory=list)
    lock_errors: List[LockError] = field(default_factory=list)
    crashes: List[Tuple[int, str]] = field(default_factory=list)
    #: named segment placements from setup(), for reporting
    placements: List[Tuple[int, int, int]] = field(default_factory=list)
    n_ops: int = 0

    def segments_by_rank(self) -> List[List[Segment]]:
        out: List[List[Segment]] = [[] for _ in range(self.nprocs)]
        for seg in self.segments:
            out[seg.rank].append(seg)
        return out


class _Recorder:
    """Shared recording state across all ranks of one exploration."""

    def __init__(self, result: Exploration):
        self.result = result
        self._site_ids: Dict[Tuple[str, int, str], int] = {}
        self._disjoint_ids: Dict[Tuple[str, int, str], int] = {}
        n = result.nprocs
        self.clocks: List[List[int]] = [[0] * n for _ in range(n)]
        for r in range(n):
            self.clocks[r][r] = 1
        self.held: List[List[int]] = [[] for _ in range(n)]
        self.disjoint: List[List[int]] = [[] for _ in range(n)]
        self._seg: List[Optional[Segment]] = [None] * n
        self._seg_count = [0] * n

    def site_id(self, site: Tuple[str, int, str]) -> int:
        sid = self._site_ids.get(site)
        if sid is None:
            sid = self._site_ids[site] = len(self.result.sites)
            self.result.sites.append(site)
        return sid

    def disjoint_id(self, site: Tuple[str, int, str]) -> int:
        did = self._disjoint_ids.get(site)
        if did is None:
            did = self._disjoint_ids[site] = len(self.result.disjoint_sites)
            self.result.disjoint_sites.append(site)
            self.result.disjoint_entered.append(0)
        return did

    def _cut(self, rank: int) -> None:
        self._seg[rank] = None

    def segment(self, rank: int) -> Segment:
        seg = self._seg[rank]
        if seg is None:
            seg = Segment(
                rank,
                self._seg_count[rank],
                tuple(self.clocks[rank]),
                frozenset(self.held[rank]),
                tuple(self.disjoint[rank]),
            )
            self._seg_count[rank] += 1
            self._seg[rank] = seg
            self.result.segments.append(seg)
        return seg

    # -- recording callbacks from the stub -----------------------------

    def access(self, rank: int, site: Tuple[str, int, str], is_write: bool,
               addr: int, size: int) -> None:
        if size <= 0:
            return
        self.result.n_ops += 1
        self.segment(rank).add(self.site_id(site), is_write, addr, addr + size)

    def lock_acquired(self, rank: int, lock: int) -> None:
        self.held[rank].append(lock)
        self._cut(rank)

    def lock_released(self, rank: int, lock: int) -> None:
        if lock in self.held[rank]:
            self.held[rank].remove(lock)
        self._cut(rank)

    def barrier_exit(self, rank: int, merged: Sequence[int]) -> None:
        clock = [max(a, b) for a, b in zip(self.clocks[rank], merged)]
        clock[rank] += 1
        self.clocks[rank] = clock
        self._cut(rank)

    def disjoint_enter(self, rank: int, site: Tuple[str, int, str]) -> None:
        did = self.disjoint_id(site)
        self.result.disjoint_entered[did] += 1
        self.disjoint[rank].append(did)
        self._cut(rank)

    def disjoint_exit(self, rank: int) -> None:
        if self.disjoint[rank]:
            self.disjoint[rank].pop()
        self._cut(rank)


class _StaticParams:
    """The parameter surface apps read during setup/program."""

    def __init__(self, n_nodes: int, granularity: int):
        self.n_nodes = n_nodes
        self.granularity = granularity


class _StaticProtocol:
    def __init__(self, uses_notices: bool):
        self.uses_notices = uses_notices
        self.name = "static-lrc" if uses_notices else "static-sc"


class StaticMachine:
    """Allocation + placement surface for ``app.setup(machine)``.

    Uses the real :class:`AddressSpace`, so segment addresses and
    page alignment match what a simulated run would see -- the
    false-sharing predictor folds *these* addresses against each
    granularity.
    """

    def __init__(self, nprocs: int, granularity: int = 4096,
                 lrc_mode: bool = False):
        self.params = _StaticParams(nprocs, granularity)
        self.space = AddressSpace()
        self.protocol = _StaticProtocol(lrc_mode)
        self.placements: List[Tuple[int, int, int]] = []

    def alloc(self, size: int, name: str, align: Optional[int] = None):
        if align is None:
            return self.space.alloc(size, name)
        return self.space.alloc(size, name, align=align)

    def place(self, addr: int, size: int, node: int) -> None:
        self.placements.append((addr, size, node))

    def place_segment(self, seg, node: int) -> None:
        self.placements.append((seg.base, seg.size, node))

    def init_data(self, *a, **kw) -> None:
        pass


class StaticDsm:
    """Recording stand-in for :class:`repro.runtime.dsm.Dsm`.

    Access methods are generator functions that record on first
    ``next()`` -- exactly the semantics that make a missing
    ``yield from`` (SIM007) a real bug: an undriven generator records
    nothing, matching the runtime where it simulates nothing.

    Synchronization methods yield a marker tuple to the exploration
    driver, which implements FIFO lock grants and barrier episodes.
    """

    def __init__(self, machine: StaticMachine, rank: int, rec: _Recorder):
        self.machine = machine
        self.rank = rank
        self.params = machine.params
        self._rec = rec

    @property
    def node_id(self) -> int:
        return self.rank

    @property
    def now(self) -> float:
        return 0.0

    def compute(self, us: float):
        return iter(())

    def read(self, addr: int, size: int):
        self._rec.access(self.rank, _app_site(), False, addr, size)
        yield ("step",)
        return bytearray(size)

    def write(self, addr: int, data):
        self._rec.access(self.rank, _app_site(), True, addr, len(data))
        yield ("step",)

    def touch_read(self, addr: int, size: int):
        self._rec.access(self.rank, _app_site(), False, addr, size)
        yield ("step",)

    def touch_write(self, addr: int, size: int, *, pattern: int = -1):
        self._rec.access(self.rank, _app_site(), True, addr, size)
        yield ("step",)

    def assume_disjoint(self, reason: str):
        return _DisjointScope(self._rec, self.rank)

    def acquire(self, lock_id: int):
        yield ("acquire", int(lock_id), _app_site())
        self._rec.lock_acquired(self.rank, int(lock_id))

    def release(self, lock_id: int):
        yield ("release", int(lock_id), _app_site())
        self._rec.lock_released(self.rank, int(lock_id))

    def barrier(self, barrier_id: int, participants: Optional[int] = None):
        episode: dict = {}
        yield ("barrier", int(barrier_id), participants, _app_site(), episode)
        self._rec.barrier_exit(self.rank, episode["merged"])


class _DisjointScope:
    """Synchronous context manager mirroring ``Dsm.assume_disjoint``."""

    __slots__ = ("_rec", "_rank")

    def __init__(self, rec: _Recorder, rank: int):
        self._rec = rec
        self._rank = rank

    def __enter__(self):
        self._rec.disjoint_enter(self._rank, _app_site())
        return self

    def __exit__(self, *exc):
        self._rec.disjoint_exit(self._rank)
        return False


#: hard cap on driver steps -- a backstop against runaway programs,
#: far above what any tiny-scale app needs
MAX_STEPS = 5_000_000


def explore(app, nprocs: int = 4, *, granularity: int = 4096,
            lrc_mode: bool = False) -> Exploration:
    """Run ``app`` (an Application instance) through the recording
    stub under the canonical scheduler and return its footprints."""
    result = Exploration(nprocs=nprocs, lrc_mode=lrc_mode)
    machine = StaticMachine(nprocs, granularity=granularity, lrc_mode=lrc_mode)
    app.setup(machine)
    result.placements = machine.placements
    rec = _Recorder(result)
    gens = [app.program(StaticDsm(machine, r, rec), r, nprocs)
            for r in range(nprocs)]
    ready = deque(range(nprocs))
    state = ["ready"] * nprocs  # ready | lock | barrier | done | crashed
    wait_info: List[Optional[tuple]] = [None] * nprocs
    lock_holder: Dict[int, int] = {}
    lock_waiters: Dict[int, deque] = {}
    bar_arrivals: Dict[int, list] = {}  # bid -> [(rank, episode dict)]
    steps = 0

    def wake(rank: int) -> None:
        state[rank] = "ready"
        wait_info[rank] = None
        ready.append(rank)

    while ready and steps < MAX_STEPS:
        steps += 1
        rank = ready.popleft()
        try:
            item = next(gens[rank])
        except StopIteration:
            state[rank] = "done"
            continue
        except Exception as exc:  # app bug: surface, don't crash the tool
            state[rank] = "crashed"
            result.crashes.append((rank, f"{type(exc).__name__}: {exc}"))
            continue
        tag = item[0] if isinstance(item, tuple) and item else None
        if tag == "acquire":
            _, lock, site = item
            if lock not in lock_holder:
                lock_holder[lock] = rank
                ready.append(rank)  # resumes past the yield, records grant
            else:
                state[rank] = "lock"
                wait_info[rank] = (lock, site)
                lock_waiters.setdefault(lock, deque()).append(rank)
        elif tag == "release":
            _, lock, site = item
            if lock_holder.get(lock) != rank:
                result.lock_errors.append(LockError(
                    rank, lock,
                    f"release of lock {lock} not held by rank {rank}", site))
            else:
                del lock_holder[lock]
                waiters = lock_waiters.get(lock)
                if waiters:
                    nxt = waiters.popleft()
                    lock_holder[lock] = nxt
                    wake(nxt)
            ready.append(rank)
        elif tag == "barrier":
            _, bid, participants, site, episode = item
            need = participants if participants is not None else nprocs
            arrivals = bar_arrivals.setdefault(bid, [])
            arrivals.append((rank, episode))
            state[rank] = "barrier"
            wait_info[rank] = (bid, site)
            if len(arrivals) >= need:
                merged = [0] * nprocs
                for r, _ in arrivals:
                    for i, v in enumerate(rec.clocks[r]):
                        if v > merged[i]:
                            merged[i] = v
                for r, ep in arrivals:
                    ep["merged"] = merged
                    wake(r)
                bar_arrivals[bid] = []
        else:  # ("step",) or a stray plain yield from app code
            ready.append(rank)

    # -- stall / leak detection ----------------------------------------
    for rank in range(nprocs):
        if state[rank] == "lock":
            lock, site = wait_info[rank]
            holder = lock_holder.get(lock)
            result.stalls.append(Stall(
                rank, "lock",
                f"waiting forever for lock {lock} (held by rank {holder})",
                site))
        elif state[rank] == "barrier":
            bid, site = wait_info[rank]
            n_arrived = len(bar_arrivals.get(bid, []))
            absent = [r for r in range(nprocs)
                      if state[r] in ("done", "crashed")]
            result.stalls.append(Stall(
                rank, "barrier",
                f"waiting forever at barrier({bid}) with {n_arrived}/"
                f"{nprocs} arrivals (ranks {absent} never arrive)",
                site))
    for lock, holder in sorted(lock_holder.items()):
        if state[holder] == "done":
            result.lock_errors.append(LockError(
                holder, lock,
                f"lock {lock} still held by rank {holder} at program end "
                "(missing release)", ("<end>", 0, "?")))
    if steps >= MAX_STEPS:
        result.crashes.append((-1, f"exploration exceeded {MAX_STEPS} steps"))
    return result


__all__ = [
    "IntervalSet", "Segment", "ordered", "Exploration", "Stall", "LockError",
    "StaticMachine", "StaticDsm", "explore",
]
