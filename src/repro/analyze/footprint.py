"""Small-scope concretization: per-rank access footprints.

The labeling checker needs concrete byte ranges and concrete lock ids
-- "``100 + owner``" only becomes checkable once ``owner`` has a
value.  :func:`explore` runs each app program on a **real tiny
machine** -- the simulator itself, sc for the SC-family mode and hlrc
for the LRC mode, at 4096-byte blocks -- with a
:class:`FootprintRecorder` subscribed to its hooks, recording every
access into per-rank, per-synchronization-segment byte-interval sets.

The run follows the machine's own schedule.  That is *one* schedule,
but the verdicts never depend on which one: the checker only uses
schedule-independent order (barrier episodes and common locksets),
never the accidental interleaving the run happened to produce.  The
schedule only decides which value-dependent paths execute -- under
real timing, task queues drain unevenly and work-stealing apps steal,
like a full-size run.

A stuck exploration is itself a finding: ranks parked forever on a
barrier is phase skew (ANA102), on a lock it is a lost release
(ANA106), and so are a release of a lock the rank does not hold and a
lock still held when its rank finishes.  Any other crash, or the event
budget running out, leaves the analysis incomplete (ANA107).

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

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

from repro.check.race import app_site, is_plumbing
from repro.cluster.config import MachineParams
from repro.cluster.machine import Machine
from repro.hooks import Hooks
from repro.runtime.program import Deadlock, run_program
from repro.sim.engine import SimulationError
from repro.sim.process import Process, ProcessCrashed
from repro.sync.barriers import BarrierService
from repro.sync.locks import LockService


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
    n_ops: int = 0

    def segments_by_rank(self) -> List[List[Segment]]:
        out: List[List[Segment]] = [[] for _ in range(self.nprocs)]
        for seg in self.segments:
            out[seg.rank].append(seg)
        return out


class FootprintRecorder(Hooks):
    """Hooks subscriber recording one run's footprints into ``result``."""

    def __init__(self, result: Exploration):
        self.result = result
        self._site_ids: Dict[Tuple[str, int, str], int] = {}
        self._disjoint_ids: Dict[Tuple[str, int, str], int] = {}
        n = result.nprocs
        #: barrier-only vector clock per rank (replaced, never mutated)
        self.clocks: List[Tuple[int, ...]] = [
            tuple(int(i == r) for i in range(n)) for r in range(n)]
        self.held: List[List[int]] = [[] for _ in range(n)]
        self.disjoint: List[List[int]] = [[] for _ in range(n)]
        self._seg: List[Optional[Segment]] = [None] * n
        self._seg_count = [0] * n
        #: (barrier_id, episode) -> clocks of the ranks that entered it
        self._entries: Dict[Tuple[int, int], List[Tuple[int, ...]]] = {}

    def _site_id(self, site: Tuple[str, int, str]) -> int:
        sid = self._site_ids.get(site)
        if sid is None:
            sid = self._site_ids[site] = len(self.result.sites)
            self.result.sites.append(site)
        return sid

    def _disjoint_id(self, site: Tuple[str, int, str]) -> int:
        did = self._disjoint_ids.get(site)
        if did is None:
            did = self._disjoint_ids[site] = len(self.result.disjoint_sites)
            self.result.disjoint_sites.append(site)
            self.result.disjoint_entered.append(0)
        return did

    def _segment(self, rank: int) -> Segment:
        seg = self._seg[rank]
        if seg is None:
            seg = Segment(
                rank,
                self._seg_count[rank],
                self.clocks[rank],
                frozenset(self.held[rank]),
                tuple(self.disjoint[rank]),
            )
            self._seg_count[rank] += 1
            self._seg[rank] = seg
            self.result.segments.append(seg)
        return seg

    # -- hook interface --------------------------------------------------

    def on_region(self, node_id: int, addr: int, size: int, write: bool) -> None:
        if size <= 0:
            return
        self.result.n_ops += 1
        self._segment(node_id).add(
            self._site_id(app_site()), write, addr, addr + size)

    def on_acquire(self, node_id: int, lock_id: int) -> None:
        self.held[node_id].append(lock_id)
        self._seg[node_id] = None

    def on_release(self, node_id: int, lock_id: int) -> None:
        self.held[node_id].remove(lock_id)  # fires only for a held lock
        self._seg[node_id] = None

    def on_barrier_enter(self, node_id: int, barrier_id: int, episode: int) -> None:
        self._entries.setdefault((barrier_id, episode), []).append(
            self.clocks[node_id])

    def on_barrier_exit(self, node_id: int, barrier_id: int, episode: int) -> None:
        # The manager releases an episode only once every participant
        # has arrived, so its entry list is complete at any exit.
        clock = [max(c) for c in zip(*self._entries[(barrier_id, episode)])]
        clock[node_id] += 1
        self.clocks[node_id] = tuple(clock)
        self._seg[node_id] = None

    def on_assume_disjoint(self, node_id: int, active: bool, reason: str) -> None:
        if active:
            file, line, _ = app_site()
            did = self._disjoint_id((file, line, reason))
            self.result.disjoint_entered[did] += 1
            self.disjoint[node_id].append(did)
        else:
            self.disjoint[node_id].pop()
        self._seg[node_id] = None


#: event budget of one exploration run -- a backstop against runaway
#: programs, far above what any tiny-scale app needs
MAX_EVENTS = 5_000_000

_ACQUIRE = LockService.acquire.__code__
_RELEASE = LockService.release.__code__
_BARRIER = BarrierService.barrier.__code__


def _rank(proc: Process) -> int:
    return int(proc.name[len("rank"):])  # run_program names them rank<r>


def _chain(gen) -> Iterator:
    """Frames of a parked generator's ``yield from`` chain, outermost
    first."""
    while getattr(gen, "gi_frame", None) is not None:
        yield gen.gi_frame
        gen = gen.gi_yieldfrom


def _innermost_app(frames) -> Tuple[str, int, str]:
    """(file, line, function) of the innermost app frame among
    ``(frame, line)`` pairs listed outermost first."""
    site = ("<unknown>", 0, "?")
    for frame, line in frames:
        code = frame.f_code
        if not is_plumbing(code):
            site = (code.co_filename, line, code.co_name)
    return site


def _record_stalls(machine: Machine, parked: List[Process],
                   result: Exploration) -> None:
    """What each rank parked at the deadlock waits for, and where."""
    n = result.nprocs
    absent = sorted(set(range(n)) - {_rank(p) for p in parked})
    holders = machine.locks.holders()
    for proc in parked:
        rank = _rank(proc)
        frames = list(_chain(proc.generator))
        site = _innermost_app((f, f.f_lineno) for f in frames)
        wait = next((f for f in frames if f.f_code in (_ACQUIRE, _BARRIER)),
                    None)
        if wait is None:
            result.crashes.append(
                (rank, "parked forever outside any lock or barrier wait"))
        elif wait.f_code is _ACQUIRE:
            lock = wait.f_locals["lock_id"]
            result.stalls.append(Stall(
                rank, "lock",
                f"waiting forever for lock {lock} (held by rank "
                f"{holders.get(lock)})", site))
        else:
            bid, episode = wait.f_locals["barrier_id"], wait.f_locals["episode"]
            result.stalls.append(Stall(
                rank, "barrier",
                f"waiting forever at barrier({bid}) with "
                f"{machine.barriers.arrivals(bid, episode)}/{n} arrivals "
                f"(ranks {absent} never arrive)", site))


def _record_crash(exc: ProcessCrashed, result: Exploration) -> None:
    """A release of a lock the rank does not hold is a lock error at
    the release's app line; any other crash leaves the run incomplete."""
    rank = _rank(exc.process)
    cause = exc.__cause__
    frames = []
    tb = cause.__traceback__
    while tb is not None:
        frames.append((tb.tb_frame, tb.tb_lineno))
        tb = tb.tb_next
    raiser = frames[-1][0]
    if raiser.f_code is _RELEASE:
        lock = raiser.f_locals["lock_id"]
        result.lock_errors.append(LockError(
            rank, lock, f"release of lock {lock} not held by rank {rank}",
            _innermost_app(frames)))
    else:
        result.crashes.append((rank, f"{type(cause).__name__}: {cause}"))


def explore(app, nprocs: int = 4, *, lrc_mode: bool = False) -> Exploration:
    """Run ``app`` (an Application instance) on a tiny ``nprocs``-node
    machine under a :class:`FootprintRecorder` and return its
    footprints and structural outcome."""
    result = Exploration(nprocs=nprocs, lrc_mode=lrc_mode)
    machine = Machine(MachineParams(n_nodes=nprocs, granularity=4096),
                      protocol="hlrc" if lrc_mode else "sc",
                      max_events=MAX_EVENTS)
    try:
        machine.add_hooks(FootprintRecorder(result))
        app.setup(machine)
        _run(machine, app, result)
    finally:
        machine.close()
    return result


def _run(machine: Machine, app, result: Exploration) -> None:
    """Run the program to its end and record how it ended."""
    parked: List[Process] = []
    try:
        run_program(machine, app.program, result.nprocs)
    except Deadlock as exc:
        parked = exc.unfinished
        _record_stalls(machine, parked, result)
    except ProcessCrashed as exc:
        _record_crash(exc, result)
        return
    except SimulationError as exc:  # the event budget ran out
        result.crashes.append((-1, str(exc)))
        return
    finished = set(range(result.nprocs)) - {_rank(p) for p in parked}
    for lock, holder in sorted(machine.locks.holders().items()):
        if holder in finished:
            result.lock_errors.append(LockError(
                holder, lock,
                f"lock {lock} still held by rank {holder} at program end "
                "(missing release)", ("<end>", 0, "?")))


__all__ = [
    "IntervalSet", "Segment", "ordered", "Exploration", "Stall", "LockError",
    "FootprintRecorder", "explore",
]
