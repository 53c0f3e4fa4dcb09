"""Protocol-invariant sanitizer: asserts, while a simulation runs, the
state machine properties each protocol's correctness argument rests on.

The checks are drawn from the protocol descriptions (paper Section 2)
and run at the three kinds of quiescent points the protocols define:

**after every protocol message** (the ``on_protocol_message`` hook,
fired by :meth:`CoherenceProtocol.on_message
<repro.core.protocol.CoherenceProtocol.on_message>`), for the touched
block only and skipping blocks with a transaction in flight:

* SC -- at most one RW copy; a writer excludes readers; the node
  holding RW is the directory's registered owner; a registered owner
  excludes other sharers.
* SW-LRC -- a single writable copy; node-local ownership
  (``owned``) is held by at most one node and covers every RW tag.
* Tardis -- ``wts <= rts`` on every settled entry; both timestamps
  monotonically non-decreasing (lease monotonicity); a single writable
  copy agreeing with the recorded owner; every read-only copy away
  from an unowned home is covered by a recorded lease bounded by the
  block's ``rts``.

**at every release boundary** (the ``on_release_done`` hook, firing
after ``release_prepare`` for both lock releases and barrier arrivals):

* HLRC -- no twin and no dirty block survives a release, and no block
  stays writable (every write of the next interval must fault so it is
  advertised); twin/diff discipline is what keeps home copies current.
* SW-LRC -- no dirty block survives; no block stays writable.
* both -- write-notice versions per (author, block) strictly increase
  in interval order (the versioning rule invalidation skipping relies
  on).

**after every sync application** (the ``on_sync_applied`` hook):

* SW-LRC -- write-notice coverage: after applying a grant, every
  noticed block is invalidated or locally versioned at least as high
  as the notice, and the hint table points at a writer at least as
  fresh (one-hop read service correctness).
* HLRC -- every noticed block is invalidated unless this node is the
  writer or the block's home.
* both -- clock bound: ``vt[n][i] <= vt[i][i]`` for every ``i`` (no
  node has seen more of node ``i``'s intervals than ``i`` has closed),
  the invariant the barrier's diagonal merge rests on.  O(N) per sync,
  in C-level passes: the diagonal is the clocks' own components.
* both -- no barrier release carries a notice authored by its
  receiver (the receiver's own component is the merged diagonal), the
  invariant that lets every node of one view share one notice plan.
* Tardis -- pts advance on acquire: the node's program timestamp is at
  least the granter's shipped ``pts``, and no cached lease older than
  the new ``pts`` survives the expiry scan.

**before every notice batch** (the ``on_notice_batch`` hook, fired by
the LRC protocols as they build a lock grant or a barrier release):

* both -- retired floor: the requester's clock reaches no writer's
  interval below the interval log's retired floor (a retired slot
  reads as empty, so such a batch would silently drop notices).

``end_of_run`` re-scans the interval logs and sweeps the full SC
directory once.  Like every hook, the checker observes only: a checked
run is bit-identical to an unchecked one.

Transient windows
-----------------
Mid-transaction states are legal (a grant in flight, a deferred
recall): per-message checks skip a block when the directory entry is
busy/pending or any node has an in-flight, poisoned, deferred or
settling fault on it (the SC protocol exposes the zero-delay
post-install window through its ``_settling`` set).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter, gt
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.hlrc import HLRCProtocol
from repro.core.sc import SCProtocol
from repro.core.swlrc import SWLRCProtocol
from repro.core.tardis import TardisProtocol
from repro.hooks import Hooks
from repro.memory.access_control import INV, RW, tag_name

#: a vector clock's own component (``vt[i][i]`` for node ``i``'s clock)
_own_component = attrgetter("mine")


@dataclass(frozen=True)
class InvariantViolation:
    """One observed violation of a protocol invariant."""

    rule: str
    protocol: str
    node: Optional[int]
    block: Optional[int]
    time_us: float
    detail: str

    def describe(self) -> str:
        where = f" block {self.block}" if self.block is not None else ""
        who = f" node {self.node}" if self.node is not None else ""
        return (
            f"[{self.protocol}:{self.rule}]{who}{where} "
            f"at t={self.time_us:.1f}us: {self.detail}"
        )


class InvariantChecker(Hooks):
    """Install via :func:`repro.check.install_checkers`, which adds it
    to the machine's hooks like any other observer."""

    def __init__(self, machine, max_reports: int = 100):
        self.m = machine
        self.p = machine.protocol
        self.engine = machine.engine
        self.n = machine.params.n_nodes
        self.max_reports = max_reports
        self.violations: List[InvariantViolation] = []
        self.violations_total = 0
        self._seen: set = set()
        #: intervals already scanned for version monotonicity, per node
        self._scanned = [0] * self.n
        #: (author node, block) -> last notice version seen in its log
        self._last_version: Dict[Tuple[int, int], int] = {}
        #: (block) -> last settled (wts, rts) seen (tardis monotonicity)
        self._last_ts: Dict[int, Tuple[int, int]] = {}
        #: per-node last observed program timestamp (tardis)
        self._last_pts = [0] * self.n
        # Per-protocol checks, as plain functions called with self: bound
        # methods stored on the instance would make every checker a
        # reference cycle that holds its whole machine.
        self._per_message = _rule(_PER_MESSAGE, self.p)
        self._at_release = _rule(_AT_RELEASE, self.p)
        self._at_sync = _rule(_AT_SYNC, self.p)

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def _report(
        self,
        rule: str,
        detail: str,
        node: Optional[int] = None,
        block: Optional[int] = None,
    ) -> None:
        self.violations_total += 1
        key = (rule, node, block)
        if key in self._seen:
            return
        self._seen.add(key)
        if len(self.violations) < self.max_reports:
            self.violations.append(
                InvariantViolation(
                    rule=rule,
                    protocol=self.p.name,
                    node=node,
                    block=block,
                    time_us=self.engine.now,
                    detail=detail,
                )
            )

    def _tags(self, block: int) -> List[int]:
        return [n.access.tag(block) for n in self.m.nodes]

    # ------------------------------------------------------------------
    # per-message checks (on_protocol_message hook)
    # ------------------------------------------------------------------
    def on_protocol_message(self, node_id: int, msg) -> None:
        if self._per_message is not None and msg.block >= 0:
            self._per_message(self, msg.block)

    def _sc_in_flight(self, block: int) -> bool:
        p = self.p
        e = p.dir.get(block)
        if e is not None and (e.busy or e.pending):
            return True
        for i in range(self.n):
            key = (i, block)
            if (
                key in p._inflight
                or key in p._poisoned
                or key in p._settling
                or key in p._deferred_recalls
            ):
                return True
        return False

    def _msg_sc(self, block: int) -> None:
        if self._sc_in_flight(block):
            return
        p = self.p
        e = p.dir.get(block)
        tags = self._tags(block)
        rw = [i for i, t in enumerate(tags) if t == RW]
        ro = [i for i, t in enumerate(tags) if t not in (INV, RW)]
        if len(rw) > 1:
            self._report(
                "single-writer",
                f"multiple RW copies on nodes {rw}",
                block=block,
            )
        elif rw and ro:
            self._report(
                "writer-excludes-readers",
                f"node {rw[0]} holds RW while nodes {ro} hold RO",
                block=block,
            )
        if rw and (e is None or e.owner != rw[0]):
            self._report(
                "owner-tag-agreement",
                f"node {rw[0]} holds RW but directory owner is "
                f"{None if e is None else e.owner}",
                node=rw[0],
                block=block,
            )
        if e is not None and e.owner is not None and (e.sharers - {e.owner}):
            self._report(
                "owner-excludes-sharers",
                f"owner {e.owner} registered with extra sharers "
                f"{sorted(e.sharers - {e.owner})}",
                block=block,
            )

    def _msg_swlrc(self, block: int) -> None:
        p = self.p
        e = p.owners.get(block)
        if e is not None and (e.busy or e.pending):
            return
        tags = self._tags(block)
        rw = [i for i, t in enumerate(tags) if t == RW]
        if len(rw) > 1:
            self._report(
                "single-writable-copy",
                f"multiple RW copies on nodes {rw}",
                block=block,
            )
        holders = [i for i in range(self.n) if block in p.owned[i]]
        if len(holders) > 1:
            self._report(
                "unique-owner",
                f"multiple nodes believe they own the block: {holders}",
                block=block,
            )
        for i in rw:
            if block not in p.owned[i]:
                self._report(
                    "rw-implies-owned",
                    f"node {i} holds a writable copy without ownership",
                    node=i,
                    block=block,
                )

    def _msg_tardis(self, block: int) -> None:
        p = self.p
        e = p.entries.get(block)
        if e is None or e.busy or e.pending:
            return
        if e.wts > e.rts:
            self._report(
                "wts-le-rts",
                f"write timestamp {e.wts} above read lease {e.rts}",
                block=block,
            )
        last = self._last_ts.get(block)
        if last is not None and (e.wts < last[0] or e.rts < last[1]):
            self._report(
                "lease-monotonic",
                f"timestamps went backwards: {last} -> ({e.wts}, {e.rts})",
                block=block,
            )
        self._last_ts[block] = (e.wts, e.rts)
        tags = self._tags(block)
        rw = [i for i, t in enumerate(tags) if t == RW]
        if len(rw) > 1:
            self._report(
                "single-writable-copy",
                f"multiple RW copies on nodes {rw}",
                block=block,
            )
        if rw and e.owner != rw[0]:
            self._report(
                "owner-tag-agreement",
                f"node {rw[0]} holds RW but the recorded owner is {e.owner}",
                node=rw[0],
                block=block,
            )
        home_id = p.home.home_or_static(block)
        for i, t in enumerate(tags):
            if t in (INV, RW):
                continue
            lease = p.lease[i].get(block)
            if lease is None:
                if i == home_id and e.owner in (None, i):
                    # The unowned home reads its own memory -- always
                    # current, no lease needed.
                    continue
                self._report(
                    "reader-holds-lease",
                    "read-only copy without a recorded lease",
                    node=i,
                    block=block,
                )
            elif lease > e.rts:
                self._report(
                    "lease-bounded-by-rts",
                    f"node lease {lease} exceeds the block's rts {e.rts}",
                    node=i,
                    block=block,
                )

    # ------------------------------------------------------------------
    # release-boundary checks (on_release_done hook)
    # ------------------------------------------------------------------
    def on_release_done(self, node_id: int) -> None:
        if self._at_release is not None:
            self._at_release(self, node_id)

    def _writable_blocks(self, node_id: int) -> List[int]:
        return [
            b
            for b, t in self.m.nodes[node_id].access.blocks_with_access()
            if t == RW
        ]

    def _release_common(self, node_id: int) -> None:
        dirty = self.p.dirty[node_id]
        if dirty:
            self._report(
                "dirty-survives-release",
                f"{len(dirty)} dirty blocks after release "
                f"(e.g. {sorted(dirty)[:4]})",
                node=node_id,
            )
        writable = self._writable_blocks(node_id)
        if writable:
            self._report(
                "writable-after-release",
                f"blocks {writable[:4]} still RW after release "
                "(next interval's writes would go unadvertised)",
                node=node_id,
                block=writable[0],
            )
        self._scan_intervals(node_id)

    def _release_swlrc(self, node_id: int) -> None:
        self._release_common(node_id)

    def _release_hlrc(self, node_id: int) -> None:
        twins = self.p.twins[node_id]
        if twins:
            self._report(
                "twin-survives-release",
                f"{len(twins)} twins after release "
                f"(e.g. blocks {sorted(twins)[:4]}); diffs not flushed",
                node=node_id,
            )
        self._release_common(node_id)

    def _scan_intervals(self, node_id: int) -> None:
        """Write-notice version monotonicity, in interval order.

        Notices in a node's interval log are authored by that node;
        both protocols' invalidation-skipping arguments need the
        advertised version per (author, block) to strictly increase."""
        ilog = self.p.ilog
        log = ilog.intervals(node_id)  # the live ones, from the floor on
        floor = ilog.floor[node_id]
        for k in range(max(self._scanned[node_id], floor),
                       ilog.intervals_of(node_id)):
            for wn in log[k - floor].values():
                if wn.owner != node_id:
                    self._report(
                        "notice-author",
                        f"interval {k} carries a notice authored by "
                        f"node {wn.owner}",
                        node=node_id,
                        block=wn.block,
                    )
                key = (node_id, wn.block)
                last = self._last_version.get(key)
                if last is not None and wn.version <= last:
                    self._report(
                        "notice-version-monotonic",
                        f"interval {k} advertises version {wn.version} "
                        f"after version {last}",
                        node=node_id,
                        block=wn.block,
                    )
                self._last_version[key] = wn.version
        self._scanned[node_id] = ilog.intervals_of(node_id)

    # ------------------------------------------------------------------
    # notice-batch checks (on_notice_batch hook)
    # ------------------------------------------------------------------
    def on_notice_batch(self, node_id: int, seen) -> None:
        ilog = self.p.ilog
        floor = ilog.floor
        for w in ilog.writers:
            if seen[w] < floor[w]:
                self._report(
                    "retired-floor",
                    f"batch starts at interval {seen[w]} of node {w}, "
                    f"below its retired floor {floor[w]}",
                    node=node_id,
                )
                return

    # ------------------------------------------------------------------
    # acquire-side checks (on_sync_applied hook)
    # ------------------------------------------------------------------
    def on_sync_applied(self, node_id: int, payload) -> None:
        if self._at_sync is not None and payload:
            self._at_sync(self, node_id, payload)

    def _clock_bound(self, node_id: int) -> None:
        vts = self.p.vt
        diag = list(map(_own_component, vts))  # node i owns clock i
        mine = vts[node_id].as_tuple()
        if not any(map(gt, mine, diag)):
            return
        i = next(i for i, (x, d) in enumerate(zip(mine, diag)) if x > d)
        self._report(
            "clock-bound",
            f"component {i} is {mine[i]}, above node {i}'s own {diag[i]}",
            node=node_id,
        )

    def _barrier_own_notice(self, node_id: int, payload) -> None:
        if "dominates" not in payload:  # a lock grant
            return
        for wn in payload["notices"]:
            if wn.owner == node_id:
                self._report(
                    "barrier-own-notice",
                    f"barrier release carries the receiver's own notice "
                    f"(version {wn.version})",
                    node=node_id,
                    block=wn.block,
                )
                return

    def _sync_swlrc(self, node_id: int, payload) -> None:
        self._clock_bound(node_id)
        self._barrier_own_notice(node_id, payload)
        p = self.p
        access = self.m.nodes[node_id].access
        for wn in payload.get("notices") or ():
            if wn.owner == node_id:
                continue
            if access.tag(wn.block) != INV:
                version = p.version[node_id].get(wn.block)
                if version is None or version < wn.version:
                    self._report(
                        "notice-coverage",
                        f"copy kept with version {version} despite a "
                        f"notice for version {wn.version}",
                        node=node_id,
                        block=wn.block,
                    )
            hint = p.hint[node_id].get(wn.block)
            if hint is None or hint.version < wn.version:
                self._report(
                    "hint-freshness",
                    f"hint {hint} older than applied notice "
                    f"(version {wn.version} by node {wn.owner})",
                    node=node_id,
                    block=wn.block,
                )

    def _sync_hlrc(self, node_id: int, payload) -> None:
        self._clock_bound(node_id)
        self._barrier_own_notice(node_id, payload)
        p = self.p
        access = self.m.nodes[node_id].access
        for wn in payload.get("notices") or ():
            if wn.owner == node_id or p._is_home(node_id, wn.block):
                continue
            tag = access.tag(wn.block)
            if tag != INV:
                self._report(
                    "notice-invalidation",
                    f"copy kept {tag_name(tag)} despite a notice by "
                    f"node {wn.owner}",
                    node=node_id,
                    block=wn.block,
                )

    def _sync_tardis(self, node_id: int, payload) -> None:
        p = self.p
        shipped = payload.get("pts")
        if shipped is None:
            return
        pts = p.pts[node_id]
        if pts < shipped:
            self._report(
                "pts-advance-on-acquire",
                f"program timestamp {pts} below the granter's shipped "
                f"pts {shipped}",
                node=node_id,
            )
        if pts < self._last_pts[node_id]:
            self._report(
                "pts-monotonic",
                f"program timestamp went backwards: "
                f"{self._last_pts[node_id]} -> {pts}",
                node=node_id,
            )
        self._last_pts[node_id] = pts
        for block, lease in p.lease[node_id].items():
            if lease < pts:
                self._report(
                    "stale-lease-expired",
                    f"lease {lease} survived the expiry scan past "
                    f"pts {pts}",
                    node=node_id,
                    block=block,
                )

    # ------------------------------------------------------------------
    # end of run
    # ------------------------------------------------------------------
    def end_of_run(self) -> None:
        """Final sweeps once the event queue has drained.

        Trailing intervals (writes after the last release) are legal
        under LRC, so no dirty/twin checks here -- only the interval
        logs and, for SC, one full-directory consistency pass."""
        if self._at_release is not None:
            for i in range(self.n):
                self._scan_intervals(i)
        if isinstance(self.p, SCProtocol):
            blocks = set(self.p.dir)
            for node in self.m.nodes:
                blocks.update(b for b, _ in node.access.blocks_with_access())
            for block in sorted(blocks):
                self._msg_sc(block)
        elif isinstance(self.p, TardisProtocol):
            for block in sorted(self.p.entries):
                self._msg_tardis(block)


# Each table maps a protocol class to the rule written for it; a
# subclass (dc, swlrc-broken, a mutant) runs its nearest ancestor's.
_PER_MESSAGE: Dict[type, Callable] = {
    SCProtocol: InvariantChecker._msg_sc,
    SWLRCProtocol: InvariantChecker._msg_swlrc,
    TardisProtocol: InvariantChecker._msg_tardis,
}
_AT_RELEASE: Dict[type, Callable] = {
    SWLRCProtocol: InvariantChecker._release_swlrc,
    HLRCProtocol: InvariantChecker._release_hlrc,
}
_AT_SYNC: Dict[type, Callable] = {
    SWLRCProtocol: InvariantChecker._sync_swlrc,
    HLRCProtocol: InvariantChecker._sync_hlrc,
    TardisProtocol: InvariantChecker._sync_tardis,
}


def _rule(table: Dict[type, Callable], protocol) -> Optional[Callable]:
    """The rule for ``protocol``'s class or its nearest ancestor."""
    return next((table[cls] for cls in type(protocol).__mro__ if cls in table),
                None)
