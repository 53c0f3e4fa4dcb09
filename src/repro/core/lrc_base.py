"""Shared machinery of the two lazy-release-consistency protocols.

Both SW-LRC and HLRC use timestamp-based coherence control (paper
Sections 2.2/2.3): each node's execution is split into intervals at
release operations; write notices describing modified blocks propagate
with lock grants and barrier releases; invalidations are applied at
acquire time.  The subclasses differ in

* what happens at a release (:meth:`_release_flush`): HLRC eagerly
  diffs and flushes to homes, SW-LRC only bumps versions;
* how a notice plan is applied (:meth:`_apply_notices`): HLRC
  invalidates held copies unless home, SW-LRC compares the versions of
  held copies;
* how misses are serviced.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Dict, Generator, List, Set, Tuple

from repro.core.protocol import CoherenceProtocol
from repro.core.timestamps import IntervalLog, Plan, VectorClock, merge_plan


class LRCBase(CoherenceProtocol):
    """Intervals, vector timestamps and write-notice plumbing."""

    memory_model = "lrc"
    uses_notices = True
    touch_on_load = False  # a "touch" is a store for the LRC protocols

    def __init__(self, machine):
        super().__init__(machine)
        n = machine.params.n_nodes
        self.vt: List[VectorClock] = [VectorClock(n, own=i) for i in range(n)]
        self.ilog = IntervalLog(n)
        #: blocks written since the node's last release (notice sources)
        self.dirty: List[Set[int]] = [set() for _ in range(n)]

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _release_flush(self, node) -> Generator:
        """Flush pending modifications; returns the interval's notices."""
        raise NotImplementedError

    def _apply_notices(self, node, plan: Plan) -> Generator:
        """Apply a notice plan (:func:`merge_plan`) at acquire time, in
        app context: block -> the block's first max-version notice,
        blocks in first-occurrence order, none authored by ``node``.
        Applying the plan must leave the same state as applying every
        notice of its batch in order.

        A notice can only act on a block the receiver holds, so an
        implementation intersects the plan's keys with its held blocks
        (a C-level set operation) and takes Python steps for those
        alone: a receiver holding none of a thousand noticed blocks
        invalidates nothing and never calls ``invalidate``."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # synchronization hooks (called by the lock/barrier services)
    # ------------------------------------------------------------------
    def current_vt(self, node_id: int) -> Tuple[int, ...]:
        return self.vt[node_id].as_tuple()

    def arrival_vt(self, node_id: int) -> VectorClock:
        """The live clock object, not a materialised tuple: the manager
        reads its own component and its shared base in place (see
        :meth:`barrier_payloads`)."""
        return self.vt[node_id]

    def release_prepare(self, node) -> Generator:
        """Close the current interval (and flush, for HLRC)."""
        notices = yield from self._release_flush(node)
        self.ilog.close_interval(node.id, notices)
        self.vt[node.id].tick(node.id)
        self.stats.write_notices_sent += len(notices)
        yield self.params.interval_us

    def grant_payload(
        self, granter_id: int, acq_vt, acquirer: int
    ) -> Tuple[Any, int]:
        """The granter's timestamp, the notices the acquirer lacks and
        the intervals their plan merges, which skip the ``acquirer``'s
        own (see :meth:`apply_sync`)."""
        if acq_vt is None:
            acq_vt = (0,) * self.params.n_nodes
        hooks = self.m.hooks
        if hooks is not None:
            hooks.on_notice_batch(acquirer, acq_vt)
        vt = self.vt[granter_id].as_tuple()
        notices, planned, runs = self.ilog.notices_between(acq_vt, vt, acquirer)
        return {"vt": vt, "notices": notices, "planned": planned}, runs

    def barrier_payloads(
        self, vts: Dict[int, VectorClock]
    ) -> Dict[int, Tuple[Any, int]]:
        """Tailored release payloads around one merged timestamp.

        Only node ``i`` ticks component ``i``; every other clock learns
        it through a grant or barrier that copied some earlier value of
        node ``i``'s own clock.  So ``vt[n][i] <= vt[i][i]`` for every
        pair of nodes (the checker's ``clock-bound`` rule), and the
        column max of a participant ``i``'s column is its own arrival's
        diagonal entry: its clock's own component ``vts[i].mine``.  Only
        a column with no arrival (a partial barrier) needs the max over
        the arrivals -- one O(N) formula instead of an O(N^2) column
        max.

        A node blocked in the barrier can neither tick nor apply a
        grant, so its clock still equals its arrival: the arrivals are
        the nodes' live clocks (:meth:`arrival_vt`), and ``apply_sync``
        adopts a payload marked ``dominates`` as its clock's base
        instead of merging it, since the merged timestamp dominates
        every arrival.

        An arrival's notices depend only on its components at the
        interval log's writers, so arrivals agreeing there share one
        payload: its notices, their run count and the notice plan
        ``apply_sync`` applies are built once per distinct view.  The
        view key is the base's components at the writers, taken once
        per distinct base, with the owner's own component patched in;
        no arrival's clock is materialised unless it opens a new view.
        The plan skips no receiver's own intervals because none occur:
        a participant's own component equals the merged diagonal (the
        checker's ``barrier-own-notice`` rule asserts it).
        """
        arrivals = vts.values()
        merged = tuple(
            vts[i].mine if i in vts else max(vt[i] for vt in arrivals)
            for i in range(self.params.n_nodes)
        )
        ilog = self.ilog
        writers = ilog.writers
        n_writers = len(writers)
        hooks = self.m.hooks
        base_keys: Dict[int, Tuple[int, ...]] = {}  # id(base) -> its key
        by_view: Dict[Tuple[int, ...], Tuple[Any, int]] = {}
        out: Dict[int, Tuple[Any, int]] = {}
        for node_id, vt in vts.items():
            if hooks is not None:
                hooks.on_notice_batch(node_id, vt)
            base = vt.base  # alive for the whole call, so its id is too
            key = base_keys.get(id(base))
            if key is None:
                key = base_keys[id(base)] = tuple(map(base.__getitem__, writers))
            own = vt.own
            k = bisect_left(writers, own)
            if k < n_writers and writers[k] == own and key[k] != vt.mine:
                patched = list(key)
                patched[k] = vt.mine
                key = tuple(patched)
            shared = by_view.get(key)
            if shared is None:
                notices, planned, runs = ilog.notices_between(
                    vt.as_tuple(), merged)
                shared = by_view[key] = (
                    {
                        "vt": merged,
                        "notices": notices,
                        "planned": planned,
                        "dominates": True,
                    },
                    runs,
                )
            out[node_id] = shared
        return out

    def barrier_released(self, vts: Dict[int, VectorClock]) -> None:
        """Retire the intervals every node will have seen once this
        barrier's release is applied (see :meth:`IntervalLog.retire`).

        Writer ``w``'s floor is the minimum of ``w``'s component over
        all N nodes.  A participant counts with the merged timestamp:
        it is blocked until it applies the release, so it asks for no
        notices before its clock equals that.  A node outside a partial
        barrier counts with its live clock; while it waits for a lock
        its clock is the one its request carries.  The payloads already
        built hold their own references to the intervals they ship."""
        ilog = self.ilog
        writers = ilog.writers
        if len(vts) == self.params.n_nodes:  # every clock becomes merged
            ilog.retire({w: vts[w].mine for w in writers})
            return
        arrivals = vts.values()
        others = [vt.as_tuple() for j, vt in enumerate(self.vt) if j not in vts]
        floor: Dict[int, int] = {}
        for w in writers:
            merged = vts[w].mine if w in vts else max(vt[w] for vt in arrivals)
            floor[w] = min(merged, *(vt[w] for vt in others))
        ilog.retire(floor)

    def apply_sync(self, node, payload) -> Generator:
        """Merge the payload's timestamp and apply its notice plan.

        The plan is merged from the payload's ``planned`` intervals when
        the payload is first applied, and kept in it for any receiver
        sharing the payload: built at release time, the plans of every
        view of a barrier episode would be alive at once."""
        if not payload:
            return
        if "dominates" in payload:  # a barrier release, see barrier_payloads
            self.vt[node.id].assign(payload["vt"])
        else:  # a lock grant: the granter may lag the acquirer
            self.vt[node.id].merge(payload["vt"])
        notices = payload["notices"]
        if notices:
            self.stats.write_notices_applied += len(notices)
            # Bookkeeping cost of walking the notice list.
            yield self.params.write_notice_us * len(notices)
            plan = payload.get("plan")
            if plan is None:
                plan = payload["plan"] = merge_plan(payload["planned"])
            yield from self._apply_notices(node, plan)
