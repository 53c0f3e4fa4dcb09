"""Shared machinery of the two lazy-release-consistency protocols.

Both SW-LRC and HLRC use timestamp-based coherence control (paper
Sections 2.2/2.3): each node's execution is split into intervals at
release operations; write notices describing modified blocks propagate
with lock grants and barrier releases; invalidations are applied at
acquire time.  The subclasses differ in

* what happens at a release (:meth:`_release_flush`): HLRC eagerly
  diffs and flushes to homes, SW-LRC only bumps versions;
* how a write notice is applied (:meth:`_apply_notice`): HLRC
  invalidates unless home/writer, SW-LRC compares versions;
* how misses are serviced.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Set, Tuple

from repro.core.protocol import CoherenceProtocol
from repro.core.timestamps import IntervalLog, VectorClock, WriteNotice


class LRCBase(CoherenceProtocol):
    """Intervals, vector timestamps and write-notice plumbing."""

    memory_model = "lrc"
    uses_notices = True
    touch_on_load = False  # a "touch" is a store for the LRC protocols

    def __init__(self, machine):
        super().__init__(machine)
        n = machine.params.n_nodes
        self.vt: List[VectorClock] = [VectorClock(n) for _ in range(n)]
        self.ilog = IntervalLog(n)
        #: blocks written since the node's last release (notice sources)
        self.dirty: List[Set[int]] = [set() for _ in range(n)]

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _release_flush(self, node) -> Generator:
        """Flush pending modifications; returns the interval's notices."""
        raise NotImplementedError

    def _apply_notice(self, node, wn: WriteNotice) -> Generator:
        """Apply one write notice at acquire time (app context)."""
        raise NotImplementedError

    def _apply_notices(self, node, notices: List[WriteNotice]) -> Generator:
        """Apply a notice batch; semantically ``_apply_notice`` in a loop.

        Subclasses override this with a single flat loop because
        creating one generator per notice (barrier releases carry
        thousands) shows up in profiles.  An override must stay
        behavior-identical to iterating :meth:`_apply_notice`."""
        for wn in notices:
            yield from self._apply_notice(node, wn)

    # ------------------------------------------------------------------
    # synchronization hooks (called by the lock/barrier services)
    # ------------------------------------------------------------------
    def current_vt(self, node_id: int) -> Tuple[int, ...]:
        return self.vt[node_id].as_tuple()

    def release_prepare(self, node) -> Generator:
        """Close the current interval (and flush, for HLRC)."""
        notices = yield from self._release_flush(node)
        self.ilog.close_interval(node.id, notices)
        self.vt[node.id].tick(node.id)
        self.stats.write_notices_sent += len(notices)
        yield self.params.interval_us

    def grant_payload(self, granter_id: int, acq_vt) -> Tuple[Any, int]:
        if acq_vt is None:
            acq_vt = (0,) * self.params.n_nodes
        vt = self.vt[granter_id].as_tuple()
        notices = self.ilog.notices_between(acq_vt, vt)
        payload = {"vt": vt, "notices": notices}
        return payload, self.ilog.compressed_count(notices)

    def barrier_payloads(
        self, vts: Dict[int, Any]
    ) -> Dict[int, Tuple[Any, int]]:
        if len(vts) > 1:
            # Column-wise max over every arrival, at C level; computed
            # once and shared by every payload.
            merged = tuple(map(max, *vts.values()))
        else:  # max() of a single int raises: nothing to merge
            merged = tuple(*vts.values())
        ilog = self.ilog
        out: Dict[int, Tuple[Any, int]] = {}
        for node_id, vt in vts.items():
            notices = ilog.notices_between(vt, merged)
            out[node_id] = (
                {"vt": merged, "notices": notices},
                ilog.compressed_count(notices),
            )
        return out

    def apply_sync(self, node, payload) -> Generator:
        if not payload:
            return
        self.vt[node.id].merge(payload["vt"])
        notices = payload["notices"]
        if notices:
            self.stats.write_notices_applied += len(notices)
            # Bookkeeping cost of walking the notice list.
            yield self.params.write_notice_us * len(notices)
            yield from self._apply_notices(node, notices)
