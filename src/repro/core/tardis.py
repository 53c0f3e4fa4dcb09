"""Timestamp-lease coherence (Tardis-2.0 style, adapted to DSM).

The fourth protocol exists for one reason the paper's three cannot
deliver: **O(1) coherence metadata per block**.  SC keeps a directory
copyset (O(sharers), up to O(N)); the LRC protocols keep per-node
vector clocks (O(N) each, O(N^2) machine-wide).  Tardis replaces both
with two logical timestamps per block and one per node:

* ``wts`` -- the block's *write timestamp*: the logical time of the
  version currently stored at the home;
* ``rts`` -- the block's *read timestamp* (lease end): readers have
  been promised this version is readable up to logical time ``rts``;
* ``pts`` -- each node's *program timestamp*: a lower bound on the
  logical time of everything the node has observed.

Rules (all timestamp arithmetic is max/increment -- no vectors):

* **lease extension on read**: a read grant sets
  ``rts = max(rts, pts_reader + LEASE, wts)`` and the reader caches the
  block tagged read-only together with its lease end;
* **write-timestamp bump on exclusive acquisition**: a write grant sets
  ``wts = max(wts, rts) + 1`` (jumping over every outstanding lease)
  and ``rts = wts``; the writer's ``pts`` rises to ``wts``;
* **pts advance on acquire**: lock grants and barrier releases carry
  the granter's ``pts`` (one integer -- compare the LRC protocols'
  vector + write-notice payloads); the acquirer takes the max.

Why there are **no invalidations**: a reader holding a lease simply
keeps reading its copy -- possibly stale, which release consistency
permits between synchronizations.  Staleness ends at the acquire:
after ``pts`` advances, every cached lease with ``lease_end < pts`` is
*expired locally* (the writer that made the copy stale bumped ``wts``
above the old lease and carried ``pts >= wts`` through the
synchronization chain, so the acquirer's new ``pts`` is provably above
the stale lease).  Expiry sends no messages and consults no directory:
the home never needs to know who cached what, which is exactly why the
copyset disappears.

Exclusive copies migrate like SW-LRC ownership: the home serializes
transfers (busy/pending), recalls the current owner's data when
someone else faults (the owner *downgrades* to a leased read-only copy
-- again, no invalidation), and keeps the transfer pipeline closed
until the new owner confirms.

Memory model: ``lrc`` -- writes become visible at synchronization, so
the model checker vets tardis against the same litmus outcome sets as
SW-LRC/HLRC.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, Generator, List, Optional, Set, Tuple

from repro.core.protocol import CoherenceProtocol, register
from repro.memory.access_control import INV, RO, RW
from repro.net.message import HEADER_BYTES, Message
from repro.sim.process import Future

#: wire bytes of a (wts, rts) timestamp pair on a data reply
TS_BYTES = 16


@dataclass(slots=True)
class TardisEntry:
    """Home-side per-block record -- the *entire* coherence metadata.

    Fixed size regardless of node count: two timestamps, an owner id,
    and transfer-serialization plumbing.  No copyset.
    """

    wts: int = 0
    rts: int = 0
    owner: Optional[int] = None
    busy: bool = False
    #: request stalled behind an owner recall
    stalled: Optional[Message] = None
    #: requests queued behind a busy transfer (None until one queues)
    pending: Optional[Deque[Message]] = None


@register
class TardisProtocol(CoherenceProtocol):
    name = "tardis"
    memory_model = "lrc"
    #: sync messages carry one integer, not vectors + notices
    uses_notices = False
    touch_on_load = False  # a "touch" is a store, as for the LRC protocols

    #: logical lease length granted per read (Tardis's only tunable;
    #: longer leases mean fewer re-reads but more staleness headroom --
    #: correctness never depends on the value)
    LEASE = 10

    def __init__(self, machine):
        super().__init__(machine)
        n = machine.params.n_nodes
        #: home-side block records (O(1) each -- the point of tardis)
        self.entries: Dict[int, TardisEntry] = {}
        #: per-node program timestamp
        self.pts: List[int] = [0] * n
        #: per-node cached-copy lease ends: block -> rts at grant
        self.lease: List[Dict[int, int]] = [dict() for _ in range(n)]
        #: node-local knowledge "I hold the exclusive copy"
        self.owned: List[Set[int]] = [set() for _ in range(n)]

    def _register_handlers(self) -> None:
        self._register_common()
        self._handlers.update(
            {
                "t_read_req": self._h_req,
                "t_write_req": self._h_req,
                "t_read_reply": self._h_generic_ack,
                "t_write_reply": self._h_generic_ack,
                "t_wb_req": self._h_wb_req,
                "t_wb_data": self._h_wb_data,
                "t_own_ack": self._h_own_ack,
            }
        )

    def _entry(self, block: int) -> TardisEntry:
        e = self.entries.get(block)
        if e is None:
            e = TardisEntry()
            self.entries[block] = e
        return e

    def _is_home(self, node_id: int, block: int) -> bool:
        return self.home.home_or_static(block) == node_id

    # ==================================================================
    # placement
    # ==================================================================
    def on_place(self, block: int, home_id: int, prev: Optional[int]) -> None:
        """The home's copy is readable from t=0; re-placement revokes
        the previous home's copy (ownership and leases are only taken at
        run time, after every placement)."""
        if prev is not None:
            self.m.nodes[prev].access.invalidate(block)
        self.m.nodes[home_id].access.set_tag(block, RO)
        e = self._entry(block)
        e.owner = None

    # ==================================================================
    # read fault: lease acquisition (app context)
    # ==================================================================
    def read_fault(self, node, block: int) -> Generator:
        yield from self.maybe_claim_first_touch(node.id, block, store=False)
        e = self.entries.get(block)
        if self._is_home(node.id, block) and (
            e is None or (not e.busy and e.owner in (None, node.id))
        ):
            # Home copy is current; extend the lease purely locally.
            self.stats.record_local_reopen(node.id)
            self.home.claim_first_touch(block, node.id)
            e = self._entry(block)
            e.rts = max(e.rts, self.pts[node.id] + self.LEASE, e.wts)
            self.lease[node.id][block] = e.rts
            node.access.set_tag(block, RO)
            yield self.params.tag_change_us
            return
        self.stats.record_read_fault(node.id)
        fut = Future(self.engine)
        self.send(
            node.id,
            self.route_home(node.id, block),
            "t_read_req",
            block=block,
            payload={"pts": self.pts[node.id]},
            reply_to=fut,
        )
        reply = yield from node.wait(fut, "fault_wait_us")
        self.home.learn(node.id, block, reply["home"])
        if reply["data"] is not None:
            node.store.install(block, reply["data"])
        # Read rule: observing version wts lifts the program timestamp.
        if reply["wts"] > self.pts[node.id]:
            self.pts[node.id] = reply["wts"]
        self.lease[node.id][block] = reply["rts"]
        node.access.set_tag(block, RO)

    # ==================================================================
    # write fault: exclusive acquisition (app context)
    # ==================================================================
    def write_fault(self, node, block: int) -> Generator:
        yield from self.maybe_claim_first_touch(node.id, block, store=True)
        e = self.entries.get(block)
        if self._is_home(node.id, block) and (
            e is None or (not e.busy and e.owner in (None, node.id))
        ):
            # Home memory is current: bump the write timestamp over
            # every outstanding lease and take exclusivity locally.
            self.stats.record_local_reopen(node.id)
            e = self._entry(block)
            e.wts = max(e.wts, e.rts) + 1
            e.rts = e.wts
            if e.wts > self.pts[node.id]:
                self.pts[node.id] = e.wts
            e.owner = node.id
            self.owned[node.id].add(block)
            self.lease[node.id].pop(block, None)
            node.access.set_tag(block, RW)
            yield self.params.tag_change_us
            return
        self.stats.record_write_fault(node.id)
        fut = Future(self.engine)
        self.send(
            node.id,
            self.route_home(node.id, block),
            "t_write_req",
            block=block,
            payload={"pts": self.pts[node.id]},
            reply_to=fut,
        )
        reply = yield from node.wait(fut, "fault_wait_us")
        self.home.learn(node.id, block, reply["home"])
        if reply["data"] is not None:
            node.store.install(block, reply["data"])
        if reply["wts"] > self.pts[node.id]:
            self.pts[node.id] = reply["wts"]
        self.lease[node.id].pop(block, None)
        self.owned[node.id].add(block)
        node.access.set_tag(block, RW)
        yield self.params.tag_change_us
        # Confirm after the tag flip (the caller stores its bytes in
        # the same event as this resumption); the home keeps the
        # block's transfer pipeline closed until then.
        self.send(
            node.id,
            reply["home"],
            "t_own_ack",
            block=block,
            payload={"new_owner": node.id},
        )

    # ==================================================================
    # home-side request serialization
    # ==================================================================
    def _h_req(self, node, msg: Message) -> None:
        if self.forward_if_not_home(node, msg):
            return
        e = self._entry(msg.block)
        if e.busy:
            if e.pending is None:
                e.pending = deque()
            e.pending.append(msg)
            return
        self._start(node, msg, e)

    def _start(self, node, msg: Message, e: TardisEntry) -> None:
        block = msg.block
        requester, _ = self.requester_of(msg)
        if (not self.home.is_claimed(block)
                and self.home.static_home(block) == node.id):
            # Loads do not claim at the requester; the static home
            # claims for itself when the request arrives.
            self.home.claim_first_touch(block, node.id)
        if e.owner is not None and e.owner not in (node.id, requester):
            # Fresh data lives at the exclusive owner: recall it.  The
            # owner downgrades to a leased read-only copy -- this is a
            # writeback, not an invalidation; nobody's copy dies here.
            e.busy = True
            e.stalled = msg
            self.send(
                node.id,
                e.owner,
                "t_wb_req",
                block=block,
                payload={"home": node.id, "rts": e.rts},
            )
            return
        if msg.mtype == "t_read_req":
            self._grant_read(node, msg, e)
        else:
            self._grant_write(node, msg, e)

    def _grant_read(self, node, msg: Message, e: TardisEntry) -> None:
        block = msg.block
        requester, payload = self.requester_of(msg)
        req_pts = payload["pts"] if payload else 0
        p = self.params
        if e.owner == node.id:
            # Granting a lease ends the home's exclusivity so its next
            # write re-faults (and re-bumps wts above this lease).
            self.owned[node.id].discard(block)
            node.access.downgrade(block)
            e.owner = None
        elif e.owner == requester:
            # Transient retry by a recalled owner; its copy is current.
            e.owner = None
        e.rts = max(e.rts, req_pts + self.LEASE, e.wts)
        if e.owner is None and node.access.tag(block) != INV:
            # The home's readable copy is covered by the block lease.
            self.lease[node.id][block] = e.rts
        send_data = requester != node.id
        self.send(
            node.id,
            requester,
            "t_read_reply",
            size=(HEADER_BYTES + p.granularity + TS_BYTES if send_data
                  else HEADER_BYTES + TS_BYTES),
            block=block,
            payload={
                "home": node.id,
                "data": node.store.snapshot(block) if send_data else None,
                "wts": e.wts,
                "rts": e.rts,
            },
            cost=self.data_reply_cost() if send_data else None,
            reply_to=msg.reply_to,
        )
        self._complete(node, e)

    def _grant_write(self, node, msg: Message, e: TardisEntry) -> None:
        block = msg.block
        requester, _ = self.requester_of(msg)
        p = self.params
        had_owner = e.owner
        if e.owner == node.id:
            self.owned[node.id].discard(block)
            node.access.downgrade(block)
            e.owner = None
        if (requester != node.id and node.access.tag(block) != INV
                and block not in self.owned[node.id]):
            # The home keeps a readable (soon stale) copy under the
            # pre-bump lease; it expires at the home's next acquire.
            self.lease[node.id][block] = max(
                self.lease[node.id].get(block, 0), e.rts
            )
        # The bump: jump over every lease ever granted on this block,
        # so stale copies are provably below the new version.
        e.wts = max(e.wts, e.rts) + 1
        e.rts = e.wts
        send_data = requester not in (node.id, had_owner)
        e.owner = None
        e.busy = True  # closed until t_own_ack
        self.send(
            node.id,
            requester,
            "t_write_reply",
            size=(HEADER_BYTES + p.granularity + TS_BYTES if send_data
                  else HEADER_BYTES + TS_BYTES),
            block=block,
            payload={
                "home": node.id,
                "data": node.store.snapshot(block) if send_data else None,
                "wts": e.wts,
                "rts": e.rts,
            },
            cost=self.data_reply_cost() if send_data else None,
            reply_to=msg.reply_to,
        )

    def _complete(self, node, e: TardisEntry) -> None:
        e.busy = False
        if e.pending:
            self._start(node, e.pending.popleft(), e)

    # ------------------------------------------------------------------
    # owner recall (downgrade + writeback -- never an invalidation)
    # ------------------------------------------------------------------
    def _h_wb_req(self, node, msg: Message) -> None:
        block = msg.block
        p = self.params
        self.owned[node.id].discard(block)
        node.access.downgrade(block)
        # The old owner's copy stays readable under the block's lease.
        self.lease[node.id][block] = msg.payload["rts"]
        self.send(
            node.id,
            msg.payload["home"],
            "t_wb_data",
            size=HEADER_BYTES + p.granularity,
            block=block,
            payload={"data": node.store.snapshot(block)},
            cost=self.data_reply_cost(),
        )

    def _h_wb_data(self, node, msg: Message) -> None:
        e = self._entry(msg.block)
        node.store.install(msg.block, msg.payload["data"])
        e.owner = None
        stalled, e.stalled = e.stalled, None
        if stalled is None:  # pragma: no cover - defensive
            self._complete(node, e)
            return
        self._start(node, stalled, e)

    def _h_own_ack(self, node, msg: Message) -> None:
        e = self._entry(msg.block)
        e.owner = msg.payload["new_owner"]
        self._complete(node, e)

    # ==================================================================
    # synchronization: one integer instead of vectors + notices
    # ==================================================================
    def current_vt(self, node_id: int) -> int:
        return self.pts[node_id]

    def grant_payload(
        self, granter_id: int, acq_vt, acquirer: int
    ) -> Tuple[Any, int]:
        return {"pts": self.pts[granter_id]}, 0

    def barrier_payloads(
        self, vts: Dict[int, Any]
    ) -> Dict[int, Tuple[Any, int]]:
        merged = 0
        for v in vts.values():
            if v is not None and v > merged:
                merged = v
        return {nid: ({"pts": merged}, 0) for nid in vts}

    def apply_sync(self, node, payload) -> Generator:
        if not payload:
            return
        nid = node.id
        pts = self.pts[nid]
        if payload["pts"] > pts:
            pts = payload["pts"]
            self.pts[nid] = pts
        # Lease expiry -- tardis's entire acquire-side coherence work.
        # Purely local: drop cached copies whose lease ended before the
        # program timestamp we just advanced to.
        lease = self.lease[nid]
        expired = [b for b, r in lease.items() if r < pts]
        if expired:
            for b in expired:
                del lease[b]
                if node.access.invalidate(b):
                    self.stats.invalidations += 1
            yield self.params.tag_change_us * len(expired)
