"""Single-Writer Lazy Release Consistency (paper Section 2.2).

A single writable copy co-exists with multiple read-only copies:

* a write fault migrates *ownership* (the writable copy) to the
  faulting node, but read-only copies are **not** invalidated;
* stale copies are invalidated lazily at acquire time using write
  notices carrying block versions;
* because the notice records both the version and the writer, a read
  fault is serviced in a **one-hop** round trip to the noticed writer,
  and copies whose version already covers the notice skip the
  invalidation ("avoid unnecessary invalidations").

Versioning rule (consistent lower-bound semantics):

* an ownership transfer hands the new owner ``old_version + 1``;
* a release in which the owner wrote the block bumps its version and
  the notice carries the bumped value.

A copy with version ``v`` is guaranteed to include every write
advertised by notices with version ``<= v``, so the invalidation test
``notice.version > my_version`` is safe (see tests for the
mid-interval-transfer corner cases).

The block's home keeps the authoritative owner identity and serializes
ownership transfers; reads chase hint chains (hints always point at
strictly newer versions, so chains terminate at the current owner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, List, Optional, Set

from repro.core.lrc_base import LRCBase
from repro.core.protocol import HomeEntry, register
from repro.core.timestamps import WriteNotice
from repro.memory.access_control import INV, RO, RW
from repro.net.message import HEADER_BYTES, Message
from repro.sim.process import Future


@dataclass(slots=True)
class OwnerEntry(HomeEntry):
    """Home-side authoritative ownership record for one block; its
    :class:`HomeEntry` queue serializes the transfers."""

    owner: Optional[int] = None


@register
class SWLRCProtocol(LRCBase):
    name = "swlrc"

    def __init__(self, machine):
        super().__init__(machine)
        n = machine.params.n_nodes
        #: version of each node's local copy
        self.version: List[Dict[int, int]] = [dict() for _ in range(n)]
        #: freshest writer hint per node: block -> the applied notice
        #: with the highest version (its ``owner`` is the writer)
        self.hint: List[Dict[int, WriteNotice]] = [dict() for _ in range(n)]
        #: home-side ownership directory
        self.owners: Dict[int, OwnerEntry] = {}
        #: node-local knowledge "I am the current owner" -- lets a
        #: re-write after a release re-open the block without messages
        self.owned: List[Set[int]] = [set() for _ in range(n)]

    def _register_handlers(self) -> None:
        self._register_common()
        self._handlers.update(
            {
                "own_req": self._h_own_req,
                "own_fwd": self._h_own_fwd,
                "own_reply": self._h_generic_ack,
                "owner_update": self._h_owner_update,
                "rread_req": self._h_rread_req,
                "rread_reply": self._h_generic_ack,
            }
        )

    def _entry(self, block: int) -> OwnerEntry:
        e = self.owners.get(block)
        if e is None:
            e = OwnerEntry()
            self.owners[block] = e
        return e

    # ==================================================================
    # write fault: ownership migration (app context).  The home's placed
    # copy is readable (the base ``on_place``); its first write acquires
    # ownership through the cheap local path.
    # ==================================================================
    def write_fault(self, node, block: int) -> Generator:
        yield from self.maybe_claim_first_touch(node.id, block, store=True)
        e = self.owners.get(block)
        if self._is_home(node.id, block) and (
            e is None or e.owner in (None, node.id)
        ):
            self.stats.record_local_reopen(node.id)
        elif block in self.owned[node.id]:
            self.stats.record_local_reopen(node.id)
        else:
            self.stats.record_write_fault(node.id)
        if block in self.owned[node.id]:
            # Still the single writer; the release-time downgrade to RO
            # exists only to *detect* the next interval's writes.
            # Re-opening is purely local.
            self.dirty[node.id].add(block)
            node.access.set_tag(block, RW)
            yield self.params.tag_change_us
            return
        fut = Future(self.engine)
        self.send(
            node.id,
            self.route_home(node.id, block),
            "own_req",
            block=block,
            reply_to=fut,
        )
        reply = yield from node.wait(fut, "fault_wait_us")
        self.home.learn(node.id, block, reply["home"])
        if reply["data"] is not None:
            node.store.install(block, reply["data"])
        self.version[node.id][block] = reply["version"]
        self.dirty[node.id].add(block)
        self.owned[node.id].add(block)
        node.access.set_tag(block, RW)
        yield self.params.tag_change_us
        if reply.get("confirm"):
            # Tell the home the transfer completed; it keeps the block's
            # transfer pipeline closed (busy) until then, so ownership
            # can never be granted away from a node that does not hold
            # it yet.  Sent after the tag flip: the caller copies its
            # bytes in the same event as this resumption, strictly
            # before any handler can act on the confirmation.
            self.send(
                node.id,
                reply["home"],
                "owner_update",
                block=block,
                payload={"new_owner": node.id},
            )

    def _h_own_req(self, node, msg: Message) -> None:
        if self.forward_if_not_home(node, msg):
            return
        e = self._entry(msg.block)
        if not e.park(msg):
            self._start_own(node, msg, e)

    def _start_own(self, node, msg: Message, e: OwnerEntry) -> None:
        requester, _ = self.requester_of(msg)
        block = msg.block
        p = self.params
        if e.owner == requester:
            # Re-request by the current owner (a retry after a theft
            # race): regrant without data.
            version = self.version[requester].get(block, 0) + 1
            self.send(
                node.id,
                requester,
                "own_reply",
                block=block,
                payload={"home": node.id, "data": None, "version": version,
                         "confirm": False},
                reply_to=msg.reply_to,
            )
            self._complete_own(node, e)
        elif e.owner is None or e.owner == node.id:
            # Grant straight from home memory.
            version = self.version[node.id].get(block, 0) + 1
            if requester == node.id:
                # Even the home's own grant stays busy until confirmed:
                # the app-level tag flip happens later, and granting the
                # block away in between would be invisible to the app.
                e.busy = True
                self.send(
                    node.id,
                    requester,
                    "own_reply",
                    block=block,
                    payload={"home": node.id, "data": None, "version": version,
                             "confirm": True},
                    reply_to=msg.reply_to,
                )
                return
            if e.owner == node.id:
                self.owned[node.id].discard(block)
                node.access.downgrade(block)
            # Ownership is in flight until the requester confirms; any
            # competing transfer queues behind it.
            e.busy = True
            self.send(
                node.id,
                requester,
                "own_reply",
                size=HEADER_BYTES + p.granularity,
                block=block,
                payload={"home": node.id, "data": node.store.snapshot(block),
                         "version": version, "confirm": True},
                cost=self.data_reply_cost(),
                reply_to=msg.reply_to,
            )
        else:
            e.busy = True
            self.send(
                node.id,
                e.owner,
                "own_fwd",
                block=block,
                payload={"requester": requester, "reply_to": msg.reply_to,
                         "home": node.id},
            )

    def _h_own_fwd(self, node, msg: Message) -> None:
        """The current owner hands the block (and ownership) over."""
        block = msg.block
        p = self.params
        payload = msg.payload
        requester = payload["requester"]
        version = self.version[node.id].get(block, 0) + 1
        # The old owner keeps a read-only copy (the SW-LRC relaxation:
        # readers are not invalidated on a write elsewhere).
        self.owned[node.id].discard(block)
        node.access.downgrade(block)
        self.send(
            node.id,
            requester,
            "own_reply",
            size=HEADER_BYTES + p.granularity,
            block=block,
            payload={"home": payload["home"], "data": node.store.snapshot(block),
                     "version": version, "confirm": True},
            cost=self.data_reply_cost(),
            reply_to=payload["reply_to"],
        )

    def _h_owner_update(self, node, msg: Message) -> None:
        e = self._entry(msg.block)
        e.owner = msg.payload["new_owner"]
        self._complete_own(node, e)

    def _complete_own(self, node, e: OwnerEntry) -> None:
        nxt = e.close()
        if nxt is not None:
            self._start_own(node, nxt, e)

    # ==================================================================
    # read fault: one-hop service from the hinted writer (app context)
    # ==================================================================
    def read_fault(self, node, block: int) -> Generator:
        hint = self.hint[node.id].get(block)
        if hint is None and self._is_home(node.id, block):
            e = self._entry(block)
            if e.owner is None or e.owner == node.id:
                # Home copy is current; purely local.
                self.stats.record_local_reopen(node.id)
                self.home.claim_first_touch(block, node.id)
                node.access.set_tag(block, RO)
                yield self.params.tag_change_us
                return
            self.stats.record_read_fault(node.id)
            target = e.owner
        elif hint is not None:
            self.stats.record_read_fault(node.id)
            target = hint.owner
        else:
            self.stats.record_read_fault(node.id)
            target = self.route_home(node.id, block)
        fut = Future(self.engine)
        self.send(node.id, target, "rread_req", block=block, reply_to=fut)
        reply = yield from node.wait(fut, "fault_wait_us")
        if reply.get("home") is not None:
            self.home.learn(node.id, block, reply["home"])
        node.store.install(block, reply["data"])
        self.version[node.id][block] = reply["version"]
        node.access.set_tag(block, RO)

    def _h_rread_req(self, node, msg: Message) -> None:
        block = msg.block
        requester, _ = self.requester_of(msg)
        p = self.params
        if node.access.tag(block) != INV and node.store.has_block(block):
            # Serve from the local (possibly past-owner) copy: its
            # version is at least the version of the notice that led
            # the requester here, which is all causality requires.
            self.send(
                node.id,
                requester,
                "rread_reply",
                size=HEADER_BYTES + p.granularity,
                block=block,
                payload={
                    "home": node.id if self._is_home(node.id, block) else None,
                    "data": node.store.snapshot(block),
                    "version": self.version[node.id].get(block, 0),
                },
                cost=self.data_reply_cost(),
                reply_to=msg.reply_to,
            )
            return
        # No usable copy here: chase a fresher hint, or fall back home.
        hint = self.hint[node.id].get(block)
        if hint is not None and hint.owner != node.id:
            target = hint.owner
        elif self._is_home(node.id, block):
            e = self._entry(block)
            if e.owner is None or e.owner == node.id:
                # Unowned block at its (claimed or static) home: the
                # home copy is the initial/current content.
                if self.home.static_home(block) == node.id:
                    self.home.claim_first_touch(block, node.id)
                self.send(
                    node.id,
                    requester,
                    "rread_reply",
                    size=HEADER_BYTES + p.granularity,
                    block=block,
                    payload={
                        "home": node.id,
                        "data": node.store.snapshot(block),
                        "version": self.version[node.id].get(block, 0),
                    },
                    cost=self.data_reply_cost(),
                    reply_to=msg.reply_to,
                )
                return
            target = e.owner
        else:
            target = self.home.home_or_static(block)
        self.stats.forwarded_requests += 1
        self.m.send(Message(
            node.id, target, "rread_req", msg.size_bytes, block, None,
            msg.handle_cost_us, msg.reply_to, origin=requester,
        ))

    # ==================================================================
    # release / notices
    # ==================================================================
    def _release_flush(self, node) -> Generator:
        """No data moves at a release under SW-LRC; versions bump and
        notices are recorded (the protocol's cheap-release advantage)."""
        notices: List[WriteNotice] = []
        for block in sorted(self.dirty[node.id]):
            v = self.version[node.id].get(block, 0) + 1
            self.version[node.id][block] = v
            notices.append(WriteNotice(block, v, node.id))
            if block in self.owned[node.id]:
                # Write-protect so the next interval's first write
                # faults (locally) and is advertised again.
                node.access.downgrade(block)
        self.dirty[node.id].clear()
        if notices:
            yield self.params.handler_base_us
        return notices

    def _apply_notices(self, node, plan) -> Generator:
        # One notice per block (see LRCBase): keep the freshest writer
        # as the one-hop read hint, and invalidate a held copy unless it
        # already covers the notice ("avoid unnecessary invalidations",
        # Section 2.2).  Only a readable or owned block has anything to
        # lose, so the version test visits the plan's held blocks alone;
        # each block's outcome is independent of the others'.
        nid = node.id
        hint = self.hint[nid]
        get_hint = hint.get
        for block, wn in plan.items():
            cur = get_hint(block)
            if cur is None or wn.version > cur.version:
                hint[block] = wn
        access = node.access
        owned = self.owned[nid]
        held = access.readable_among(plan.keys())
        if owned:
            held |= plan.keys() & owned
        version = self.version[nid]
        invalidate = access.invalidate
        stats = self.stats
        for block in held:
            my_version = version.get(block)
            if my_version is not None and my_version >= plan[block].version:
                continue
            owned.discard(block)
            if invalidate(block):
                stats.invalidations += 1
                version.pop(block, None)
        return
        yield  # pragma: no cover - generator protocol
