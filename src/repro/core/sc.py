"""Sequential consistency protocol (paper Section 2.1).

A Stache-style home-based directory protocol:

* each coherence block has either a single writer (the *owner*, holding
  an exclusive RW copy) or any number of readers (RO copies), never
  both;
* on a miss, a request is sent to the block's home;
* the home serializes transactions per block (``busy`` + pending
  queue), recalls exclusive copies, invalidates read copies and
  collects acknowledgements before granting;
* invalidation at a node immediately invalidates RO copies and writes
  back + invalidates RW copies (modulo the polling/interrupt
  notification delay -- which is exactly the Section 5.4 effect).

The home's own copy is the master whenever no remote owner exists; the
home participates in sharing through the same tag table as everyone
else, using node-local messages (no wire cost) for its own misses.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Generator, Optional, Set

from repro.core.protocol import CoherenceProtocol, register
from repro.memory.access_control import RO, RW
from repro.net.message import HEADER_BYTES, Message
from repro.sim.process import CountdownLatch, Future

#: widest machine whose write fan-out visits sharers in set order; above
#: it the fan-out visits them in ascending node order and the modeled
#: copyset pays a header per occupied 64-node group.  Every paper-scale
#: (16-node) directory thus keeps the seed's iteration and message
#: order and its stats-sha (the bit-identity contract), and the wide
#: machines keep the order and bytes they were pinned with.
PLAIN_COPYSET_MAX = 64

#: modeled bytes per registered sharer / per occupied 64-node group
COPYSET_ENTRY_BYTES = 4
_GROUP_HEADER_BYTES = 8


def copyset_bytes(sharers: Set[int], n_nodes: int) -> int:
    """Modeled storage bytes of a block's copyset on an ``n_nodes``
    machine: scales with registered sharers, never with machine width."""
    wide = n_nodes > PLAIN_COPYSET_MAX
    groups = len({s >> 6 for s in sharers}) if wide else 0  # 64-node groups
    return COPYSET_ENTRY_BYTES * len(sharers) + _GROUP_HEADER_BYTES * groups


@dataclass(slots=True)
class DirEntry:
    """Home-side directory state for one block.

    ``pending`` stays None until a request first queues behind a busy
    transaction."""

    sharers: Set[int] = field(default_factory=set)
    owner: Optional[int] = None
    busy: bool = False
    pending: Optional[Deque[Message]] = None


@register
class SCProtocol(CoherenceProtocol):
    name = "sc"
    uses_notices = False
    touch_on_load = True  # a touch is a load or a store for SC

    def __init__(self, machine):
        super().__init__(machine)
        #: home-side directory, keyed by block (only the home node's
        #: handlers touch an entry, so a single dict is safe)
        self.dir: Dict[int, DirEntry] = {}
        #: (node, block) faults currently awaiting their data reply
        self._inflight: Set[tuple] = set()
        #: in-flight faults that an invalidation raced past
        self._poisoned: Set[tuple] = set()
        #: recalls that raced a pending grant: (node, block) -> [msgs]
        self._deferred_recalls: Dict[tuple, list] = {}
        #: (node, block) pairs between a poisoned/deferred install and
        #: its zero-delay _apply_deferred tick (the one window where a
        #: freshly installed tag is already scheduled to drop; external
        #: state checkers must treat these blocks as in transaction)
        self._settling: Set[tuple] = set()
        #: (node, block) pairs where the node knows it holds authoritative
        #: ownership (set at write-grant install, cleared when a recall
        #: is served) -- lets a recall be served immediately even while
        #: an unrelated fault for the same block is in flight, which
        #: breaks the home-waits-for-us / we-wait-for-home cycle
        self._owned: Set[tuple] = set()

    def _register_handlers(self) -> None:
        self._register_common()
        self._handlers.update(
            {
                "read_req": self._h_read_req,
                "write_req": self._h_write_req,
                "read_reply": self._h_data_reply,
                "write_reply": self._h_data_reply,
                "upgrade_reply": self._h_generic_ack,
                "recall_ro": self._h_recall_ro,
                "recall_inv": self._h_recall_inv,
                "writeback": self._h_writeback,
                "inval": self._h_inval,
                "inval_ack": self._h_inval_ack,
            }
        )

    def on_place(self, block: int, home_id: int, prev: Optional[int]) -> None:
        """Init-phase touches leave the home owning its placed blocks
        exclusively: home-memory writes never fault (Stache semantics,
        and the reason LU's Table 3 shows zero write faults).

        Re-placement (a block spanning two regions placed to different
        nodes -- e.g. an unaligned partition boundary) revokes the
        previous home's access."""
        if prev is not None:
            self.m.nodes[prev].access.invalidate(block)
            self._owned.discard((prev, block))
        e = self._entry(block)
        e.owner = home_id
        e.sharers.clear()
        self._owned.add((home_id, block))
        self.m.nodes[home_id].access.set_tag(block, RW)


    def _entry(self, block: int) -> DirEntry:
        e = self.dir.get(block)
        if e is None:
            e = DirEntry()
            self.dir[block] = e
        return e

    # ==================================================================
    # application-side fault handling
    # ==================================================================
    def read_fault(self, node, block: int) -> Generator:
        yield from self.maybe_claim_first_touch(node.id, block, store=False)
        if self.home.home_or_static(block) == node.id:
            # Home-memory accesses are classified as local re-opens --
            # the paper's fault tables count faults taken on *cached*
            # remote data, which is why LU and Ocean-Original report
            # zero write faults (their writes are all home-local) even
            # though the home's tag still toggles and the directory
            # still invalidates/recalls remote copies (costs modeled).
            self.stats.record_local_reopen(node.id)
            yield from self._local_home_fault(node, block, write=False)
            return
        self.stats.record_read_fault(node.id)
        fut = Future(self.engine)
        key = (node.id, block)
        self._poisoned.discard(key)
        self._inflight.add(key)
        self.send(
            node.id,
            self.route_home(node.id, block),
            "read_req",
            block=block,
            reply_to=fut,
        )
        reply = yield from node.wait(fut, "fault_wait_us")
        self._install_reply(node, block, reply, RO)

    def write_fault(self, node, block: int) -> Generator:
        yield from self.maybe_claim_first_touch(node.id, block, store=True)
        if self.home.home_or_static(block) == node.id:
            self.stats.record_local_reopen(node.id)
            yield from self._local_home_fault(node, block, write=True)
            return
        self.stats.record_write_fault(node.id)
        fut = Future(self.engine)
        key = (node.id, block)
        self._poisoned.discard(key)
        self._inflight.add(key)
        self.send(
            node.id,
            self.route_home(node.id, block),
            "write_req",
            block=block,
            reply_to=fut,
        )
        reply = yield from node.wait(fut, "fault_wait_us")
        self._install_reply(node, block, reply, RW)

    def _install_reply(self, node, block: int, reply: dict, tag: int) -> None:
        if tag == RW:
            self._owned.add((node.id, block))
        self.home.learn(node.id, block, reply["home"])
        data = reply.get("data")
        if data is not None:
            node.store.install(block, data)
        key = (node.id, block)
        self._inflight.discard(key)
        node.access.set_tag(block, tag)
        # Forward-progress rule: the access that faulted always
        # completes under this grant.  The runtime copies its bytes for
        # this block synchronously in the same engine callback as this
        # install, so effects of racing invalidations/recalls are
        # deferred by one zero-delay tick -- by then the access is done
        # and dropping the tag merely forces the *next* access to
        # re-fault (no data is lost: tags gate access, the local store
        # keeps the bytes, and the home still records us as owner).
        poisoned = key in self._poisoned
        if poisoned:
            self._poisoned.discard(key)
        deferred = self._deferred_recalls.pop(key, None)
        if poisoned or deferred:
            self._settling.add(key)
            self.engine.post(
                0.0, self._apply_deferred, node, block, poisoned, deferred or []
            )

    def _apply_deferred(self, node, block: int, poisoned: bool, recalls) -> None:
        self._settling.discard((node.id, block))
        if poisoned and not recalls:
            # A stale invalidation raced the grant: honor it late.  The
            # copy we installed was valid at the home's serialization
            # point of this access, so the access that just completed
            # with it is linearizable.
            if node.access.invalidate(block):
                self.stats.invalidations += 1
        for recall in recalls:
            if recall.mtype == "recall_ro":
                self._h_recall_ro(node, recall)
            else:
                self._h_recall_inv(node, recall)

    def _local_home_fault(self, node, block: int, write: bool) -> Generator:
        """The home node itself faulted: run the directory transaction
        through the node-local message path (cheap, no wire)."""
        fut = Future(self.engine)
        key = (node.id, block)
        self._poisoned.discard(key)
        self._inflight.add(key)
        mtype = "write_req" if write else "read_req"
        self.send(node.id, node.id, mtype, block=block, reply_to=fut)
        reply = yield from node.wait(fut, "fault_wait_us")
        self._install_reply(node, block, reply, RW if write else RO)

    # ==================================================================
    # home-side directory transactions
    # ==================================================================
    def _h_read_req(self, node, msg: Message) -> None:
        if self.forward_if_not_home(node, msg):
            return
        e = self._entry(msg.block)
        if e.busy:
            if e.pending is None:
                e.pending = deque()
            e.pending.append(msg)
            return
        self._start_read(node, msg, e)

    def _start_read(self, node, msg: Message, e: DirEntry) -> None:
        requester, _ = self.requester_of(msg)
        block = msg.block
        if e.owner == requester:
            # The owner re-faulted (its tag was dropped by a stale
            # invalidation that raced an earlier reply).  Its local copy
            # is the authoritative one -- regrant without data.
            if requester == node.id:
                msg.reply_to.resolve({"home": node.id, "data": None})
            else:
                self.send(node.id, requester, "upgrade_reply", block=block,
                          payload={"home": node.id, "data": None},
                          reply_to=msg.reply_to)
            self._complete_transaction(node, e)
            return
        if e.owner is not None:
            # Recall the exclusive copy: owner writes back and keeps a
            # read-only copy (downgrade), then we serve from home memory.
            e.busy = True
            self.send(
                node.id,
                e.owner,
                "recall_ro",
                block=block,
                payload={"pending": msg},
                cost=self.params.handler_base_us + self.params.tag_change_us,
            )
            return
        self._finish_read(node, msg, e)

    def _finish_read(self, node, msg: Message, e: DirEntry) -> None:
        requester, _ = self.requester_of(msg)
        block = msg.block
        e.sharers.add(requester)
        if requester == node.id:
            # Home's own read: master copy is already local.
            msg.reply_to.resolve({"home": node.id, "data": None})
        else:
            self.send(
                node.id,
                requester,
                "read_reply",
                size=HEADER_BYTES + self.params.granularity,
                block=block,
                payload={"home": node.id, "data": node.store.snapshot(block)},
                cost=self.data_reply_cost(),
                reply_to=msg.reply_to,
            )
        self._complete_transaction(node, e)

    def _h_write_req(self, node, msg: Message) -> None:
        if self.forward_if_not_home(node, msg):
            return
        e = self._entry(msg.block)
        if e.busy:
            if e.pending is None:
                e.pending = deque()
            e.pending.append(msg)
            return
        self._start_write(node, msg, e)

    def _start_write(self, node, msg: Message, e: DirEntry) -> None:
        requester, _ = self.requester_of(msg)
        block = msg.block
        if e.owner is not None and e.owner != requester:
            e.busy = True
            self.send(
                node.id,
                e.owner,
                "recall_inv",
                block=block,
                payload={"pending": msg},
                cost=self.params.handler_base_us + self.params.tag_change_us,
            )
            return
        # Invalidate every reader other than the requester (the home's
        # own copy is represented by its tag like any sharer's).
        sharers = e.sharers
        if self.params.n_nodes > PLAIN_COPYSET_MAX:
            sharers = sorted(sharers)
        targets = [s for s in sharers if s != requester]
        if targets:
            e.busy = True
            latch = CountdownLatch(self.engine, len(targets))
            for t in targets:
                self.send(
                    node.id,
                    t,
                    "inval",
                    block=block,
                    payload={"latch": latch},
                    cost=self.params.handler_base_us + self.params.tag_change_us,
                )
            latch.add_callback(lambda _: self._grant_write(node, msg, e))
            return
        self._grant_write(node, msg, e)

    def _grant_write(self, node, msg: Message, e: DirEntry) -> None:
        requester, _payload = self.requester_of(msg)
        block = msg.block
        # Only home-side state decides whether the requester's copy is
        # current: a stale "I have a read-only copy" hint from the
        # requester could have been invalidated while the request was
        # in flight.
        had_copy = requester in e.sharers or e.owner == requester
        e.sharers.clear()
        e.owner = requester
        if requester == node.id:
            # Home upgrades its own copy.
            msg.reply_to.resolve({"home": node.id, "data": None})
        elif had_copy:
            # Upgrade: requester already holds current data.
            self.send(
                node.id,
                requester,
                "upgrade_reply",
                block=block,
                payload={"home": node.id, "data": None},
                reply_to=msg.reply_to,
            )
        else:
            self.send(
                node.id,
                requester,
                "write_reply",
                size=HEADER_BYTES + self.params.granularity,
                block=block,
                payload={"home": node.id, "data": node.store.snapshot(block)},
                cost=self.data_reply_cost(),
                reply_to=msg.reply_to,
            )
        # Home memory is stale while an owner exists; the home's own
        # access tag must drop unless the home is the new owner.
        if requester != node.id:
            if node.access.invalidate(block):
                self.stats.invalidations += 1
        self._complete_transaction(node, e)

    def _complete_transaction(self, node, e: DirEntry) -> None:
        e.busy = False
        if e.pending:
            nxt = e.pending.popleft()
            if nxt.mtype == "read_req":
                self._start_read(node, nxt, e)
            else:
                self._start_write(node, nxt, e)

    # ==================================================================
    # remote-side coherence actions
    # ==================================================================
    def _recall_must_defer(self, node, block: int) -> bool:
        """Defer only when the recalled ownership is still in flight to
        us (we are not yet owner).  If we already own the block, our
        store is authoritative regardless of any unrelated in-flight
        fault, and deferring could deadlock (our fault may be queued at
        the home behind the very transaction awaiting this recall)."""
        key = (node.id, block)
        if key in self._owned:
            # Serve now; whatever fault is in flight must not leave a
            # stale tag behind once it installs.
            if key in self._inflight:
                self._poisoned.add(key)
            return False
        return key in self._inflight

    def _h_recall_ro(self, node, msg: Message) -> None:
        """Owner downgrades RW -> RO and writes the data back home."""
        block = msg.block
        if self._recall_must_defer(node, block):
            # The recall overtook the grant that made us owner; act on
            # it right after the grant installs (see _install_reply).
            self._deferred_recalls.setdefault((node.id, block), []).append(msg)
            return
        self._owned.discard((node.id, block))
        node.access.downgrade(block)
        self.stats.writebacks += 1
        self.send(
            node.id,
            msg.src,
            "writeback",
            size=HEADER_BYTES + self.params.granularity,
            block=block,
            payload={
                "data": node.store.snapshot(block),
                "pending": msg.payload["pending"],
                "keep_sharer": True,
                "from": node.id,
            },
            cost=self.data_reply_cost(),
        )

    def _h_recall_inv(self, node, msg: Message) -> None:
        """Owner writes back and invalidates (write request elsewhere)."""
        block = msg.block
        if self._recall_must_defer(node, block):
            self._deferred_recalls.setdefault((node.id, block), []).append(msg)
            return
        self._owned.discard((node.id, block))
        if node.access.invalidate(block):
            self.stats.invalidations += 1
        self.stats.writebacks += 1
        self.send(
            node.id,
            msg.src,
            "writeback",
            size=HEADER_BYTES + self.params.granularity,
            block=block,
            payload={
                "data": node.store.snapshot(block),
                "pending": msg.payload["pending"],
                "keep_sharer": False,
                "from": node.id,
            },
            cost=self.data_reply_cost(),
        )

    def _h_writeback(self, node, msg: Message) -> None:
        """Home absorbs a recalled copy, then continues the transaction."""
        e = self._entry(msg.block)
        payload = msg.payload
        node.store.install(msg.block, payload["data"])
        old_owner = payload["from"]
        e.owner = None
        if payload["keep_sharer"]:
            e.sharers.add(old_owner)
        pending: Message = payload["pending"]
        e.busy = False
        if pending.mtype == "read_req":
            self._start_read(node, pending, e)
        else:
            self._start_write(node, pending, e)

    def _h_inval(self, node, msg: Message) -> None:
        """A sharer drops its read-only copy and acknowledges.

        RW copies never see 'inval' (owners get recalls), so no data
        moves here.
        """
        if node.access.invalidate(msg.block):
            self.stats.invalidations += 1
        key = (node.id, msg.block)
        if key in self._inflight:
            self._poisoned.add(key)
        self.send(
            node.id,
            msg.src,
            "inval_ack",
            block=msg.block,
            payload={"latch": msg.payload["latch"]},
        )

    def _h_inval_ack(self, node, msg: Message) -> None:
        msg.payload["latch"].hit()

    def _h_data_reply(self, node, msg: Message) -> None:
        msg.reply_to.resolve(msg.payload)
