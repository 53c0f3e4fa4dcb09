"""Distributed lock service (TreadMarks-style lazy forwarding).

Each lock has a statically assigned *manager* node (``lock_id mod N``).
The manager assigns every request a position (sequence number) in the
global grant order and forwards it to the previous requester; the grant
comes directly from that previous holder once its tenure completes --
a 3-hop acquire when the lock moves between nodes, 2-hop when the
manager grants a never-held lock itself.

Sequence numbers are what make the chain robust: a forward that
arrives at a node tells it *which of its tenures* the new requester
follows (``after_seq``).  If that tenure has already been released the
grant is immediate -- even if the node has meanwhile issued a newer
request of its own (without the tenure check, the successor would be
queued behind the node's new request, inverting the global order and
deadlocking the chain).

Under the LRC protocols the grant message carries the write notices of
every interval the acquirer has not seen (computed from the vector
timestamp the acquirer sent with its request), which is how coherence
information propagates at acquire time (paper Sections 2.2/2.3).

Release is *lazy*: no message leaves the releasing node unless a
successor's forwarded request is already queued locally.

Note on notice precision: a granter that created further intervals
after releasing this lock sends notices up to its *current* timestamp.
That is conservative (extra invalidations are always safe under LRC)
and matches the one-timestamp-per-node design.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Optional, Tuple

from repro.net.message import Message, notice_size
from repro.sim.process import Future


@dataclass
class ManagerEntry:
    """Manager-side state: tail of the distributed request queue."""

    last_requester: Optional[int] = None
    #: sequence number of the most recently enqueued request
    seq: int = 0


@dataclass(slots=True)
class HolderEntry:
    """Holder-side state for one lock on one node."""

    holding: bool = False
    #: sequence number of the tenure currently pending or held
    cur_seq: int = -1
    #: sequence number of the most recently released tenure
    last_completed_seq: int = -1
    #: True between sending our own lock_req and receiving the grant
    pending: bool = False
    #: successors waiting for our current tenure:
    #: (requester, vt, future, their_seq); None until one waits
    waiters: Optional[Deque[Tuple[int, tuple, Future, int]]] = None


class LockService:
    """Implements lock_req / lock_fwd / lock_grant messaging."""

    def __init__(self, machine):
        self.m = machine
        self.engine = machine.engine
        self.params = machine.params
        self.stats = machine.stats
        self._manager: Dict[int, ManagerEntry] = {}
        #: per-node, per-lock holder state
        self._holder: Dict[Tuple[int, int], HolderEntry] = {}

    def handles(self, mtype: str) -> bool:
        return mtype in ("lock_req", "lock_fwd", "lock_grant")

    def manager_of(self, lock_id: int) -> int:
        return lock_id % self.params.n_nodes

    def _hstate(self, node_id: int, lock_id: int) -> HolderEntry:
        key = (node_id, lock_id)
        st = self._holder.get(key)
        if st is None:
            st = HolderEntry()
            self._holder[key] = st
        return st

    def holders(self) -> Dict[int, int]:
        """Lock id -> the node holding it, for every lock held now."""
        return {lock: nid for (nid, lock), st in self._holder.items()
                if st.holding}

    # ------------------------------------------------------------------
    # application side (generators)
    # ------------------------------------------------------------------
    def acquire(self, node, lock_id: int) -> Generator:
        """Acquire a lock; applies piggybacked coherence state."""
        protocol = self.m.protocol
        st = self._hstate(node.id, lock_id)
        if st.holding or st.pending:
            raise RuntimeError(
                f"node {node.id} re-entered lock {lock_id} (not supported)"
            )
        fut = Future(self.engine)
        st.pending = True
        vt = protocol.current_vt(node.id)
        self._send(
            node.id,
            self.manager_of(lock_id),
            "lock_req",
            lock_id,
            payload={"requester": node.id, "vt": vt, "future": fut},
        )
        payload = yield from node.wait(fut, "lock_wait_us")
        st.pending = False
        st.holding = True
        st.cur_seq = payload["seq"]
        node.node_stats.lock_acquires += 1
        # Apply write notices etc. in app context (may flush diffs).
        yield from protocol.apply_sync(node, payload["grant"])
        hooks = self.m.hooks
        if hooks is not None:
            hooks.on_sync_applied(node.id, payload["grant"])
            hooks.on_acquire(node.id, lock_id)

    def release(self, node, lock_id: int) -> Generator:
        """Release: close the interval (LRC), grant the successor."""
        st = self._hstate(node.id, lock_id)
        if not st.holding:
            raise RuntimeError(
                f"node {node.id} releasing lock {lock_id} it does not hold"
            )
        protocol = self.m.protocol
        yield from protocol.release_prepare(node)
        hooks = self.m.hooks
        if hooks is not None:
            # Fires before any successor's grant leaves this node, so a
            # happens-before observer sees release -> grant -> acquire.
            hooks.on_release_done(node.id)
            hooks.on_release(node.id, lock_id)
        st.holding = False
        st.last_completed_seq = st.cur_seq
        while st.waiters and st.waiters[0][3] == st.cur_seq + 1:
            requester, vt, fut, seq = st.waiters.popleft()
            self._grant(node.id, lock_id, requester, vt, fut, seq)

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def on_message(self, node, msg: Message) -> None:
        if msg.mtype == "lock_req":
            self._h_req(node, msg)
        elif msg.mtype == "lock_fwd":
            self._h_fwd(node, msg)
        elif msg.mtype == "lock_grant":
            self._h_grant(node, msg)
        else:  # pragma: no cover
            raise KeyError(msg.mtype)

    def _h_req(self, node, msg: Message) -> None:
        lock_id = msg.block
        p = msg.payload
        entry = self._manager.setdefault(lock_id, ManagerEntry())
        prev = entry.last_requester
        entry.seq += 1
        seq = entry.seq
        entry.last_requester = p["requester"]
        if prev is None:
            # Never held: the manager grants directly (2-hop acquire).
            payload, n_notices = self.m.protocol.grant_payload(
                node.id, p["vt"], p["requester"])
            self._send(
                node.id,
                p["requester"],
                "lock_grant",
                lock_id,
                size=notice_size(n_notices),
                payload={"future": p["future"], "grant": payload, "seq": seq},
                cost=self.params.sync_handler_us,
            )
        else:
            self._send(
                node.id,
                prev,
                "lock_fwd",
                lock_id,
                payload={
                    "requester": p["requester"],
                    "vt": p["vt"],
                    "future": p["future"],
                    "seq": seq,
                },
            )

    def _h_fwd(self, node, msg: Message) -> None:
        lock_id = msg.block
        p = msg.payload
        st = self._hstate(node.id, lock_id)
        after_seq = p["seq"] - 1
        if after_seq <= st.last_completed_seq:
            # The tenure this requester follows is already over: grant
            # immediately (covers our own re-acquire bouncing back, and
            # successors whose forward arrived after our release).
            self._grant(node.id, lock_id, p["requester"], p["vt"], p["future"],
                        p["seq"])
        else:
            if st.waiters is None:
                st.waiters = deque()
            st.waiters.append((p["requester"], p["vt"], p["future"], p["seq"]))

    def _grant(
        self, from_node: int, lock_id: int, requester: int, vt, fut: Future,
        seq: int,
    ) -> None:
        payload, n_notices = self.m.protocol.grant_payload(from_node, vt, requester)
        self._send(
            from_node,
            requester,
            "lock_grant",
            lock_id,
            size=notice_size(n_notices),
            payload={"future": fut, "grant": payload, "seq": seq},
            cost=self.params.sync_handler_us,
        )

    def _h_grant(self, node, msg: Message) -> None:
        msg.payload["future"].resolve(
            {"grant": msg.payload["grant"], "seq": msg.payload["seq"]}
        )

    # ------------------------------------------------------------------
    def _send(self, src, dst, mtype, lock_id, *, size=None, payload=None, cost=None):
        vec_bytes = 4 * self.params.n_nodes if self.m.protocol.uses_notices else 0
        msg = Message(
            src=src,
            dst=dst,
            mtype=mtype,
            size_bytes=(size if size is not None else 24) + vec_bytes,
            block=lock_id,
            payload=payload,
            handle_cost_us=cost if cost is not None else self.params.sync_handler_us,
        )
        self.m.send(msg)
