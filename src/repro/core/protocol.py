"""Coherence-protocol base class: fault entry points, home routing with
first-touch claims and stale-hint forwarding, the synchronization
hooks that let the lock/barrier services piggyback protocol actions,
and :class:`HomeEntry`, the per-block transaction queue every
serializing home shares.

Contract
--------
The DSM runtime calls, from the application process (generators):

* ``read_fault(node, block)`` / ``write_fault(node, block)`` when an
  access-control check misses.  On return the block's tag permits the
  access and the node's local copy holds correct data.
* ``release_prepare(node)`` before a lock release / barrier arrival
  (HLRC flushes diffs here; LRC protocols close the current interval).
* ``apply_sync(node, payload)`` after a lock grant / barrier release
  delivered ``payload`` (LRC protocols apply write notices, possibly
  flushing dirty blocks first).

The machine calls ``on_message(node, msg)`` from the handler context
for every protocol message type the subclass registered.

Sub-classes: :class:`~repro.core.sc.SCProtocol` (and its delayed
variant :class:`~repro.core.delayed.DelayedSCProtocol`),
:class:`~repro.core.swlrc.SWLRCProtocol`,
:class:`~repro.core.hlrc.HLRCProtocol`,
:class:`~repro.core.erc.ERCProtocol` and
:class:`~repro.core.tardis.TardisProtocol`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Generator, Optional, Tuple

from repro.core import registry as _registry
from repro.memory.access_control import RO
from repro.net.message import CONTROL_BYTES, HEADER_BYTES, Message
from repro.sim.process import Future


@dataclass(slots=True)
class HomeEntry:
    """A home's per-block transaction state: ``busy`` while one is
    open, and the requests that arrived meanwhile, which start in
    arrival order as transactions close.

    ``pending`` stays None until a request first queues: almost no
    block ever sees two transactions at once."""

    busy: bool = False
    pending: Optional[Deque[Message]] = None

    def park(self, msg: Message) -> bool:
        """Queue ``msg`` behind the open transaction; False (nothing
        queued) when none is open and ``msg`` may start now."""
        if not self.busy:
            return False
        if self.pending is None:
            self.pending = deque()
        self.pending.append(msg)
        return True

    def close(self) -> Optional[Message]:
        """Close the open transaction; the queued request to start next,
        or None."""
        self.busy = False
        if self.pending:
            return self.pending.popleft()
        return None


class CoherenceProtocol:
    """Shared plumbing of every registered protocol."""

    name = "base"
    #: consistency contract for the model checker's litmus catalog:
    #: "sc" (every outcome sequentially consistent) or "lrc" (writes
    #: propagate at synchronization).  Registered alongside the class.
    memory_model = "sc"
    #: True for the LRC protocols: locks/barriers carry write notices
    uses_notices = False
    #: does a load claim an untouched block's home (SC: yes; LRC: no --
    #: the paper says a "touch" is a store for HLRC)
    touch_on_load = False

    def __init__(self, machine):
        self.m = machine
        self.engine = machine.engine
        self.params = machine.params
        self.stats = machine.stats
        self.home = machine.home
        #: the default handler cost of :meth:`send`, read once per
        #: machine (params do not change after a build)
        self._handler_base_us = machine.params.handler_base_us
        self._handlers: Dict[str, Callable] = {}
        self._register_handlers()

    # ------------------------------------------------------------------
    # subclass registration
    # ------------------------------------------------------------------
    def _register_handlers(self) -> None:
        """Populate self._handlers: mtype -> bound method."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # messaging helpers
    # ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        mtype: str,
        *,
        size: int = HEADER_BYTES + CONTROL_BYTES,
        block: int = -1,
        payload: Any = None,
        cost: Optional[float] = None,
        reply_to: Optional[Future] = None,
    ) -> None:
        self.m.send(Message(
            src, dst, mtype, size, block, payload,
            self._handler_base_us if cost is None else cost, reply_to,
        ))

    def data_reply_cost(self) -> float:
        """Handler cost of receiving a whole-block data message."""
        p = self.params
        return p.handler_base_us + p.copy_per_byte_us * p.granularity

    # ------------------------------------------------------------------
    # home routing
    # ------------------------------------------------------------------
    def _is_home(self, node_id: int, block: int) -> bool:
        return self.home.home_or_static(block) == node_id

    def route_home(self, node_id: int, block: int) -> int:
        """Where this node should send a home-directed request."""
        return self.home.route_target(node_id, block)

    def forward_if_not_home(self, node, msg: Message) -> bool:
        """Receiver-side: if we are not the block's home, forward the
        request to the real home (one extra hop) and return True.

        Used by home-directed request handlers; the eventual reply
        teaches the requester the real home.
        """
        actual = self.home.home_or_static(msg.block)
        if actual == node.id:
            return False
        self.stats.forwarded_requests += 1
        # The forward physically leaves *this* node; the original
        # requester travels as its origin so the eventual reply goes
        # straight back to it (and teaches it the real home).
        self.m.send(Message(
            node.id, actual, msg.mtype, msg.size_bytes, msg.block, msg.payload,
            msg.handle_cost_us, msg.reply_to, origin=self.requester_of(msg)[0],
        ))
        return True

    @staticmethod
    def requester_of(msg: Message) -> Tuple[int, Any]:
        """Unwrap a possibly-forwarded request: (requester, payload)."""
        origin = msg.origin
        return (msg.src if origin < 0 else origin), msg.payload

    def maybe_claim_first_touch(self, node_id: int, block: int, store: bool) -> Generator:
        """First-touch home migration for unclaimed blocks (Section 2).

        A generator run in the app context: claiming a block whose
        static home is remote costs one control round trip to update
        the distributed home table.
        """
        if self.home.is_claimed(block):
            return
        if not store and not self.touch_on_load:
            # Loads do not claim under the LRC protocols; the static
            # home will claim the block for itself when the read
            # request arrives there.
            return
        self.home.claim_first_touch(block, node_id)
        self.home.learn(node_id, block, node_id)
        static = self.home.static_home(block)
        if static != node_id:
            # Tell the static home where the block now lives.
            fut = Future(self.engine)
            self.send(
                node_id,
                static,
                "home_claim",
                block=block,
                payload={"new_home": node_id},
                reply_to=fut,
            )
            node = self.m.nodes[node_id]
            yield from node.wait(fut, "fault_wait_us")

    def _h_home_claim(self, node, msg: Message) -> None:
        requester, payload = self.requester_of(msg)
        # The static home records the migration in its local cache so
        # it can forward later requests.
        self.home.learn(node.id, msg.block, payload["new_home"])
        if msg.reply_to is not None:
            self.send(node.id, requester, "home_claim_ack", block=msg.block,
                      reply_to=msg.reply_to)

    @staticmethod
    def _h_generic_ack(node, msg: Message) -> None:
        if msg.reply_to is not None:
            msg.reply_to.resolve(msg.payload)

    def _register_common(self) -> None:
        self._handlers["home_claim"] = self._h_home_claim
        self._handlers["home_claim_ack"] = self._h_generic_ack

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------
    def on_message(self, node, msg: Message) -> None:
        handler = self._handlers.get(msg.mtype)
        if handler is None:
            raise KeyError(f"{self.name}: no handler for message type {msg.mtype!r}")
        handler(node, msg)
        hooks = self.m.hooks
        if hooks is not None:
            hooks.on_protocol_message(node.id, msg)

    def on_place(self, block: int, home_id: int, prev: Optional[int]) -> None:
        """Setup-time hook: a block was declaratively placed at a home
        (models the init-phase first touch).  ``prev`` is the block's
        previous placed home when it differs from ``home_id`` (else
        None), the only node whose copy is revoked (see
        :meth:`Machine.place`).  The home's copy is readable but
        write-protected, so its own writes fault (locally) and are seen;
        ownership and leases are only taken at run time."""
        if prev is not None:
            self.m.nodes[prev].access.invalidate(block)
        self.m.nodes[home_id].access.set_tag(block, RO)

    # ------------------------------------------------------------------
    # fault entry points (app context)
    # ------------------------------------------------------------------
    def read_fault(self, node, block: int) -> Generator:
        raise NotImplementedError

    def write_fault(self, node, block: int) -> Generator:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # synchronization hooks (SC: all trivial)
    # ------------------------------------------------------------------
    def release_prepare(self, node) -> Generator:
        """Run in app context immediately before a release is visible."""
        return
        yield  # pragma: no cover - makes this a generator

    def grant_payload(
        self, granter_id: int, acq_vt, acquirer: int
    ) -> Tuple[Any, int]:
        """Payload attached to a lock grant to ``acquirer`` (whose
        timestamp at its request was ``acq_vt``) and its notice count."""
        return None, 0

    def barrier_payloads(self, vts: Dict[int, Any]) -> Dict[int, Tuple[Any, int]]:
        """Per-node tailored release payloads for a barrier.

        ``vts`` maps node -> the timestamp it sent at arrival
        (:meth:`arrival_vt`; None under SC).  Returns node ->
        (payload, notice_count).
        """
        return {n: (None, 0) for n in vts}

    def barrier_released(self, vts: Dict[int, Any]) -> None:
        """Called once a barrier's release payloads are built, before
        any is applied: state that no node can need again may go."""

    def current_vt(self, node_id: int):
        """The node's vector timestamp (None for SC)."""
        return None

    def arrival_vt(self, node_id: int):
        """The timestamp a barrier arrival carries.  Unlike a lock
        request's, it may be the node's live clock: the node is blocked
        until the release, so the clock cannot change under the
        manager."""
        return self.current_vt(node_id)

    def apply_sync(self, node, payload) -> Generator:
        """Run in app context after a grant/barrier-release delivered
        ``payload``: apply write notices (LRC), flush conflicting dirty
        blocks, merge timestamps."""
        return
        yield  # pragma: no cover


def register(cls) -> type:
    """Class decorator: register ``cls`` under its ``name`` attribute,
    carrying its declared memory model and notice usage into the
    registry metadata."""
    return _registry.register_protocol(
        cls.name, cls,
        memory_model=cls.memory_model,
        uses_notices=cls.uses_notices,
    )


def make_protocol(name: str, machine) -> CoherenceProtocol:
    return _registry.get_protocol(name)(machine)
