"""Reliable-delivery transport over an unreliable interconnect.

Every protocol handler in :mod:`repro.core` was written against a
perfect Myrinet: exactly-once delivery and per-link FIFO.  When a
:class:`~repro.net.faultplan.FaultPlan` makes the wire lossy, this
transport restores those guarantees *underneath* the protocol dispatch,
the way the LANai control program would on real hardware:

* **sequence numbers** -- each (src, dst) link stamps outgoing
  messages with a monotonically increasing ``msg.seq``;
* **ack / timeout / retransmit** -- the sender holds every unacked
  message and retransmits on an exponentially backed-off, jittered
  timeout (``FaultSpec.rto_us`` / ``rto_backoff`` / ``rto_jitter_us``);
  a message still unacked after ``max_retransmits`` attempts raises
  :class:`TransportError`, failing the run the way a SimulationError
  does (deterministically, so the failure caches);
* **duplicate suppression** -- the receiver acks every arrival but
  hands each sequence number to the node exactly once, whether the
  duplicate came from the fault plan or from a retransmission racing
  its own ack;
* **resequencing** -- arrivals ahead of the expected sequence number
  are held until the gap fills, so each link delivers in send order.
  This also repairs the latency-model inversion the ordering audit
  found in the raw wire (a small message overtaking a large one on the
  same link -- see the ordering notes in :mod:`repro.net.myrinet`).

Cost model: the transport runs in the network interface, not on the
host CPU.  Sequencing, dedup and resequencing are free; acks are real
wire messages (they occupy the acker's NIC, pay wire latency, appear in
``stats.msg_count['xp_ack']``, and are themselves subject to the fault
plan) but are consumed at wire arrival without host handler cost.
Application-visible messages still pay the normal notification and
handler costs in :meth:`repro.cluster.node.Node.deliver`.

Node-local messages (``src == dst``) bypass the transport entirely,
mirroring how they bypass the wire.

Counters land in ``stats.transport`` (a
:class:`~repro.stats.counters.TransportStats`), which exists only on
chaos runs so fault-free stats stay byte-identical to pre-chaos builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.net.faultplan import FaultPlan
from repro.net.message import Message, control_size
from repro.sim.engine import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.myrinet import Network

#: transport-internal message type; never reaches protocol dispatch
ACK_MTYPE = "xp_ack"


class TransportError(SimulationError):
    """A message exhausted its retransmit budget (the link is as good
    as severed).  Subclasses SimulationError: deterministic for a given
    seed, so the failed record is cacheable like a livelock."""


class SeqRing:
    """A sparse window of items keyed by monotone sequence number.

    The per-link store of out-of-order arrivals.  Held sequence numbers
    all lie inside the retransmit window just above the link's delivery
    cursor, which makes a power-of-two ring addressed by ``seq & mask``
    the natural store: O(1) membership, insert and pop with no hashing
    and no per-entry allocation.  The ring doubles itself on slot
    collision, so pathological windows (deep reordering under heavy
    chaos) stay correct -- they just pay one rehash.
    """

    __slots__ = ("_slots", "_mask", "_count")

    def __init__(self, capacity: int = 16):
        cap = 1
        while cap < capacity:
            cap <<= 1
        self._slots: List[Optional[Tuple[int, Any]]] = [None] * cap
        self._mask = cap - 1
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, seq: int) -> bool:
        slot = self._slots[seq & self._mask]
        return slot is not None and slot[0] == seq

    def put(self, seq: int, item: Any) -> bool:
        """Insert; returns False (and stores nothing) if ``seq`` is
        already present.  Grows on collision with a different live
        sequence number."""
        while True:
            i = seq & self._mask
            slot = self._slots[i]
            if slot is None:
                self._slots[i] = (seq, item)
                self._count += 1
                return True
            if slot[0] == seq:
                return False
            self._grow()

    def pop(self, seq: int) -> Any:
        """Remove and return the item at ``seq``; KeyError if absent."""
        i = seq & self._mask
        slot = self._slots[i]
        if slot is None or slot[0] != seq:
            raise KeyError(seq)
        self._slots[i] = None
        self._count -= 1
        return slot[1]

    def items(self) -> Iterator[Tuple[int, Any]]:
        """Live (seq, item) pairs in ascending sequence order."""
        return iter(sorted(s for s in self._slots if s is not None))

    def _grow(self) -> None:
        live = [s for s in self._slots if s is not None]
        cap = len(self._slots)
        # Double until every live sequence number lands in its own
        # slot (two seqs collide iff they differ by a multiple of cap,
        # so a big enough power of two always separates a finite set).
        while True:
            cap <<= 1
            mask = cap - 1
            if len({seq & mask for seq, _ in live}) == len(live):
                break
        self._slots = [None] * cap
        self._mask = mask
        for slot in live:
            self._slots[slot[0] & mask] = slot

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SeqRing {self._count}/{len(self._slots)}>"


class ReliableTransport:
    """Per-machine reliable-delivery layer (one instance per Machine).

    Sits between the protocol/sync services and the raw
    :class:`~repro.net.myrinet.Network`: ``Machine.send`` routes
    through :meth:`send`, and the network's delivery callback is
    :meth:`on_wire` instead of the machine's node dispatch.
    """

    def __init__(self, machine, network: "Network", plan: FaultPlan):
        self.m = machine
        self.net = network
        self.engine = machine.engine
        self.plan = plan
        self.spec = plan.spec
        #: TransportStats; Machine attaches it before building us
        self.tstats = machine.stats.transport
        n = machine.params.n_nodes
        #: next sequence number to stamp, per (src, dst) link
        self._next_seq: List[List[int]] = [[0] * n for _ in range(n)]
        #: next sequence number to deliver, per (src, dst) link
        self._expect: List[List[int]] = [[0] * n for _ in range(n)]
        #: out-of-order arrivals held for resequencing, per link
        self._held: Dict[Tuple[int, int], SeqRing] = {}
        #: (src, dst, seq) -> retransmit timer handle (cancellable)
        self._timers: Dict[Tuple[int, int, int], object] = {}

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Stamp, remember, inject; arms the first retransmit timer."""
        if msg.src == msg.dst:
            self.net.send(msg)
            return
        seq = self._next_seq[msg.src][msg.dst]
        self._next_seq[msg.src][msg.dst] = seq + 1
        msg.seq = seq
        self.tstats.data_sent += 1
        self.net.send(msg)
        self._arm(msg, self.spec.rto_us, attempts=0)

    def _arm(self, msg: Message, rto_us: float, attempts: int) -> None:
        key = (msg.src, msg.dst, msg.seq)
        self._timers[key] = self.engine.schedule(
            rto_us, self._on_timeout, msg, rto_us, attempts
        )

    def _on_timeout(self, msg: Message, rto_us: float, attempts: int) -> None:
        key = (msg.src, msg.dst, msg.seq)
        if key not in self._timers:
            return  # acked in the same instant; timer raced the ack
        self.tstats.timeouts += 1
        if attempts + 1 > self.spec.max_retransmits:
            raise TransportError(
                f"message {msg.mtype} {msg.src}->{msg.dst} seq={msg.seq} "
                f"unacked after {attempts} retransmits "
                f"(rto reached {rto_us:.0f}us)"
            )
        self.tstats.retransmits += 1
        self.net.send(msg)
        self._arm(
            msg,
            rto_us * self.spec.rto_backoff + self.plan.rto_jitter_us(),
            attempts + 1,
        )

    # ------------------------------------------------------------------
    # receiver side (wire-arrival callback installed on the Network)
    # ------------------------------------------------------------------
    def on_wire(self, msg: Message) -> None:
        if msg.mtype == ACK_MTYPE:
            timer = self._timers.pop(msg.payload, None)
            if timer is not None:
                timer.cancel()
            return
        if msg.src == msg.dst:
            # Local channel: never sequenced, never acked.
            self.m.deliver_to_node(msg)
            return
        src, dst, seq = msg.src, msg.dst, msg.seq
        self._ack(msg)
        expect = self._expect[src][dst]
        if seq < expect:
            self.tstats.dup_suppressed += 1
            return
        link = (src, dst)
        held = self._held.get(link)
        if seq > expect:
            if held is None:
                held = self._held[link] = SeqRing()
            if held.put(seq, msg):
                self.tstats.reorder_buffered += 1
            else:
                self.tstats.dup_suppressed += 1
            return
        # In order: deliver, then drain anything the gap was holding.
        deliver = self.m.deliver_to_node
        deliver(msg)
        expect += 1
        if held:
            while expect in held:
                deliver(held.pop(expect))
                expect += 1
        self._expect[src][dst] = expect

    def _ack(self, msg: Message) -> None:
        """Ack every sequenced arrival (duplicates included: the sender
        may be retransmitting precisely because our first ack died)."""
        self.tstats.acks_sent += 1
        self.net.send(
            Message(
                src=msg.dst,
                dst=msg.src,
                mtype=ACK_MTYPE,
                size_bytes=control_size(),
                payload=(msg.src, msg.dst, msg.seq),
                handle_cost_us=0.0,
            )
        )

    # ------------------------------------------------------------------
    # Network facade bits some tests/diagnostics rely on
    # ------------------------------------------------------------------
    def nic_free_at(self, node: int) -> float:
        return self.net.nic_free_at(node)

    @property
    def in_flight(self) -> int:
        """Unacked sequenced messages (diagnostics/tests)."""
        return len(self._timers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ReliableTransport unacked={self.in_flight}>"
