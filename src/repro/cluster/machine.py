"""Machine: wires engine, nodes, network, memory system, protocol and
synchronization services into one simulated cluster.
"""

from __future__ import annotations

from typing import List, Optional

from repro.cluster.config import MachineParams
from repro.cluster.node import Node
from repro.memory.address_space import AddressSpace, Segment
from repro.memory.blocks import BlockSpace
from repro.memory.home import HomeTable
from repro.memory.storage import as_payload
from repro.net.faultplan import FaultPlan, FaultSpec
from repro.net.message import Message
from repro.net.myrinet import Network
from repro.net.reliable import ReliableTransport
from repro.sim.engine import Engine
from repro.stats.counters import Stats


class Machine:
    """One configured cluster ready to run a program.

    Construction order matters only in that nodes receive a dispatch
    callback bound to this machine; the protocol and sync services are
    created last and resolved through ``self`` at dispatch time.

    ``faults`` (a :class:`~repro.net.faultplan.FaultSpec`) makes the
    interconnect unreliable and slides the reliable-delivery transport
    (:mod:`repro.net.reliable`) between the protocol/sync services and
    the wire.  ``faults=None`` (the default) is the trusted legacy
    wire: no transport, no sequence numbers, bit-identical behavior to
    pre-chaos builds.  Either way, all outbound traffic goes through
    :meth:`send` and every arrival at a node through :meth:`_deliver`:
    the seams the transport slides into and the ``on_send`` /
    ``on_deliver`` hooks observe.
    """

    def __init__(
        self,
        params: MachineParams,
        protocol: str = "hlrc",
        poll_dilation: float = 0.0,
        max_events: Optional[int] = None,
        faults: Optional[FaultSpec] = None,
    ):
        params.validate()
        self.params = params
        self.engine = Engine() if max_events is None else Engine(max_events=max_events)
        self.stats = Stats(params.n_nodes)
        self.blockspace = BlockSpace(params.granularity)
        self.space = AddressSpace()
        self.home = HomeTable(params.n_nodes, params.granularity)
        self.poll_dilation = poll_dilation
        #: instrumentation hooks (None = uninstrumented hot path); see
        #: repro.hooks.Hooks for the observation interface
        self.hooks = None
        self.nodes: List[Node] = [
            Node(i, self.engine, params, self.stats, self._dispatch, poll_dilation)
            for i in range(params.n_nodes)
        ]
        if faults is None:
            self.fault_plan = None
            self.transport = None
            self.network = Network(self.engine, params, self.stats, self._deliver)
            #: where :meth:`send` hands a message: the wire, or the
            #: reliable transport under a fault plan
            self._send = self.network.send
        else:
            self.fault_plan = FaultPlan(faults, params.n_nodes)
            self.stats.enable_transport()
            self.network = Network(
                self.engine, params, self.stats, self._deliver, self.fault_plan
            )
            self.transport = ReliableTransport(self, self.network, self.fault_plan)
            # Wire arrivals detour through the transport (ack/dedup/
            # resequence) before reaching the nodes.
            self.network.set_deliver(self.transport.on_wire)
            self._send = self.transport.send
        # Imported lazily to avoid a cycle (protocols import memory/net).
        from repro.core import make_protocol
        from repro.sync import BarrierService, LockService

        self.protocol = make_protocol(protocol, self)
        self.locks = LockService(self)
        self.barriers = BarrierService(self)
        #: message-type -> bound service handler, filled lazily
        self._route: dict = {}

    def add_hooks(self, *hooks) -> None:
        """Install instrumentation hooks (composes with existing ones)."""
        from repro.hooks import add_hooks

        add_hooks(self, *hooks)

    # ------------------------------------------------------------------
    # message plumbing
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """The seam every node's outbound message goes through."""
        hooks = self.hooks
        if hooks is not None:
            hooks.on_send(msg)
        self._send(msg)

    def _deliver(self, msg: Message) -> None:
        hooks = self.hooks
        if hooks is not None:
            hooks.on_deliver(msg)
        self.nodes[msg.dst].deliver(msg)

    #: public alias used by the reliable transport once it has decided
    #: a wire arrival really is the next in-order message for the node
    deliver_to_node = _deliver

    def _dispatch(self, node: Node, msg: Message) -> None:
        t = msg.mtype
        handler = self._route.get(t)
        if handler is None:
            # Resolve the service once per message type; the prefix
            # test runs once instead of twice per delivered message.
            if t.startswith("lock_"):
                handler = self.locks.on_message
            elif t.startswith("barrier_"):
                handler = self.barriers.on_message
            else:
                handler = self.protocol.on_message
            self._route[t] = handler
        handler(node, msg)

    # ------------------------------------------------------------------
    # setup-time helpers (pre-parallel phase, zero simulated cost)
    # ------------------------------------------------------------------
    def alloc(self, size: int, name: str, align: Optional[int] = None) -> Segment:
        if align is None:
            return self.space.alloc(size, name)
        return self.space.alloc(size, name, align=align)

    def place(self, addr: int, size: int, node: int) -> None:
        """Declarative first-touch placement of a region (see
        HomeTable.place): models the home layout the application's
        initialization phase would establish, including the access tags
        the init-phase touches would leave behind.

        Placement is a setup-time declaration, so it is refused once the
        engine has run an event.  Before then only a block's previous
        placed home can hold a tag, ownership or lease on it: that node
        alone is passed to ``on_place`` to be revoked (``prev``; None
        when the block was unplaced or is re-placed to the same node)."""
        if self.engine.events_run:
            raise RuntimeError(
                "Machine.place after the engine ran: placement models the "
                "init phase and must precede the parallel phase"
            )
        first = addr // self.params.granularity
        last = (addr + size - 1) // self.params.granularity
        blocks = range(first, last + 1)
        home = self.home.home
        prevs = [home(b) for b in blocks]
        self.home.place_region(addr, size, node)
        on_place = self.protocol.on_place
        for b, prev in zip(blocks, prevs):
            on_place(b, node, None if prev == node else prev)

    def place_segment(self, seg: Segment, node: int) -> None:
        self.place(seg.base, seg.size, node)

    def init_data(self, addr: int, data) -> None:
        """Write initial contents into the (current or static) home
        copies, pre-parallel-phase (no simulated cost)."""
        data = as_payload(data)
        bs = self.blockspace
        for block, off, roff, length in bs.block_slices(addr, len(data)):
            home = self.home.home_or_static(block)
            self.nodes[home].store.block(block)[off : off + length] = data[
                roff : roff + length
            ]

    def run(self) -> float:
        return self.engine.run()

    def close(self) -> None:
        """Break the back-references that make a machine a reference
        cycle, so a finished machine is freed by reference counting the
        moment its last outside reference goes, not by a later pass of
        the cyclic collector.

        Call it once the run is over and everything wanted from the live
        machine (stats, protocol metadata, checker reports) has been
        read.  Stats, node stores and protocol state stay readable, as
        do the nodes, messages and processes an mc trace's labels name;
        the machine can no longer dispatch a message.  Calling it again
        is harmless; calling it while the engine runs raises.
        """
        # engine -> policy and machine -> hooks (checkers, timeline),
        # which hold the machine
        self.engine.set_policy(None)
        self.hooks = None
        # the wiring callbacks bound to this machine or its services
        for node in self.nodes:
            node._handle_message = None
        self.network.set_deliver(None)
        self._route = {}
        self.protocol._handlers = {}
        for service in (self.protocol, self.locks, self.barriers, self.transport):
            if service is not None:
                service.m = None
