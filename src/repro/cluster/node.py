"""A cluster node: host CPU, access-control tags, local block store,
and message notification/handling.

CPU model
---------
One application process runs per node (the paper uses one of the two
HyperSPARC processors).  Protocol handlers execute on the same CPU, so
a handler that runs while the application is computing steals cycles
from it.  We model this with *debt accounting*: while the app is inside
a ``compute(us)`` segment, every handler adds its cost to ``debt``; when
the segment's sleep expires the app sleeps again for the accumulated
debt (during which more debt may accrue).  This is exact for handler
time and avoids a full preemptive scheduler.

Notification model (paper Section 5.4)
--------------------------------------
How long after wire arrival a message starts being handled depends on
what the node is doing:

* blocked inside the runtime (waiting for a fault or lock): both
  mechanisms spin-poll -- ``blocked_poll_us``;
* computing, polling mechanism: next backedge check plus the 1.5 us
  poll round trip;
* computing, interrupt mechanism: the ~70 us Solaris signal path.

Polling additionally dilates *all* compute time by the per-application
backedge instrumentation overhead (``Machine.poll_dilation``) -- the
paper reports LU runs 55% slower uniprocessor with polling code
inserted.

Handlers on one node serialize (single CPU): each message's handling
occupies ``[start, start + handle_cost]`` where start respects the
previous handler's completion.  Back-to-back wire arrivals therefore
overlap their notification windows -- each arrival computes its own
delay from the node state *at arrival time*, then queues behind
``_handler_busy_until``; two deliveries 1 us apart under the interrupt
mechanism both pay the ~70 us signal path but their handlers run
strictly serialized (see tests/test_node.py).  The reliable transport
(:mod:`repro.net.reliable`) leans on this when it drains a held-out-of-
order buffer: it hands the node several messages at the same simulated
instant and the node spaces their handlers out itself.  Transport acks
never reach a node -- they are consumed at wire arrival inside the
transport with zero handler cost (modeled as NIC-firmware work).
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.cluster.config import MachineParams, NotificationMechanism
from repro.memory.access_control import AccessControl
from repro.memory.storage import NodeStore
from repro.net.message import Message
from repro.sim.engine import Engine

#: app process states
IDLE = "idle"
COMPUTE = "compute"
BLOCKED = "blocked"

#: wait-kind names map onto NodeStats fields
WAIT_FAULT = "fault_wait_us"
WAIT_LOCK = "lock_wait_us"
WAIT_BARRIER = "barrier_wait_us"


class Cpu:
    """Debt-based CPU time accounting for one node."""

    __slots__ = ("state", "debt")

    def __init__(self) -> None:
        self.state = IDLE
        self.debt = 0.0


class Node:
    """One workstation of the simulated cluster.

    The notification delays :meth:`deliver` charges are read from
    ``params`` once, at construction: nothing assigns a
    :class:`~repro.cluster.config.MachineParams` field after a machine
    is built.
    """

    def __init__(
        self,
        node_id: int,
        engine: Engine,
        params: MachineParams,
        stats,
        handle_message: Callable[["Node", Message], None],
        poll_dilation: float = 0.0,
    ):
        self.id = node_id
        self.engine = engine
        self.params = params
        self.stats = stats
        self.node_stats = stats.nodes[node_id]
        self._handle_message = handle_message
        self.cpu = Cpu()
        self.access = AccessControl()
        self.store = NodeStore(params.granularity)
        self.poll_dilation = poll_dilation
        self._handler_busy_until = 0.0
        self._polling = params.mechanism is NotificationMechanism.POLLING
        # notification delay by what the node is doing at arrival
        self._blocked_delay_us = params.blocked_poll_us
        self._computing_delay_us = (
            params.poll_backedge_gap_us + params.poll_round_trip_us
            if self._polling else params.interrupt_us
        )

    # ------------------------------------------------------------------
    # message arrival
    # ------------------------------------------------------------------
    def deliver(self, msg: Message) -> None:
        """Called by the network at wire-arrival time."""
        now = self.engine.now
        computing = self.cpu.state == COMPUTE
        start = now + (
            self._computing_delay_us if computing else self._blocked_delay_us
        )
        busy = self._handler_busy_until
        if start < busy:
            start = busy
        cost = msg.handle_cost_us
        done = start + cost
        self._handler_busy_until = done
        self.node_stats.handler_us += cost
        if computing:
            # Steal cycles from the in-progress compute segment.
            self.cpu.debt += cost
        # The handler's effects become visible when it finishes; the
        # dispatch callback is scheduled directly (no wrapper frame).
        self.engine.post(done - now, self._handle_message, self, msg)

    # ------------------------------------------------------------------
    # application-side effects (generators run inside the app process)
    # ------------------------------------------------------------------
    def compute(self, us: float) -> Generator:
        """Burn ``us`` of useful CPU time (plus polling dilation and any
        handler debt accrued while computing)."""
        if us < 0:
            raise ValueError(f"negative compute time {us}")
        if us == 0:
            return
        if self._polling:
            us *= 1.0 + self.poll_dilation
        self.node_stats.compute_us += us
        prev_state = self.cpu.state
        self.cpu.state = COMPUTE
        remaining = us
        while remaining > 0:
            self.cpu.debt = 0.0
            yield remaining
            remaining = self.cpu.debt
        self.cpu.debt = 0.0
        self.cpu.state = prev_state

    def wait(self, waitable, kind: str) -> Generator:
        """Block the app process on a future/latch, accounting the wait
        time to the given NodeStats field (fault/lock/barrier)."""
        prev_state = self.cpu.state
        self.cpu.state = BLOCKED
        t0 = self.engine.now
        value = yield waitable
        waited = self.engine.now - t0
        setattr(self.node_stats, kind, getattr(self.node_stats, kind) + waited)
        self.cpu.state = prev_state
        return value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Node {self.id} state={self.cpu.state}>"
