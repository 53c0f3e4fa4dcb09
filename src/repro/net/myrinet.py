"""The interconnect: latency model, sender-NIC serialization, topology,
and (optionally) seeded fault injection.

Latency model (fit to the paper's Section 3 microbenchmark)::

    arrival = depart + base(size) + per_byte * size + hops * hop_cost

where ``depart`` respects sender-NIC occupancy: a node injecting
back-to-back messages serializes them at the NIC streaming rate
(~17 MB/s for large transfers).  Receiver-side notification delay is
NOT part of the network -- the destination :class:`~repro.cluster.node.Node`
adds it according to the polling/interrupt mechanism.

Messages from a node to itself (the home happens to be local) bypass
the wire entirely: they are delivered after a small fixed delay and are
counted separately (``stats.local_msgs``), never as network traffic.

Ordering semantics (audited; see tests/test_network.py)
-------------------------------------------------------
The raw wire makes **no cross-message ordering guarantees**:

* On one (src, dst) link, departures are NIC-serialized but arrival
  order can still invert because latency is size-dependent -- a small
  control message injected right behind a 4 KB data message arrives
  first (the audit found this happens routinely in real cells, e.g.
  ocean/sc/4096).
* A node-local message skips the NIC queue entirely (it is a function
  call, not a wire crossing), so it can overtake remote messages the
  same sender injected earlier.  Intra-node messages do deliver FIFO
  among themselves (equal delay + engine FIFO tie-break).

Both behaviors are *intended*: the protocols were audited to tolerate
them on the trusted wire, and the tests pin them.  Per-link FIFO and
exactly-once delivery become real guarantees only under the reliable
transport (:mod:`repro.net.reliable`), which resequences via per-link
sequence numbers whenever a :class:`~repro.net.faultplan.FaultPlan` is
active.

Fault injection
---------------
With a fault plan installed, every remote transmission consults
:meth:`FaultPlan.decide <repro.net.faultplan.FaultPlan.decide>`: the
message may be dropped after occupying the sender NIC (lost on the
wire), duplicated (a second arrival trails the first), or delayed
(bounded reorder).  Per-link latency inflation and receiver stall
windows stretch the arrival time.  Dropped and duplicated copies are
still recorded as wire traffic -- they were injected.  Local messages
are never perturbed.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.config import MachineParams, switch_hop_table, switch_of
from repro.net.faultplan import FaultPlan
from repro.net.message import Message
from repro.sim.engine import Engine

#: delivery delay for node-local protocol transactions (a function call
#: plus queue manipulation, not a wire crossing)
LOCAL_DELIVERY_US = 0.5


class Network:
    """Connects the nodes; delivers messages with modeled latency."""

    def __init__(
        self,
        engine: Engine,
        params: MachineParams,
        stats,
        deliver: Callable[[Message], None],
        faults: Optional[FaultPlan] = None,
    ):
        self.engine = engine
        self.params = params
        self.stats = stats
        self._deliver = deliver
        #: fault plan; None = the trusted wire (zero overhead)
        self._faults = faults
        n = params.n_nodes
        self._n_nodes = n
        #: the per-type wire counters, bound once: every remote send
        #: bumps both
        self._msg_count = stats.msg_count
        self._msg_bytes = stats.msg_bytes
        #: per-node time at which the NIC becomes free to inject
        self._nic_free: List[float] = [0.0] * n
        #: hop latency precomputed per (src switch, dst switch) -- the
        #: topology is static, so no reason to recompute switch
        #: distances per send.  Indexing by switch keeps the table
        #: O((N/6)^2) instead of O(N^2): a 1024-node machine needs a
        #: 171x171 table, not a million-entry one.
        self._switch: List[int] = [switch_of(a) for a in range(n)]
        self._hop_us: List[List[float]] = switch_hop_table(n, params.switch_hop_us)
        #: per-size (latency, occupancy) -- both are pure functions of
        #: size and the static machine params, and a cell only ever sees
        #: a handful of distinct message sizes (control sizes, the
        #: granularity, diff sizes), so the cache stays tiny
        self._cost_by_size: Dict[int, Tuple[float, float]] = {}

    def send(self, msg: Message) -> None:
        """Inject a message; schedules its delivery at the destination."""
        src = msg.src
        dst = msg.dst
        n = self._n_nodes
        if not (0 <= src < n):
            raise ValueError(f"bad src {src}")
        if not (0 <= dst < n):
            raise ValueError(f"bad dst {dst}")

        now = self.engine.now
        if src == dst:
            self.stats.local_msgs += 1
            self.engine.post(LOCAL_DELIVERY_US, self._deliver, msg)
            return

        # Per-type wire counters.  After the first message of a type
        # these are plain dict item ops (Counter.__missing__ never
        # fires), and the membership test keeps it that way.
        mtype = msg.mtype
        size = msg.size_bytes
        count = self._msg_count
        if mtype in count:
            count[mtype] += 1
            self._msg_bytes[mtype] += size
        else:
            count[mtype] = 1
            self._msg_bytes[mtype] = size

        cost = self._cost_by_size.get(size)
        if cost is None:
            p = self.params
            cost = (p.one_way_latency_us(size), p.nic_occupancy_us(size))
            self._cost_by_size[size] = cost
        nic_free = self._nic_free
        start = nic_free[src]
        if start < now:
            start = now
        nic_free[src] = start + cost[1]
        sw = self._switch
        latency = cost[0] + self._hop_us[sw[src]][sw[dst]]
        if self._faults is not None:
            self._faulty_send(msg, start, latency)
            return
        self.engine.post(start + latency - now, self._deliver, msg)

    def _faulty_send(self, msg: Message, start: float, latency: float) -> None:
        """Perturbed delivery path; only runs under a fault plan."""
        plan = self._faults
        ts = self.stats.transport
        latency *= plan.link_factor(msg.src, msg.dst)
        decision = plan.decide(msg.src, msg.dst)
        extra = 0.0 if decision is None else decision.extra_delay_us
        if extra:
            ts.delay_injected += 1
        arrival = start + latency + extra
        stall = plan.stall_delay(msg.dst, arrival)
        if stall:
            ts.stall_delays += 1
            arrival += stall
        now = self.engine.now
        if decision is not None and decision.duplicate:
            ts.dup_injected += 1
            dup_at = arrival + decision.dup_delay_us
            self.engine.post(dup_at - now, self._deliver, msg)
        if decision is not None and decision.drop:
            ts.drops += 1
            return
        self.engine.post(arrival - now, self._deliver, msg)

    def set_deliver(self, deliver: Callable[[Message], None]) -> None:
        """Swap the wire-arrival callback (the Machine points it at the
        reliable transport when a fault plan is active)."""
        self._deliver = deliver

    def nic_free_at(self, node: int) -> float:
        """When the node's NIC can next inject (diagnostics/tests)."""
        return self._nic_free[node]
