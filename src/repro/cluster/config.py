"""Machine cost model, calibrated to the paper's Section 3 testbed.

Every constant here corresponds to a number reported in the paper:

* Myrinet round trips of 40 / 61 / 100 / 256 / 876 us for message sizes
  4 / 64 / 256 / 1024 / 4096 bytes, and ~17 MB/s large-message
  bandwidth (Section 3 microbenchmark).  We model one-way latency as
  ``base + per_byte * size`` with a discount for tiny control messages,
  which fits all five points within a few percent (see
  ``benchmarks/bench_micro_network.py``).
* 5 us Typhoon-0 fast access-fault exception.
* ~70 us interrupt (Solaris signal) notification; 1.5 us polling
  round trip, with a common-case poll check of 6-7 cycles on every
  control-flow backedge (modeled as a per-application compute dilation).
* ~150 us minimum synchronization handling time (Section 5.2.1).

Granularities supported: 64, 256, 1024, 4096 bytes (Section 2); the
virtual-memory page is always 4096 bytes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional


#: The coherence granularities evaluated by the paper.
GRANULARITIES = (64, 256, 1024, 4096)

#: Extension granularities beyond the paper's largest (Section 7 lists
#: "block sizes greater than 4,096 bytes" as unexamined future work).
EXTENDED_GRANULARITIES = (8192, 16384)

#: Virtual-memory page size (bytes).
PAGE_SIZE = 4096


#: All-software shared-virtual-memory costs (Section 7 future work), as
#: ``RunConfig.params`` overrides.  No Typhoon-0: access control comes
#: from the virtual-memory mechanism, so the coherence unit is the
#: 4096-byte page (the default granularity), an access violation costs
#: a real page fault plus signal delivery (~100 us instead of the 5 us
#: fast exception), and tag changes are mprotect calls.  The paper
#: predicts "all these performance differences would be larger on real
#: SVM systems, where the overheads of access violations are higher"
#: -- bench_extensions checks exactly that.
SVM_COSTS = (("fault_exception_us", 100.0), ("tag_change_us", 25.0))


class NotificationMechanism(enum.Enum):
    """How a node learns that a message has arrived (Section 5.4)."""

    POLLING = "polling"
    INTERRUPT = "interrupt"


@dataclass
class MachineParams:
    """All tunable cost constants of the simulated testbed.

    Times are microseconds unless noted.  The defaults reproduce the
    paper's platform; tests pin the microbenchmark fit.
    """

    # ---- topology -------------------------------------------------------
    n_nodes: int = 16
    #: coherence granularity (block size) in bytes; one of GRANULARITIES
    granularity: int = 4096
    #: message notification mechanism
    mechanism: NotificationMechanism = NotificationMechanism.POLLING

    # ---- network (Myrinet + LANai LCP) ----------------------------------
    #: fixed one-way cost for messages larger than `small_message_bytes`
    net_base_us: float = 23.5
    #: fixed one-way cost for small (register-sized) control messages
    net_base_small_us: float = 19.6
    #: cutoff below which the small-message cost applies
    small_message_bytes: int = 16
    #: per-byte one-way cost (~9.8 MB/s round-trip-visible; DMA pipeline
    #: makes one-way streaming bandwidth ~17 MB/s, modeled separately in
    #: NIC occupancy below)
    net_per_byte_us: float = 0.1021
    #: extra latency per switch-to-switch hop (3x 8-port crossbars)
    switch_hop_us: float = 0.55
    #: sender NIC occupancy per byte (17 MB/s streaming: 0.0588 us/B) --
    #: back-to-back sends from one node serialize at this rate
    nic_occupancy_per_byte_us: float = 0.0588
    #: fixed sender NIC occupancy per message (host stores to LANai memory)
    nic_occupancy_base_us: float = 4.0

    # ---- access control (Typhoon-0) --------------------------------------
    #: fast-exception cost for an access-control violation
    fault_exception_us: float = 5.0
    #: cost of changing a block's access tag (uncached store to T0)
    tag_change_us: float = 0.6

    # ---- notification ----------------------------------------------------
    #: polling round trip once a message is present
    poll_round_trip_us: float = 1.5
    #: mean time to the next backedge poll while the app is computing
    poll_backedge_gap_us: float = 2.0
    #: delay to notice a message while blocked inside the runtime (both
    #: mechanisms spin-poll while blocked; interrupts are disabled)
    blocked_poll_us: float = 0.5
    #: Solaris signal delivery cost for the interrupt mechanism
    interrupt_us: float = 70.0

    # ---- protocol processing (runs on the host CPU) ----------------------
    #: fixed cost to run any protocol handler
    handler_base_us: float = 3.0
    #: per-byte cost of copying block data into/out of messages
    copy_per_byte_us: float = 0.02
    #: per-byte cost of creating a twin (block copy)
    twin_per_byte_us: float = 0.02
    #: fixed cost of creating a twin (allocation + bookkeeping) -- the
    #: component that does NOT amortize at fine granularity and makes
    #: "the extra overhead of the relaxed protocols not justified" at
    #: 64 bytes (Section 5.1), with HLRC paying more than SW-LRC
    twin_fixed_us: float = 5.0
    #: per-byte cost of word-comparing dirty copy against twin (diffing)
    diff_create_per_byte_us: float = 0.035
    #: fixed cost per diff operation (setup, run encoding, allocation)
    diff_create_fixed_us: float = 10.0
    #: per-byte cost of applying a diff at the home
    diff_apply_per_byte_us: float = 0.025
    #: fixed cost per diff application at the home
    diff_apply_fixed_us: float = 5.0
    #: fixed cost to record/apply one write notice at acquire time
    write_notice_us: float = 0.4
    #: fixed protocol bookkeeping at lock acquire/release and barriers
    #: for the LRC protocols (interval creation, timestamp bump)
    interval_us: float = 6.0
    #: fixed cost of lock/barrier manager handlers
    sync_handler_us: float = 8.0

    # ---- derived ----------------------------------------------------------
    def one_way_latency_us(self, size_bytes: int) -> float:
        """One-way wire+software latency for a message of this size.

        Excludes notification delay at the receiver and NIC queueing at
        the sender, which the network layer adds separately.
        """
        base = (
            self.net_base_small_us
            if size_bytes <= self.small_message_bytes
            else self.net_base_us
        )
        return base + self.net_per_byte_us * size_bytes

    def nic_occupancy_us(self, size_bytes: int) -> float:
        """How long the sender NIC is busy injecting this message."""
        return self.nic_occupancy_base_us + self.nic_occupancy_per_byte_us * size_bytes

    def validate(self) -> None:
        allowed = GRANULARITIES + EXTENDED_GRANULARITIES
        if self.granularity not in allowed:
            raise ValueError(
                f"granularity {self.granularity} not in {allowed}"
            )
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        g = self.granularity
        if not (PAGE_SIZE % g == 0 or g % PAGE_SIZE == 0):
            raise ValueError(
                "granularity must divide the page size or be a multiple of it"
            )


def switch_of(node_id: int) -> int:
    """Which 8-port crossbar a node hangs off.

    The paper's 16 nodes connect to three 8-port switches, two ports of
    each switch used for switch-to-switch links.  That leaves 6 host
    ports per switch: nodes 0-5 on switch 0, 6-11 on switch 1, 12-15 on
    switch 2.  The same rule generalizes to the 32-node configuration
    the paper's footnote anticipates ("we hope to have 32-node runs for
    the final version"): six switches in a line.
    """
    return node_id // 6


#: widest machine the line-of-switches topology is kept for (the
#: paper's 16 nodes and its anticipated 32-node configuration); larger
#: machines switch to the tiered fabric below
LINE_TOPOLOGY_MAX_NODES = 32

#: leaf switches per spine group / spine groups per core group in the
#: tiered fabric (8-port crossbars throughout)
_LEAVES_PER_SPINE = 8


def hops_between(a: int, b: int, n_nodes: Optional[int] = None) -> int:
    """Number of switch-to-switch hops between two nodes.

    Up to 32 nodes (``n_nodes`` omitted or small) switches form a line
    and the hop count is the switch-index distance -- 0-2 for the
    paper's 16 nodes, up to 5 for 32, exactly as the seed modeled it.

    A line does not scale (1024 nodes would mean a 170-hop diameter no
    real Myrinet install ever had), so for larger machines the fabric
    grows fat-tree-ish tiers of the same 8-port crossbars: leaf
    switches of 6 hosts each, 8 leaves per spine switch, 8 spines per
    core switch.  Hop counts: same leaf 0, same spine group 2
    (leaf-spine-leaf), same core group 4, across core groups 6 --
    the diameter stays constant in N, as in real multistage fabrics.
    """
    sa, sb = switch_of(a), switch_of(b)
    if n_nodes is None or n_nodes <= LINE_TOPOLOGY_MAX_NODES:
        return abs(sa - sb)
    if sa == sb:
        return 0
    pa, pb = sa // _LEAVES_PER_SPINE, sb // _LEAVES_PER_SPINE
    if pa == pb:
        return 2
    if pa // _LEAVES_PER_SPINE == pb // _LEAVES_PER_SPINE:
        return 4
    return 6


def switch_hop_table(n_nodes: int, hop_us: float) -> List[List[float]]:
    """Hop latency between every pair of switches of an ``n_nodes``
    machine: entry ``[a][b]`` is ``hops_between(6a, 6b, n_nodes) *
    hop_us``, the latency between any host on switch ``a`` and any on
    switch ``b``.

    In the tiered fabric a row is four runs of equal cost (across core
    groups, own core group, own spine group, own leaf), so each row is
    filled by slice assignment instead of one ``hops_between`` call per
    entry: at 1024 nodes that is 171 rows instead of 29,241 calls.
    """
    n_switches = switch_of(n_nodes - 1) + 1 if n_nodes else 0
    if n_nodes <= LINE_TOPOLOGY_MAX_NODES:
        return [[abs(a - b) * hop_us for b in range(n_switches)]
                for a in range(n_switches)]
    # one float per tier, shared by every row
    tier_us = [hops * hop_us for hops in (0, 2, 4, 6)]
    core = _LEAVES_PER_SPINE * _LEAVES_PER_SPINE
    table = []
    for a in range(n_switches):
        row = [tier_us[3]] * n_switches
        for width, cost in ((core, tier_us[2]), (_LEAVES_PER_SPINE, tier_us[1])):
            lo = a - a % width
            hi = min(lo + width, n_switches)
            row[lo:hi] = [cost] * (hi - lo)
        row[a] = tier_us[0]
        table.append(row)
    return table
