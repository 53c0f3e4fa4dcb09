"""Run-level counters.

Everything the paper's tables report is derived from these counters:

* read/write fault counts (Tables 3-13),
* message counts and data traffic in bytes (Table 15 discussion),
* diff/twin/invalidation/write-notice activity (Section 5.2 analysis),
* per-node time breakdown (compute, fault wait, lock wait, barrier
  wait, handler time) used for the synchronization-cost analysis.

Counters are plain integers/floats in dictionaries -- cheap to update
from the hot path and trivially aggregated.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from typing import Dict


@dataclass(slots=True)
class TransportStats:
    """Fault-injection and reliable-transport counters (chaos runs).

    Attached as ``stats.transport`` only when a fault plan is active
    (:meth:`Stats.enable_transport`), so fault-free runs serialize
    byte-identically to builds that predate the chaos layer.
    """

    #: transmissions the fault plan dropped on the wire
    drops: int = 0
    #: duplicate copies the fault plan injected
    dup_injected: int = 0
    #: transmissions given bounded-reorder extra latency
    delay_injected: int = 0
    #: arrivals held to the end of a receiver stall window
    stall_delays: int = 0
    #: sequenced first transmissions (excludes retransmits and acks)
    data_sent: int = 0
    #: ack-timeout expirations at the sender
    timeouts: int = 0
    #: retransmissions issued (timeouts that had budget left)
    retransmits: int = 0
    #: acks injected by receivers
    acks_sent: int = 0
    #: arrivals discarded as duplicates (fault-plan dups + retransmit
    #: copies whose original made it)
    dup_suppressed: int = 0
    #: arrivals buffered because an earlier sequence number was missing
    reorder_buffered: int = 0

    def to_dict(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict) -> "TransportStats":
        return cls(**d)


@dataclass(slots=True)
class NodeStats:
    """Per-node accounting.

    Slotted: fault counters are bumped from the access-fault hot path,
    and slot access is both faster and leaner than a per-instance dict.
    """

    node_id: int
    read_faults: int = 0
    write_faults: int = 0
    #: cheap node-local tag re-opens (home writing home memory, an
    #: owner re-opening after a release-time write-protect); the paper's
    #: fault tables do not count these
    local_reopens: int = 0
    compute_us: float = 0.0
    fault_wait_us: float = 0.0
    lock_wait_us: float = 0.0
    barrier_wait_us: float = 0.0
    handler_us: float = 0.0
    lock_acquires: int = 0
    barriers: int = 0

    @property
    def sync_wait_us(self) -> float:
        return self.lock_wait_us + self.barrier_wait_us

    def to_dict(self) -> Dict:
        # vars() does not work on slotted instances.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Dict) -> "NodeStats":
        return cls(**d)


class Stats:
    """Aggregated counters for one simulation run."""

    def __init__(self, n_nodes: int):
        self.n_nodes = n_nodes
        self.nodes = [NodeStats(i) for i in range(n_nodes)]
        #: messages by type -> count
        self.msg_count: Counter = Counter()
        #: messages by type -> total bytes on the wire
        self.msg_bytes: Counter = Counter()
        #: node-local protocol "messages" (home == self); no wire traffic
        self.local_msgs: int = 0
        self.diffs_created: int = 0
        self.diff_bytes: int = 0
        self.diffs_applied: int = 0
        self.twins_created: int = 0
        self.invalidations: int = 0
        self.write_notices_sent: int = 0
        self.write_notices_applied: int = 0
        self.home_migrations: int = 0
        self.forwarded_requests: int = 0
        self.writebacks: int = 0
        #: wall-clock simulation time of the timed parallel section
        self.parallel_time_us: float = 0.0
        #: modeled single-node execution time of the same work
        self.sequential_time_us: float = 0.0

    # ------------------------------------------------------------------
    # chaos (fault injection + reliable transport)
    # ------------------------------------------------------------------
    def enable_transport(self) -> "TransportStats":
        """Attach the chaos counter block (idempotent).

        Deliberately *not* done in ``__init__``: ``to_dict`` dumps every
        instance attribute, and the stats of a fault-free run must stay
        byte-identical to pre-chaos builds.
        """
        if getattr(self, "transport", None) is None:
            self.transport = TransportStats()
        return self.transport

    # ------------------------------------------------------------------
    # recording helpers
    # ------------------------------------------------------------------
    def record_message(self, mtype: str, size_bytes: int) -> None:
        # Called once per wire message.  After the first message of a
        # type these are plain dict item ops (Counter.__missing__ never
        # fires), and the membership test keeps it that way.
        mc = self.msg_count
        if mtype in mc:
            mc[mtype] += 1
            self.msg_bytes[mtype] += size_bytes
        else:
            mc[mtype] = 1
            self.msg_bytes[mtype] = size_bytes

    def record_read_fault(self, node: int) -> None:
        self.nodes[node].read_faults += 1

    def record_write_fault(self, node: int) -> None:
        self.nodes[node].write_faults += 1

    def record_local_reopen(self, node: int) -> None:
        self.nodes[node].local_reopens += 1

    # ------------------------------------------------------------------
    # aggregates
    # ------------------------------------------------------------------
    @property
    def read_faults(self) -> int:
        return sum(n.read_faults for n in self.nodes)

    @property
    def write_faults(self) -> int:
        return sum(n.write_faults for n in self.nodes)

    @property
    def local_reopens(self) -> int:
        return sum(n.local_reopens for n in self.nodes)

    @property
    def total_messages(self) -> int:
        return sum(self.msg_count.values())

    @property
    def total_traffic_bytes(self) -> int:
        return sum(self.msg_bytes.values())

    @property
    def data_traffic_bytes(self) -> int:
        """Bytes moved in data-carrying messages (block data and diffs)."""
        return sum(
            b
            for t, b in self.msg_bytes.items()
            if t
            in (
                "read_reply",
                "write_reply",
                "fetch_reply",
                "rread_reply",
                "own_reply",
                "data",
                "diff",
                "writeback",
            )
        )

    @property
    def speedup(self) -> float:
        if self.parallel_time_us <= 0:
            return 0.0
        return self.sequential_time_us / self.parallel_time_us

    @property
    def total_compute_us(self) -> float:
        return sum(n.compute_us for n in self.nodes)

    @property
    def total_lock_acquires(self) -> int:
        return sum(n.lock_acquires for n in self.nodes)

    # ------------------------------------------------------------------
    # serialization (repro.exec: results must cross process boundaries
    # and live in the on-disk cache without dragging Machine along)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable dump of every counter, per-node included."""
        out: Dict = {}
        for k, v in vars(self).items():
            if k == "nodes":
                out[k] = [n.to_dict() for n in self.nodes]
            elif isinstance(v, Counter):
                out[k] = dict(v)
            elif isinstance(v, TransportStats):
                out[k] = v.to_dict()
            else:
                out[k] = v
        return out

    @classmethod
    def from_dict(cls, d: Dict) -> "Stats":
        """Inverse of :meth:`to_dict`; tolerates counters added after a
        dump was written (they keep their constructor defaults)."""
        st = cls(d["n_nodes"])
        for k, v in d.items():
            if k == "nodes":
                st.nodes = [NodeStats.from_dict(nd) for nd in v]
            elif k == "transport":
                st.transport = TransportStats.from_dict(v)
            elif isinstance(getattr(st, k, None), Counter):
                setattr(st, k, Counter(v))
            elif k != "n_nodes":
                setattr(st, k, v)
        return st

    def summary(self) -> Dict[str, float]:
        """Flat dictionary used by the harness report writers.

        Chaos runs gain ``retransmits``/``timeouts``/``drops`` keys;
        fault-free summaries are unchanged.
        """
        transport = getattr(self, "transport", None)
        extra = (
            {
                "drops": transport.drops,
                "retransmits": transport.retransmits,
                "timeouts": transport.timeouts,
                "dup_suppressed": transport.dup_suppressed,
            }
            if transport is not None
            else {}
        )
        return {
            "read_faults": self.read_faults,
            "write_faults": self.write_faults,
            "local_reopens": self.local_reopens,
            "messages": self.total_messages,
            "traffic_bytes": self.total_traffic_bytes,
            "data_traffic_bytes": self.data_traffic_bytes,
            "diffs_created": self.diffs_created,
            "diff_bytes": self.diff_bytes,
            "twins_created": self.twins_created,
            "invalidations": self.invalidations,
            "write_notices": self.write_notices_sent,
            "lock_acquires": self.total_lock_acquires,
            "parallel_time_us": self.parallel_time_us,
            "sequential_time_us": self.sequential_time_us,
            "speedup": self.speedup,
            **extra,
        }

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Stats rf={self.read_faults} wf={self.write_faults} "
            f"msgs={self.total_messages} speedup={self.speedup:.2f}>"
        )


@dataclass(slots=True)
class MetadataStats:
    """End-of-run coherence-metadata accounting for one protocol.

    ``meta_bytes`` is the honest storage cost of the *block-scaling*
    coherence state the run actually kept: structures that exist per
    tracked block (directory entries, version tables, epochs, tardis
    timestamps) or whose width is O(N) (vector clocks, interval logs).
    ``dense_bytes`` is what the classic dense representation of the
    same state would have cost at this node count (full-bitmap
    copysets, 8-byte-per-component vector clocks).  The scaling report
    plots both per block: the dense curve is the O(N) wall the paper's
    protocols hit, the actual curve is what the capacity-honest
    representations (and tardis's O(1) timestamps) achieve.

    ``node_bytes`` holds the O(1)-width per-node / per-cached-copy
    state that is *not* part of the per-block story: tardis's single
    program-timestamp register per node and one lease scalar per
    cached copy (the analog of the access tag every protocol keeps
    uncounted), and SW-LRC's per-copy hint cache.  It is reported so
    nothing is hidden, but excluded from ``per_block`` -- dividing a
    per-node register by however many blocks a tiny app touched would
    say nothing about how metadata scales.

    Computed *after* the run by :func:`protocol_metadata` -- never
    attached to :class:`Stats` in ``__init__``, so stats-shas of
    existing runs stay byte-identical (same discipline as
    :class:`TransportStats`).
    """

    protocol: str
    n_nodes: int
    #: distinct shared blocks with a cached copy anywhere (denominator)
    blocks: int
    #: honest bytes of the block-scaling coherence metadata
    meta_bytes: int
    #: bytes a dense representation would need at this node count
    dense_bytes: int
    #: O(1)-width per-node / per-cached-copy state (informational)
    node_bytes: int
    #: named breakdown of ``meta_bytes`` (directory/clocks/notices/...)
    components: Dict[str, int]
    #: named breakdown of ``node_bytes`` (pts/leases/hints)
    node_components: Dict[str, int]

    @property
    def per_block(self) -> float:
        return self.meta_bytes / self.blocks if self.blocks else 0.0

    @property
    def per_block_dense(self) -> float:
        return self.dense_bytes / self.blocks if self.blocks else 0.0

    def to_dict(self) -> Dict:
        return {
            "protocol": self.protocol,
            "n_nodes": self.n_nodes,
            "blocks": self.blocks,
            "meta_bytes": self.meta_bytes,
            "dense_bytes": self.dense_bytes,
            "node_bytes": self.node_bytes,
            "per_block": self.per_block,
            "per_block_dense": self.per_block_dense,
            "components": dict(self.components),
            "node_components": dict(self.node_components),
        }


#: modeled widths of the individual metadata fields (bytes)
_OWNER_BYTES = 4
_TS_FIELD_BYTES = 8
_NOTICE_BYTES = 12          # block 4 + version 4 + owner 4
_VERSION_ENTRY_BYTES = 12   # block 4 + version 8
_HINT_ENTRY_BYTES = 16      # block 4 + version 8 + writer 4
_LEASE_ENTRY_BYTES = 16     # block 4 + lease end 8 (+ padding)
_EPOCH_ENTRY_BYTES = 12     # block 4 + epoch 8


def protocol_metadata(machine) -> MetadataStats:
    """Measure the coherence metadata a finished run left behind.

    This is the measured curve behind the scaling study's O(N)-vs-O(1)
    claim: directory copysets and interval/vector-clock state grow
    with the node count, tardis's per-block timestamps do not.
    """
    p = machine.protocol
    n = machine.params.n_nodes
    blocks = len({b for nd in machine.nodes for b, _ in nd.store.blocks()})
    components: Dict[str, int] = {}
    node_components: Dict[str, int] = {}
    dense = 0

    directory = getattr(p, "dir", None)
    if directory is not None:  # sc / dc
        from repro.core.sc import copyset_bytes

        components["directory"] = sum(
            _OWNER_BYTES + 1 + copyset_bytes(e.sharers, n)
            for e in directory.values()
        )
        # Dense classic directory: a presence bitmap over all N nodes
        # per entry, plus the owner field.
        dense += len(directory) * (_OWNER_BYTES + 1 + (n + 7) // 8)

    copyset = getattr(p, "copyset", None)
    if copyset is not None:  # erc
        components["copysets"] = sum(
            _OWNER_BYTES * len(s) for s in copyset.values()
        )
        dense += len(copyset) * (n + 7) // 8

    vt = getattr(p, "vt", None)
    if vt is not None:  # swlrc / hlrc: per-node vector clocks
        components["clocks"] = sum(c.bytes_used() for c in vt)
        dense += n * n * _TS_FIELD_BYTES
        ilog = p.ilog
        notices = sum(
            len(interval) for i in range(n) for interval in ilog.intervals(i)
        )
        components["interval_log"] = notices * _NOTICE_BYTES
        dense += notices * _NOTICE_BYTES

    version = getattr(p, "version", None)
    if version is not None:  # swlrc
        components["versions"] = sum(
            _VERSION_ENTRY_BYTES * len(d) for d in version
        )
        node_components["hints"] = sum(
            _HINT_ENTRY_BYTES * len(d) for d in p.hint
        )
        components["owner_table"] = (_OWNER_BYTES + 1) * len(p.owners)
        dense += components["versions"] + components["owner_table"]

    epochs = getattr(p, "_epoch", None)
    if epochs is not None:  # hlrc
        components["epochs"] = sum(
            _EPOCH_ENTRY_BYTES * len(d) for d in epochs
        )
        dense += components["epochs"]

    entries = getattr(p, "entries", None)
    if entries is not None:  # tardis: two timestamps + owner per block
        components["timestamps"] = (
            (2 * _TS_FIELD_BYTES + _OWNER_BYTES) * len(entries)
        )
        # Per-node program-timestamp register (one scalar each) and the
        # per-cached-copy lease expiry: O(1) width, not block-scaling.
        node_components["pts"] = _TS_FIELD_BYTES * n
        node_components["leases"] = sum(
            _LEASE_ENTRY_BYTES * len(d) for d in p.lease
        )
        # Tardis *is* its own dense form -- the per-block timestamps
        # have no N-dependent width to compress.
        dense += components["timestamps"]

    meta = sum(components.values())
    return MetadataStats(
        protocol=p.name,
        n_nodes=n,
        blocks=blocks,
        meta_bytes=meta,
        dense_bytes=dense,
        node_bytes=sum(node_components.values()),
        components=components,
        node_components=node_components,
    )


def memory_utilization(machine) -> Dict[str, float]:
    """Memory footprint of the protocol state at the end of a run --
    the Section 7 limitation "we have not examined the memory
    utilization of different protocol and granularity combinations".

    Returns bytes of cached block copies, twins, and the replication
    factor (total cached bytes / distinct shared bytes touched).
    """
    g = machine.params.granularity
    cached_blocks = sum(len(n.store) for n in machine.nodes)
    distinct = len({b for n in machine.nodes for b, _ in n.store.blocks()})
    twin_bytes = 0
    twins = getattr(machine.protocol, "twins", None)
    if twins is not None:
        twin_bytes = sum(len(t) for t in twins) * g
    cached_bytes = cached_blocks * g
    return {
        "cached_bytes": float(cached_bytes),
        "twin_bytes": float(twin_bytes),
        "distinct_bytes": float(distinct * g),
        "replication_factor": cached_bytes / (distinct * g) if distinct else 0.0,
    }
