"""Delayed Consistency: the extension the paper names but does not
evaluate ("We have also not examined delayed consistency protocols
that can delay invalidation messages to some extent without using
high-overhead protocol operations at synchronization points",
Section 7; the model is Dubois et al.'s delayed consistency [8]).

The protocol is sequential consistency's state machine with one
receiver-side relaxation: while a node is *computing*, incoming
invalidations and recalls are buffered instead of being processed at
the next poll, and are flushed

* when the node reaches a synchronization point (lock release or
  barrier arrival), or
* after a bounded delay (``DELAY_US``), whichever comes first.

This is exactly the accidental behaviour the paper observes for SC
under the *interrupt* mechanism (Section 5.4: the delayed invalidations
let a processor complete multiple local accesses and damp the
false-sharing ping-pong) -- here made deliberate and available under
polling too.

Because the flush deadline is bounded, the home's ack collection only
ever stretches by ``DELAY_US``; no deadlock is possible.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from repro.core.protocol import register
from repro.core.sc import SCProtocol
from repro.cluster.node import COMPUTE
from repro.net.message import Message


@register
class DelayedSCProtocol(SCProtocol):
    name = "dc"
    #: deferring invalidations opens stale-read windows SC forbids, so
    #: dc only claims the relaxed contract (matches the pre-registry
    #: model_of rule: everything but "sc" maps to "lrc")
    memory_model = "lrc"

    #: bound on how long a coherence action may be deferred
    DELAY_US = 200.0

    def __init__(self, machine):
        super().__init__(machine)
        #: per-node buffered coherence messages awaiting the flush
        self._delayed: Dict[int, List[Message]] = {
            i: [] for i in range(machine.params.n_nodes)
        }
        self._flush_scheduled: Dict[int, bool] = {
            i: False for i in range(machine.params.n_nodes)
        }
        self.delayed_actions = 0

    # ------------------------------------------------------------------
    # deferral plumbing
    # ------------------------------------------------------------------
    def _maybe_delay(self, node, msg: Message) -> bool:
        """Buffer the message if the node is busy computing."""
        if node.cpu.state != COMPUTE:
            return False
        self.delayed_actions += 1
        self._delayed[node.id].append(msg)
        if not self._flush_scheduled[node.id]:
            self._flush_scheduled[node.id] = True
            self.engine.post(self.DELAY_US, self._flush, node)
        return True

    def _flush(self, node) -> None:
        """Process everything buffered for this node."""
        self._flush_scheduled[node.id] = False
        pending, self._delayed[node.id] = self._delayed[node.id], []
        for msg in pending:
            if msg.mtype == "inval":
                super()._h_inval(node, msg)
            else:
                super()._h_recall(node, msg)

    # ------------------------------------------------------------------
    # deferred message types
    # ------------------------------------------------------------------
    def _h_inval(self, node, msg: Message) -> None:
        if not self._maybe_delay(node, msg):
            super()._h_inval(node, msg)

    def _h_recall(self, node, msg: Message) -> None:
        if not self._maybe_delay(node, msg):
            super()._h_recall(node, msg)

    # ------------------------------------------------------------------
    # synchronization points flush eagerly (this is what keeps the
    # model "consistent enough": all deferred actions complete before
    # any synchronization is visible to others)
    # ------------------------------------------------------------------
    def release_prepare(self, node) -> Generator:
        self._flush(node)
        return
        yield  # pragma: no cover - generator protocol
