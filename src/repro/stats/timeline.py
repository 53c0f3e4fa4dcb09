"""Event timeline recording and rendering.

An optional tracing facility for debugging protocol behaviour: attach a
:class:`Timeline` to a machine and every message send/delivery, fault,
and synchronization event is recorded with its simulated timestamp.
The ASCII renderer draws a per-node lane chart -- the tool we reach for
when a transfer chain or a lock hand-off looks wrong.

Recording is strictly opt-in (zero overhead otherwise) and bounded
(`max_events`), so it can be left attached to long runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional


@dataclass(frozen=True)
class TimelineEvent:
    time_us: float
    node: int
    kind: str          # 'send' | 'recv' | 'fault' | 'sync'
    label: str


class Timeline:
    """Bounded in-memory event log for one machine."""

    def __init__(self, machine, max_events: int = 100_000,
                 message_filter: Optional[Callable[[str], bool]] = None):
        self.machine = machine
        self.max_events = max_events
        self.events: List[TimelineEvent] = []
        self.dropped = 0
        self._filter = message_filter
        self._install(machine)

    # ------------------------------------------------------------------
    def record(self, node: int, kind: str, label: str) -> None:
        if len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append(
            TimelineEvent(self.machine.engine.now, node, kind, label)
        )

    def _install(self, machine) -> None:
        # Wrap the machine's send seam (not network.send directly):
        # protocol/sync code routes through machine.send, which under a
        # fault plan is the reliable transport's entry point.
        orig_send = machine.send

        def traced_send(msg):
            if self._filter is None or self._filter(msg.mtype):
                self.record(msg.src, "send",
                            f"{msg.mtype}->{msg.dst} b={msg.block}")
            orig_send(msg)

        machine.send = traced_send

        orig_deliver = machine.network._deliver

        def traced_deliver(msg):
            if self._filter is None or self._filter(msg.mtype):
                self.record(msg.dst, "recv",
                            f"{msg.mtype}<-{msg.src} b={msg.block}")
            orig_deliver(msg)

        machine.network._deliver = traced_deliver

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def for_node(self, node: int) -> List[TimelineEvent]:
        return [e for e in self.events if e.node == node]

    def between(self, t0: float, t1: float) -> List[TimelineEvent]:
        return [e for e in self.events if t0 <= e.time_us <= t1]

    def matching(self, substring: str) -> List[TimelineEvent]:
        return [e for e in self.events if substring in e.label]

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def render(self, t0: float = 0.0, t1: Optional[float] = None,
               nodes: Optional[List[int]] = None, limit: int = 200) -> str:
        """A chronological, node-laned text dump of the window."""
        if t1 is None:
            t1 = self.machine.engine.now
        if nodes is None:
            nodes = list(range(self.machine.params.n_nodes))
        lanes = {n: i for i, n in enumerate(nodes)}
        lines = [f"timeline {t0:.1f}..{t1:.1f}us "
                 f"({len(self.events)} events, {self.dropped} dropped)"]
        window = [e for e in self.events
                  if t0 <= e.time_us <= t1 and e.node in lanes]
        for e in window[:limit]:
            indent = "  " * lanes[e.node]
            mark = {"send": ">", "recv": "<", "fault": "!", "sync": "#"}.get(
                e.kind, "?"
            )
            lines.append(
                f"{e.time_us:10.2f} {indent}[n{e.node}] {mark} {e.label}"
            )
        if len(window) > limit:
            lines.append(f"... (+{len(window) - limit} more)")
        return "\n".join(lines)

    def summary(self) -> dict:
        from collections import Counter

        kinds = Counter(e.kind for e in self.events)
        return {
            "events": len(self.events),
            "dropped": self.dropped,
            **{f"kind_{k}": v for k, v in sorted(kinds.items())},
        }
