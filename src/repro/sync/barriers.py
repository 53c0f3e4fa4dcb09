"""Barrier service.

A centralized barrier manager (node ``barrier_id mod N``) collects one
arrival message from every node, then broadcasts releases.  Under the
LRC protocols each arrival carries the node's vector timestamp (the
node first runs ``release_prepare`` -- HLRC flushes all its diffs
before arriving); the manager merges the timestamps and sends each node
a *tailored* set of write notices covering exactly the intervals that
node has not seen.  This is the all-to-all coherence exchange that
makes barriers the natural full-synchronization point of LRC programs.

Barriers are identified by ``(barrier_id, episode)`` so the same
barrier object can be reused across iterations, like SPLASH-2's
``BARRIER(bar, P)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Optional, Tuple

from repro.net.message import Message, notice_size
from repro.sim.process import Future


@dataclass
class Episode:
    """Manager-side state of one barrier episode."""

    arrivals: Dict[int, Any] = field(default_factory=dict)  # node -> vt
    futures: Dict[int, Future] = field(default_factory=dict)


class BarrierService:
    def __init__(self, machine):
        self.m = machine
        self.engine = machine.engine
        self.params = machine.params
        self.stats = machine.stats
        #: (barrier_id, episode_idx) -> Episode
        self._episodes: Dict[Tuple[int, int], Episode] = {}
        #: per-node next episode index per barrier
        self._counts: Dict[Tuple[int, int], int] = {}

    def handles(self, mtype: str) -> bool:
        return mtype in ("barrier_arrive", "barrier_release")

    def manager_of(self, barrier_id: int) -> int:
        return barrier_id % self.params.n_nodes

    def arrivals(self, barrier_id: int, episode: int) -> int:
        """Arrivals the manager holds for an episode not yet released."""
        ep = self._episodes.get((barrier_id, episode))
        return 0 if ep is None else len(ep.arrivals)

    # ------------------------------------------------------------------
    # application side
    # ------------------------------------------------------------------
    def barrier(self, node, barrier_id: int, participants: Optional[int] = None) -> Generator:
        """Arrive at the barrier and wait for everyone.

        ``participants`` defaults to all nodes; programs running on a
        subset pass the subset size.
        """
        n_participants = (
            self.params.n_nodes if participants is None else participants
        )
        protocol = self.m.protocol
        # Make our modifications visible before arriving.
        yield from protocol.release_prepare(node)
        key = (node.id, barrier_id)
        episode = self._counts.get(key, 0)
        self._counts[key] = episode + 1
        hooks = self.m.hooks
        if hooks is not None:
            hooks.on_release_done(node.id)
            hooks.on_barrier_enter(node.id, barrier_id, episode)
        fut = Future(self.engine)
        vt = protocol.arrival_vt(node.id)
        vec_bytes = 4 * self.params.n_nodes if protocol.uses_notices else 0
        msg = Message(
            src=node.id,
            dst=self.manager_of(barrier_id),
            mtype="barrier_arrive",
            size_bytes=24 + vec_bytes,
            block=barrier_id,
            payload={
                "node": node.id,
                "episode": episode,
                "vt": vt,
                "future": fut,
                "participants": n_participants,
            },
            handle_cost_us=self.params.sync_handler_us,
        )
        self.m.send(msg)
        node.node_stats.barriers += 1
        payload = yield from node.wait(fut, "barrier_wait_us")
        yield from protocol.apply_sync(node, payload)
        if hooks is not None:
            hooks.on_sync_applied(node.id, payload)
            hooks.on_barrier_exit(node.id, barrier_id, episode)

    # ------------------------------------------------------------------
    # message handlers
    # ------------------------------------------------------------------
    def on_message(self, node, msg: Message) -> None:
        if msg.mtype == "barrier_arrive":
            self._h_arrive(node, msg)
        elif msg.mtype == "barrier_release":
            self._h_release(node, msg)
        else:  # pragma: no cover
            raise KeyError(msg.mtype)

    def _h_arrive(self, node, msg: Message) -> None:
        p = msg.payload
        key = (msg.block, p["episode"])
        ep = self._episodes.setdefault(key, Episode())
        ep.arrivals[p["node"]] = p["vt"]
        ep.futures[p["node"]] = p["future"]
        if len(ep.arrivals) < p["participants"]:
            return
        # Everyone is here: compute tailored release payloads and
        # broadcast.  The merge cost scales with total notices; nodes
        # with one view share one payload object.
        del self._episodes[key]
        protocol = self.m.protocol
        payloads = protocol.barrier_payloads(ep.arrivals)
        protocol.barrier_released(ep.arrivals)
        # Insertion order == arrival order, which is deterministic and
        # is the order the protocol's payloads were costed for; sorting
        # by nid would silently reshuffle long-established schedules.
        for nid, fut in ep.futures.items():  # noqa: SIM006
            payload, n_notices = payloads[nid]
            rel = Message(
                src=node.id,
                dst=nid,
                mtype="barrier_release",
                size_bytes=notice_size(n_notices),
                block=msg.block,
                payload={"future": fut, "grant": payload},
                handle_cost_us=self.params.sync_handler_us
                + self.params.write_notice_us * n_notices * 0.1,
            )
            self.m.send(rel)

    @staticmethod
    def _h_release(node, msg: Message) -> None:
        msg.payload["future"].resolve(msg.payload["grant"])
