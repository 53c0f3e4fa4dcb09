"""Eager Release Consistency (ERC) -- the pre-lazy relaxed protocol of
the paper's related work (release consistency [10] and its SVM
implementation [5], Munin-style, with write-invalidate propagation as
in Keleher's ERC/LRC comparison).

Like HLRC it is a home-based multiple-writer protocol (twins, diffs,
whole-block fetch from the home), but coherence is enforced **at the
release instead of the acquire**:

* at a release, every dirty block's diff goes to its home, and the home
  *eagerly invalidates every other cached copy* before acknowledging;
  the releaser blocks until all of that completes;
* acquires are plain lock transfers -- no vector timestamps, no write
  notices (``uses_notices = False``), so acquire-side cost matches SC's
  cheap synchronization;
* the home tracks the copyset (who fetched the block) to know whom to
  invalidate.

The classic trade-off versus LRC: eager releases pay for invalidating
copies that may never be read again, and the release critical path
grows with the copyset -- which is exactly why the LRC protocols the
paper evaluates became the norm.  ``bench_erc_vs_lrc`` quantifies it.

Concurrent writers under different locks are preserved the Munin way:
an invalidation arriving at a node holding a *dirty* copy piggybacks
that node's diff on the acknowledgement; the home merges it, so no
write is ever lost.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Set

from repro.core.hlrc import HomeDiffMixin
from repro.core.protocol import register
from repro.memory.access_control import INV, RO
from repro.net.message import HEADER_BYTES, Message
from repro.sim.process import CountdownLatch


@register
class ERCProtocol(HomeDiffMixin):
    """Faults, twins, diffs and the fetch service come from
    :class:`~repro.core.hlrc.HomeDiffMixin`, with no clocks; this class
    adds the home's copyset, the eager release and the fences that keep
    faults and fetches consistent with its invalidations."""

    name = "erc"
    memory_model = "lrc"
    uses_notices = False
    touch_on_load = False  # stores migrate homes, as for the LRC protocols

    def __init__(self, machine):
        super().__init__(machine)
        self.dirty: List[Set[int]] = [set() for _ in range(machine.params.n_nodes)]
        #: home-side copyset per block: nodes holding a cached copy
        self.copyset: Dict[int, Set[int]] = {}
        #: (node, block) faults in flight + those an inval raced past
        self._inflight: Set[tuple] = set()
        self._poisoned: Set[tuple] = set()
        #: home-side open invalidation transactions per block, and the
        #: fetch requests parked until they close (see _serve_fetch)
        self._storms: Dict[int, int] = {}
        self._parked: Dict[int, List[Message]] = {}

    def _register_handlers(self) -> None:
        self._register_common()
        self._handlers.update(
            {
                "fetch_req": self._h_fetch_req,
                "fetch_reply": self._h_generic_ack,
                "erc_flush": self._h_flush,
                "erc_flush_ack": self._h_flush_ack,
                "erc_inval": self._h_inval,
                "erc_inval_ack": self._h_inval_ack,
            }
        )

    # ==================================================================
    # faults (app context): fenced against release-time invalidations
    # ==================================================================
    def _base_copy(self, node, block: int) -> Generator:
        key = (node.id, block)
        while True:
            self._poisoned.discard(key)
            self._inflight.add(key)
            if node.access.tag(block) == INV:
                # The plain fetch: this loop fences it and the twin.
                yield from super()._fetch(node, block, RO)
            yield from self._twin(node, block)
            self._inflight.discard(key)
            if key not in self._poisoned:
                return
            # A release-time invalidation raced our fetch/twin: our base
            # copy is stale.  Drop it and retry on the fresh home
            # contents (the invalidation's piggyback already carried
            # away nothing -- we had not written yet).
            self._poisoned.discard(key)
            self.twins[node.id].pop(block, None)
            node.access.invalidate(block)

    def _fetch(self, node, block: int, tag: int) -> Generator:
        """A read miss's fetch, fenced against a racing invalidation."""
        key = (node.id, block)
        self._poisoned.discard(key)
        self._inflight.add(key)
        yield from super()._fetch(node, block, tag)
        self._inflight.discard(key)
        if key in self._poisoned:
            # The copy we fetched was snapshotted before a diff that the
            # racing invalidation covers: usable for the access that
            # faulted, but not cacheable.
            self._poisoned.discard(key)
            self.engine.post(0.0, self._late_invalidate, node, block)

    def _late_invalidate(self, node, block: int) -> None:
        if node.access.invalidate(block):
            self.stats.invalidations += 1

    # ==================================================================
    # the eager release (app context)
    # ==================================================================
    def release_prepare(self, node) -> Generator:
        dirty = self.dirty[node.id]
        if not dirty:
            return
        pending = []
        for block in sorted(dirty):
            if self._is_home(node.id, block):
                # Master copy current; invalidate remote copies directly.
                node.access.set_tag(block, RO)
                pending.append((block, None))
                continue
            twin = self.twins[node.id].pop(block, None)
            if twin is None:
                # Our changes were already merged by a piggybacked ack.
                continue
            diff = yield from self._diff(node, block, twin)
            # Downgrade, never upgrade: a concurrent release's
            # invalidation may have dropped our tag during the
            # diff-create sleep, and re-opening it would leave a stale
            # readable copy.
            node.access.downgrade(block)
            if diff is not None:
                pending.append((block, diff))
        dirty.clear()
        if not pending:
            return
        latch = CountdownLatch(self.engine, len(pending))
        for block, diff in pending:
            home_id = self.home.home_or_static(block)
            if home_id == node.id:
                # Run the home-side invalidation storm locally.
                self._invalidate_copies(self.m.nodes[node.id], block,
                                        node.id, latch)
            else:
                self.send(
                    node.id, home_id, "erc_flush",
                    size=HEADER_BYTES + (diff.wire_bytes if diff else 0),
                    block=block,
                    payload={"diff": diff, "latch": latch, "writer": node.id},
                    cost=self._diff_apply_cost(diff.payload_bytes if diff else 0),
                )
        yield from node.wait(latch, "fault_wait_us")

    # ==================================================================
    # handlers
    # ==================================================================
    def _serve_fetch(self, node, msg: Message) -> None:
        block = msg.block
        if self._storms.get(block):
            # An eager-release invalidation transaction is open for this
            # block: a snapshot taken now could miss a concurrent
            # writer's piggybacked diff that merges before the storm
            # closes, and nothing would ever invalidate the requester's
            # copy.  Park the request until the storm completes.
            self._parked.setdefault(block, []).append(msg)
            return
        requester, _ = self.requester_of(msg)
        self.copyset.setdefault(block, set()).add(requester)
        super()._serve_fetch(node, msg)

    def _h_flush(self, node, msg: Message) -> None:
        """Home: apply the writer's diff, then eagerly invalidate every
        other cached copy before acknowledging the release."""
        payload = msg.payload
        if payload["diff"] is not None:
            self._apply_diff(node, msg.block, payload["diff"])
        self._invalidate_copies(node, msg.block, payload["writer"],
                                payload["latch"], remote_ack=msg.src)

    def _invalidate_copies(self, home_node, block: int, writer: int,
                           latch: CountdownLatch, remote_ack: int = None
                           ) -> None:
        # Open an invalidation transaction: fetches of this block park
        # until it closes (_release_ack), so no node can cache a
        # mid-storm snapshot that a piggybacked diff then invalidates
        # behind its back.
        self._storms[block] = self._storms.get(block, 0) + 1
        targets = [
            c for c in sorted(self.copyset.get(block, ()))
            if c not in (writer, home_node.id)
        ]
        self.copyset[block] = {writer}
        if not targets:
            self._release_ack(home_node, block, latch, remote_ack, False)
            return
        # Shared transaction context: counts acks and remembers whether
        # any of them piggybacked a concurrent writer's diff -- in that
        # case the releaser's own copy is missing those merged writes
        # and must be invalidated too.
        ctx = {"remaining": len(targets), "stale": False,
               "home_node": home_node, "block": block, "latch": latch,
               "remote_ack": remote_ack}
        for t in targets:
            self.send(
                home_node.id, t, "erc_inval",
                block=block,
                payload={"ctx": ctx, "home": home_node.id},
                cost=self.params.handler_base_us + self.params.tag_change_us,
            )

    def _release_ack(self, home_node, block: int, latch: CountdownLatch,
                     remote_ack, stale: bool) -> None:
        if remote_ack is None:
            # The releaser is the home; its master copy absorbed every
            # piggybacked diff, so it is never stale.
            latch.hit()
        else:
            if stale:
                self.copyset[block] = set()
            self.send(home_node.id, remote_ack, "erc_flush_ack",
                      block=block, payload={"latch": latch, "stale": stale})
        # Close the transaction; serve fetches parked behind it (they
        # now snapshot the fully merged home copy).
        remaining = self._storms[block] - 1
        if remaining:
            self._storms[block] = remaining
            return
        del self._storms[block]
        for parked in self._parked.pop(block, ()):
            self._h_fetch_req(home_node, parked)

    def _h_flush_ack(self, node, msg: Message) -> None:
        if msg.payload["stale"]:
            # A concurrent writer's diff merged at the home during our
            # release: our cached copy lacks it.
            if node.access.invalidate(msg.block):
                self.stats.invalidations += 1
        msg.payload["latch"].hit()

    def _h_inval(self, node, msg: Message) -> None:
        """Invalidate our copy; if it is dirty, piggyback our diff on
        the ack so no concurrent writer's data is lost (Munin merge)."""
        block = msg.block
        key = (node.id, block)
        if key in self._inflight:
            self._poisoned.add(key)
        piggy = None
        twin = self.twins[node.id].pop(block, None)
        if twin is not None:
            piggy = self._take_diff(node, block, twin)
            self.dirty[node.id].discard(block)
        if node.access.invalidate(block):
            self.stats.invalidations += 1
        size = HEADER_BYTES + (piggy.wire_bytes if piggy else 0)
        self.send(
            node.id, msg.src, "erc_inval_ack",
            size=size,
            block=block,
            payload={"ctx": msg.payload["ctx"], "diff": piggy},
            cost=self.params.handler_base_us
            + (self.params.diff_apply_per_byte_us * piggy.payload_bytes
               if piggy else 0.0),
        )

    def _h_inval_ack(self, node, msg: Message) -> None:
        ctx = msg.payload["ctx"]
        piggy = msg.payload["diff"]
        if piggy is not None:
            self._apply_diff(node, msg.block, piggy)
            ctx["stale"] = True
        ctx["remaining"] -= 1
        if ctx["remaining"] == 0:
            self._release_ack(ctx["home_node"], ctx["block"], ctx["latch"],
                              ctx["remote_ack"], ctx["stale"])
