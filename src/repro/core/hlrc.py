"""Home-based Lazy Release Consistency (paper Section 2.3).

Multiple concurrent writers are supported through twins and diffs:

* the first write to a block in an interval snapshots a *twin*;
* at release, the dirty copy is compared against the twin and the
  changed runs (the *diff*) are **eagerly sent to the block's home**
  and applied there, keeping the home copy up to date;
* a miss fetches the **whole block** from the home (one round trip);
* write notices propagate with synchronization; at acquire, noticed
  blocks are invalidated unless the node is the writer or the block's
  home (whose copy is always current).

The release waits for diff acknowledgements, which is what makes
synchronization expensive under HLRC -- the effect that dominates
Barnes-Original in Section 5.2.2.

A node that receives a notice for a block it has *dirty* (concurrent
writers under different locks) flushes its own diff before
invalidating, so no local writes are ever lost; the block stays in the
interval's dirty set so the next release still advertises it.

Everything but the release and the notices -- faults, twins, diffs and
the home's fetch service -- is :class:`HomeDiffMixin`, which ERC
shares.  It calls :func:`create_diff` / :func:`apply_diff` through this
module, the names the cell benchmark's span timer wraps for the diff
layer.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, List, Optional, Set

from repro.core.diff import Diff, apply_diff, create_diff
from repro.core.lrc_base import LRCBase
from repro.core.protocol import CoherenceProtocol, register
from repro.core.timestamps import WriteNotice
from repro.memory.access_control import INV, RO, RW
from repro.net.message import HEADER_BYTES, Message
from repro.sim.process import CountdownLatch, Future


class HomeDiffMixin(CoherenceProtocol):
    """The home-based multiple-writer layer HLRC and ERC share: a miss
    fetches the whole block from its home, the home writes its master
    copy in place, and any other writer twins its clean copy and later
    ships the diff home.

    The protocols differ in what follows a release -- HLRC sends write
    notices that invalidate at the acquire, ERC's homes invalidate
    every other copy eagerly -- and ERC fences its faults and fetches
    against those invalidations by overriding :meth:`_fetch`,
    :meth:`_base_copy` and :meth:`_serve_fetch`.
    """

    #: per-node blocks written since the node's last release
    dirty: List[Set[int]]

    def __init__(self, machine):
        super().__init__(machine)
        #: per-node twins of blocks with unflushed modifications
        self.twins: List[Dict[int, bytearray]] = [
            dict() for _ in range(machine.params.n_nodes)
        ]

    # ==================================================================
    # faults (app context)
    # ==================================================================
    def read_fault(self, node, block: int) -> Generator:
        # Loads never claim a home; an unclaimed block is claimed by its
        # static home when the fetch arrives there.
        if self._is_home(node.id, block):
            self.stats.record_local_reopen(node.id)
            self.home.claim_first_touch(block, node.id)
            yield self.params.tag_change_us
            node.access.set_tag(block, RO)
            return
        self.stats.record_read_fault(node.id)
        yield from self._fetch(node, block, RO)

    def write_fault(self, node, block: int) -> Generator:
        yield from self.maybe_claim_first_touch(node.id, block, store=True)
        if self._is_home(node.id, block):
            # The home writes its master copy in place; no twin needed,
            # but the write must be advertised at the next release.
            # A cheap local re-open, not a protocol fault (Table 5
            # shows zero write faults for single-writer home data).
            self.stats.record_local_reopen(node.id)
            self.dirty[node.id].add(block)
            yield self.params.tag_change_us
            node.access.set_tag(block, RW)
            return
        self.stats.record_write_fault(node.id)
        yield from self._base_copy(node, block)
        self.dirty[node.id].add(block)
        node.access.set_tag(block, RW)
        yield self.params.tag_change_us

    def _base_copy(self, node, block: int) -> Generator:
        """A remote writer's clean copy, fetched if missing, and its
        twin."""
        if node.access.tag(block) == INV:
            yield from self._fetch(node, block, RO)
        yield from self._twin(node, block)

    def _twin(self, node, block: int) -> Generator:
        """Snapshot the clean copy before the interval's first write to
        it (a block twinned already keeps its twin)."""
        twins = self.twins[node.id]
        if block not in twins:
            twins[block] = node.store.snapshot(block)
            self.stats.twins_created += 1
            p = self.params
            yield p.twin_fixed_us + p.twin_per_byte_us * p.granularity

    def _fetch(self, node, block: int, tag: int) -> Generator:
        """Whole-block fetch from the home."""
        fut = Future(self.engine)
        self.send(
            node.id,
            self.route_home(node.id, block),
            "fetch_req",
            block=block,
            reply_to=fut,
        )
        reply = yield from node.wait(fut, "fault_wait_us")
        self.home.learn(node.id, block, reply["home"])
        node.store.install(block, reply["data"])
        node.access.set_tag(block, tag)

    # ==================================================================
    # diffs
    # ==================================================================
    def _diff(self, node, block: int, twin) -> Generator:
        """Diff the node's copy of ``block`` against ``twin``, charging
        the compare; returns the diff, or None when nothing changed."""
        diff = self._take_diff(node, block, twin)
        p = self.params
        yield p.diff_create_fixed_us + p.diff_create_per_byte_us * p.granularity
        return diff

    def _take_diff(self, node, block: int, twin) -> Optional[Diff]:
        """The counted diff of the node's copy of ``block`` against
        ``twin``, or None when nothing changed.  Charges no time: a
        handler's piggybacked diff rides on its message's cost."""
        diff = create_diff(block, node.store.block(block), twin)
        self.stats.diffs_created += 1
        if diff.empty:
            return None
        self.stats.diff_bytes += diff.payload_bytes
        return diff

    def _diff_apply_cost(self, nbytes: int) -> float:
        """Home handler cost of a diff message carrying ``nbytes`` of
        changed data."""
        p = self.params
        return (p.handler_base_us + p.diff_apply_fixed_us
                + p.diff_apply_per_byte_us * nbytes)

    def _apply_diff(self, node, block: int, diff: Diff) -> None:
        """Merge a writer's diff into this node's copy of ``block``."""
        apply_diff(node.store.block(block), diff)
        self.stats.diffs_applied += 1

    # ==================================================================
    # the home's fetch service (handler context)
    # ==================================================================
    def _h_fetch_req(self, node, msg: Message) -> None:
        block = msg.block
        if not self.home.is_claimed(block):
            # First (load) touch lands at the static home, which keeps
            # the block (reads do not migrate homes).
            if self.home.static_home(block) == node.id:
                self.home.claim_first_touch(block, node.id)
        if self.forward_if_not_home(node, msg):
            return
        self._serve_fetch(node, msg)

    def _serve_fetch(self, node, msg: Message) -> None:
        """The home replies with its whole copy of the block."""
        requester, _ = self.requester_of(msg)
        self.send(
            node.id,
            requester,
            "fetch_reply",
            size=HEADER_BYTES + self.params.granularity,
            block=msg.block,
            payload={"home": node.id, "data": node.store.snapshot(msg.block)},
            cost=self.data_reply_cost(),
            reply_to=msg.reply_to,
        )


@register
class HLRCProtocol(HomeDiffMixin, LRCBase):
    """Faults, twins, diffs and the fetch service come from
    :class:`HomeDiffMixin`; the home's copy starts
    readable but write-protected (the base ``on_place``), so its own
    writes are detected (dirty set -> notices)."""

    name = "hlrc"

    def __init__(self, machine):
        super().__init__(machine)
        #: per-node interval counter per block (notice versions)
        self._epoch: List[Dict[int, int]] = [
            dict() for _ in range(machine.params.n_nodes)
        ]

    def _register_handlers(self) -> None:
        self._register_common()
        self._handlers.update(
            {
                "fetch_req": self._h_fetch_req,
                "fetch_reply": self._h_generic_ack,
                "diff": self._h_diff,
                "diff_ack": self._h_diff_ack,
            }
        )

    # ==================================================================
    # release: eager diff flush (app context)
    # ==================================================================
    def _release_flush(self, node) -> Generator:
        notices: List[WriteNotice] = []
        dirty = self.dirty[node.id]
        if not dirty:
            return notices
        pending_sends = []
        for block in sorted(dirty):
            epoch = self._epoch[node.id].get(block, 0) + 1
            self._epoch[node.id][block] = epoch
            if self._is_home(node.id, block):
                # Master copy already current; just advertise.  Dropping
                # back to RO makes the next interval's writes fault again
                # so they too are advertised.
                notices.append(WriteNotice(block, epoch, node.id))
                node.access.set_tag(block, RO)
                continue
            twin = self.twins[node.id].pop(block, None)
            if twin is None:
                # Already flushed early by a notice during this interval;
                # the notice list must still cover it.
                notices.append(WriteNotice(block, epoch, node.id))
                continue
            diff = yield from self._diff(node, block, twin)
            if diff is not None:
                # (An unchanged block needs no one's invalidation.)
                pending_sends.append((block, diff))
                notices.append(WriteNotice(block, epoch, node.id))
            node.access.set_tag(block, RO)
        if pending_sends:
            latch = CountdownLatch(self.engine, len(pending_sends))
            for block, diff in pending_sends:
                self._send_diff(node, block, diff, latch)
            yield from node.wait(latch, "fault_wait_us")
        dirty.clear()
        return notices

    def _send_diff(self, node, block: int, diff: Diff, ack) -> None:
        """Ship a diff to the block's home; ``ack`` (a latch or a
        future) completes when the home has applied it."""
        self.send(
            node.id,
            self.route_home(node.id, block),
            "diff",
            size=HEADER_BYTES + diff.wire_bytes,
            block=block,
            payload={"diff": diff, "ack": ack},
            cost=self._diff_apply_cost(diff.payload_bytes),
        )

    # ==================================================================
    # notice application (app context, from apply_sync)
    # ==================================================================
    def _apply_notices(self, node, plan) -> Generator:
        # One notice per block (see LRCBase).  Only a held copy -- a
        # readable one, or a twin of a concurrent writer under a
        # different lock -- can be flushed or invalidated.  The home's
        # copy absorbed the writer's diff eagerly and is current by
        # construction; a twin's modifications are flushed before the
        # invalidation.  Flushes wait for acks, so when any occurs the
        # targets run in plan order; otherwise nothing yields and each
        # block's outcome is independent of the others'.
        nid = node.id
        twins = self.twins[nid]
        held = node.access.readable_among(plan.keys())
        targets: Iterable[int] = held
        if twins:
            flushes = plan.keys() & twins.keys()
            if flushes:
                held |= flushes
                targets = list(filter(held.__contains__, plan))
        is_home = self._is_home
        invalidate = node.access.invalidate
        stats = self.stats
        for block in targets:
            if is_home(nid, block):
                continue
            if block in twins:
                yield from self._flush_one(node, block)
            if invalidate(block):
                stats.invalidations += 1

    def _flush_one(self, node, block: int) -> Generator:
        twin = self.twins[node.id].pop(block)
        diff = yield from self._diff(node, block, twin)
        if diff is None:
            return
        fut = Future(self.engine)
        self._send_diff(node, block, diff, fut)
        yield from node.wait(fut, "fault_wait_us")

    # ==================================================================
    # handlers
    # ==================================================================
    def _h_diff(self, node, msg: Message) -> None:
        payload = msg.payload
        self._apply_diff(node, msg.block, payload["diff"])
        self.send(
            node.id,
            msg.src,
            "diff_ack",
            block=msg.block,
            payload={"ack": payload["ack"]},
        )

    @staticmethod
    def _h_diff_ack(node, msg: Message) -> None:
        ack = msg.payload["ack"]
        if isinstance(ack, CountdownLatch):
            ack.hit()
        else:
            ack.resolve(None)
