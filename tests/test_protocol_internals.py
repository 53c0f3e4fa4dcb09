"""White-box tests of protocol internals: home routing and forwarding,
runtime first-touch migration, the SC recall/poison machinery, and the
HLRC/SW-LRC state tables."""

import random
from collections import deque

import pytest

import repro.core.protocol
import repro.sync.locks
from repro import Machine, MachineParams, run_program
from repro.apps import make_app
from repro.core.registry import available_protocols
from repro.core.timestamps import VectorClock, WriteNotice
from repro.memory.access_control import INV, RO, RW, AccessControl


def make(protocol, g=1024, n=4):
    return Machine(MachineParams(n_nodes=n, granularity=g), protocol=protocol)


class TestFirstTouchMigration:
    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc"])
    def test_store_claims_home_for_toucher(self, protocol):
        """An unplaced block's home migrates to the first storer."""
        m = make(protocol)
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        # Pick a writer that is NOT the static home so the migration
        # actually moves the block.
        static = m.home.static_home(block)
        writer = (static + 1) % 4

        def program(dsm, rank, nprocs):
            if rank == writer:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.home.home(block) == writer
        assert m.home.migrations >= 1

    def test_sc_load_claims_home(self):
        """Under SC a load is a touch (Section 2)."""
        m = make("sc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        reader = (static + 2) % 4

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.home.home(block) == reader

    def test_hlrc_load_does_not_claim_for_reader(self):
        """Under HLRC only a store migrates; a load leaves the block at
        its static home."""
        m = make("hlrc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        reader = (static + 2) % 4

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.home.home(block) == static

    def test_claim_from_remote_static_home_costs_messages(self):
        m = make("hlrc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        writer = (static + 1) % 4

        def program(dsm, rank, nprocs):
            if rank == writer:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        assert r.stats.msg_count["home_claim"] == 1


class TestForwarding:
    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc"])
    def test_stale_route_forwarded_and_learned(self, protocol):
        """A requester without a cached home hint sends to the static
        home; if the block migrated, the request is forwarded once and
        the requester learns the real home."""
        m = make(protocol)
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        owner = (static + 1) % 4
        reader = (static + 2) % 4
        m.place(seg.base, 1024, owner)  # migrated away from static

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        assert r.stats.forwarded_requests >= 1
        assert m.home.cached_home(reader, block) == owner

    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc", "tardis"])
    def test_forward_carries_origin_and_reply_skips_forwarder(self, protocol):
        """A forwarded request names its first sender in ``origin``
        (the payload is passed through unwrapped), and the reply goes
        from the real home straight back to that sender."""
        from repro.hooks import Hooks

        m = make(protocol)
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        owner = (static + 1) % 4
        reader = (static + 2) % 4
        m.place(seg.base, 1024, owner)
        sent = []

        class Record(Hooks):
            def on_send(self, msg):
                sent.append(msg)

        m.add_hooks(Record())

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        forwarded = [x for x in sent if x.origin >= 0]
        assert len(forwarded) == r.stats.forwarded_requests >= 1
        for fwd in forwarded:
            assert fwd.origin == reader and fwd.src == static
            assert fwd.dst == owner and fwd.block == block
            assert not isinstance(fwd.payload, dict) or "inner" not in fwd.payload
            assert any(x.src == owner and x.dst == reader and x.reply_to is fwd.reply_to
                       for x in sent)
        assert all(x.origin == -1 for x in sent if x not in forwarded)

    def test_requester_of_reads_origin(self):
        from repro.core.protocol import CoherenceProtocol
        from repro.net.message import Message

        payload = {"k": 1}
        direct = Message(2, 0, "read_req", 24, 5, payload)
        assert CoherenceProtocol.requester_of(direct) == (2, payload)
        fwd = Message(1, 0, "read_req", 24, 5, payload, origin=3)
        assert CoherenceProtocol.requester_of(fwd) == (3, payload)

    def test_second_request_goes_direct(self):
        m = make("hlrc")
        seg = m.alloc(8192, "x")
        block = seg.base // 1024
        static = m.home.static_home(block)
        owner = (static + 1) % 4
        reader = (static + 2) % 4
        m.place(seg.base, 1024, owner)

        def program(dsm, rank, nprocs):
            if rank == reader:
                yield from dsm.touch_read(seg.base, 64)
                # Invalidate locally, then re-fetch: no second forward.
                m.nodes[reader].access.invalidate(block)
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        assert r.stats.forwarded_requests == 1


class TestSCInternals:
    def test_directory_tracks_owner_and_sharers(self):
        m = make("sc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        e = m.protocol.dir[block]
        assert e.owner == 2
        assert e.sharers == set()
        # The old reader's tag was invalidated.
        assert m.nodes[1].access.tag(block) == INV
        assert m.nodes[2].access.tag(block) == RW

    def test_recall_downgrades_owner_on_remote_read(self):
        m = make("sc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(1, participants=nprocs)

        r = run_program(m, program, nprocs=4)
        # Owner 1 was recalled to read-only; both are sharers now.
        assert m.nodes[1].access.tag(block) == RO
        assert m.nodes[2].access.tag(block) == RO
        assert m.protocol.dir[block].owner is None
        assert {1, 2} <= m.protocol.dir[block].sharers
        assert r.stats.writebacks >= 1

    def test_no_stale_protocol_state_leaks(self):
        """After a quiescent run, no in-flight or deferred entries
        remain in the SC bookkeeping."""
        m = make("sc", g=256)
        seg = m.alloc(4096, "x")

        def program(dsm, rank, nprocs):
            yield from dsm.touch_write(seg.base + rank * 1024, 512,
                                       pattern=rank + 1)
            yield from dsm.barrier(0, participants=nprocs)
            yield from dsm.touch_read(seg.base, 4096)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert m.protocol._inflight == set()
        assert m.protocol._poisoned == set()
        assert m.protocol._deferred_recalls == {}
        for e in m.protocol.dir.values():
            assert not e.busy
            assert not e.pending


# ----------------------------------------------------------------------
# per-block state: hints are notices, wait queues exist only when used
# ----------------------------------------------------------------------
class _Queue(deque):
    """A wait queue that keeps every request appended to it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.appended = []

    def append(self, item):
        self.appended.append(item)
        super().append(item)


#: where wait queues are built: every home entry's (HomeEntry) and the
#: lock holders'
_QUEUE_MODULES = (repro.core.protocol, repro.sync.locks)

#: the home-side per-block table of each protocol with wait queues
_HOME_TABLES = {"sc": "dir", "swlrc": "owners", "tardis": "entries"}


def _barnes64(protocol, n=4):
    """A tiny barnes-original machine at 64 B blocks, set up, not run."""
    app = make_app("barnes-original", scale="tiny")
    m = make(protocol, g=64, n=n)
    app.setup(m)
    return m, app


class TestPerBlockState:
    def test_hints_are_released_notices(self):
        """Every SW-LRC hint is the very notice a release closed, never a
        copy of its fields."""
        m, app = _barnes64("swlrc")
        proto = m.protocol
        released = []
        close = proto.ilog.close_interval

        def recording(node, notices):
            released.extend(notices)
            return close(node, notices)

        proto.ilog.close_interval = recording
        run_program(m, app.program, nprocs=4)
        ids = {id(wn) for wn in released}
        hints = [wn for table in proto.hint for wn in table.values()]
        assert hints
        for wn in hints:
            assert type(wn) is WriteNotice and id(wn) in ids

    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc", "tardis"])
    def test_no_queue_without_a_queued_request(self, protocol, monkeypatch):
        """Home entries and lock holders hold a wait queue only once a
        request queued on it."""
        for module in _QUEUE_MODULES:
            monkeypatch.setattr(module, "deque", _Queue)
        m, app = _barnes64(protocol)
        run_program(m, app.program, nprocs=4)
        table = getattr(m.protocol, _HOME_TABLES[protocol]) \
            if protocol in _HOME_TABLES else {}
        for e in table.values():
            assert e.pending is None or e.pending.appended
        for st in m.locks._holder.values():
            assert st.waiters is None or st.waiters.appended

    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "tardis"])
    def test_queued_requests_drain_fifo(self, protocol, monkeypatch):
        """Requests that queue on a busy home entry start in the order
        they queued, and every one of them starts."""
        monkeypatch.setattr(repro.core.protocol, "deque", _Queue)
        m = make(protocol, g=64)
        seg = m.alloc(64, "x")
        m.place(seg.base, 64, 0)
        proto = m.protocol
        started = []
        starts = {"sc": ("_start",), "swlrc": ("_start_own",),
                  "tardis": ("_start",)}[protocol]
        for name in starts:
            def recording(node, msg, e, _start=getattr(proto, name)):
                started.append(msg)
                return _start(node, msg, e)

            setattr(proto, name, recording)

        def program(dsm, rank, nprocs):
            for r in range(3):
                yield from dsm.touch_write(seg.base, 8, pattern=rank + 1)
                yield from dsm.barrier(r, participants=nprocs)

        run_program(m, program, nprocs=4)
        queues = [e.pending for e in getattr(proto, _HOME_TABLES[protocol]).values()
                  if e.pending is not None]
        assert sum(len(q.appended) for q in queues) > 1
        first_starts = list({id(msg): msg for msg in reversed(started)}.values())
        first_starts.reverse()
        for q in queues:
            assert not q
            queued = {id(msg) for msg in q.appended}
            assert [msg for msg in first_starts if id(msg) in queued] == q.appended

    def test_lock_waiters_grant_in_request_order(self):
        """Successors queued on a holder are granted in the manager's
        sequence order."""
        m = make("hlrc", g=64)
        seg = m.alloc(64, "x")
        granted = []
        grant = m.locks._grant

        def recording(from_node, lock_id, requester, vt, fut, seq):
            granted.append(seq)
            return grant(from_node, lock_id, requester, vt, fut, seq)

        m.locks._grant = recording

        def program(dsm, rank, nprocs):
            for _ in range(3):
                yield from dsm.acquire(1)
                yield from dsm.touch_write(seg.base, 8, pattern=rank + 1)
                yield from dsm.compute(50.0)
                yield from dsm.release(1)

        run_program(m, program, nprocs=4)
        waiters = [st.waiters for st in m.locks._holder.values()
                   if st.waiters is not None]
        assert sum(len(q) for q in waiters) == 0 and waiters
        assert sorted(granted) == granted == list(range(2, 13))


class TestSWLRCInternals:
    def test_hint_points_at_freshest_writer(self):
        m = make("swlrc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            # Writers 1 then 2, serialized by the lock.
            if rank in (1, 2):
                yield from dsm.compute(100.0 * rank)
                yield from dsm.acquire(9)
                yield from dsm.touch_write(seg.base, 64, pattern=rank)
                yield from dsm.release(9)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 3:
                yield from dsm.acquire(9)
                yield from dsm.release(9)
                yield from dsm.touch_read(seg.base, 64)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        proto = m.protocol
        # Rank 3's hint is the last writer's (2) notice, the top version.
        hint = proto.hint[3].get(block)
        assert hint is not None and hint.owner == 2

    def test_owner_set_consistent_with_directory(self):
        m = make("swlrc", g=4096)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)
        block = seg.base // 4096

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 64, pattern=1)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                yield from dsm.touch_write(seg.base + 100, 64, pattern=2)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=4)
        proto = m.protocol
        assert proto.owners[block].owner == 2
        assert block in proto.owned[2]
        assert block not in proto.owned[1]


class TestHLRCInternals:
    def test_no_twins_left_after_quiescence(self):
        m = make("hlrc", g=1024)
        seg = m.alloc(4096, "x")
        m.place(seg.base, 4096, 0)

        def program(dsm, rank, nprocs):
            if rank == 1:
                yield from dsm.touch_write(seg.base, 2048, pattern=7)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        assert all(not t for t in m.protocol.twins)
        assert all(not d for d in m.protocol.dirty)

    def test_vector_clocks_converge_at_barrier(self):
        m = make("hlrc", g=1024)
        seg = m.alloc(8192, "x")

        def program(dsm, rank, nprocs):
            yield from dsm.touch_write(seg.base + rank * 2048, 128,
                                       pattern=rank + 1)
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        vts = {m.protocol.vt[i].as_tuple() for i in range(4)}
        assert len(vts) == 1  # everyone merged to the same clock


# ----------------------------------------------------------------------
# setup-time placement
# ----------------------------------------------------------------------
#: overlapping placements: a partial re-placement, a re-placement to the
#: same node and an unaligned region straddling earlier ones
_PLACEMENTS = ((0, 1024, 1), (512, 1024, 2), (768, 256, 2), (256, 300, 0))


def _sweep_place(m, addr, size, node):
    """The all-node sweep ``Machine.place`` used to run: every node but
    the new home loses its tag, ownership and lease.  The reference."""
    p = m.protocol
    m.home.place_region(addr, size, node)
    g = m.params.granularity
    for b in range(addr // g, (addr + size - 1) // g + 1):
        for n in m.nodes:
            if n.id == node:
                continue
            n.access.invalidate(b)
            if hasattr(p, "_owned"):
                p._owned.discard((n.id, b))
            if hasattr(p, "owned"):
                p.owned[n.id].discard(b)
            if hasattr(p, "lease"):
                p.lease[n.id].pop(b, None)
        p.on_place(b, node, None)


def _placement_state(m):
    p = m.protocol
    return {
        "tags": [list(n.access.blocks_with_access()) for n in m.nodes],
        "sc_owned": sorted(getattr(p, "_owned", ())),
        "owned": [sorted(s) for s in getattr(p, "owned", ())],
        "lease": [sorted(d.items()) for d in getattr(p, "lease", ())],
        "homes": sorted(m.home._home.items()),
    }


class TestPlacement:
    @pytest.mark.parametrize("protocol", available_protocols())
    def test_replacement_revokes_like_the_all_node_sweep(self, protocol):
        fast, ref = make(protocol, g=256), make(protocol, g=256)
        seg = fast.alloc(2048, "x")
        assert ref.alloc(2048, "x").base == seg.base
        for off, size, node in _PLACEMENTS:
            fast.place(seg.base + off, size, node)
            _sweep_place(ref, seg.base + off, size, node)
            assert _placement_state(fast) == _placement_state(ref)
        # the unaligned last placement moved block 1 away from node 1,
        # which placed it first, to node 0: only node 0 holds a tag
        block = seg.base // 256 + 1
        holders = [n.id for n in fast.nodes
                   if any(b == block for b, _ in n.access.blocks_with_access())]
        assert holders == [0]

    def test_place_after_run_raises(self):
        m = make("hlrc")
        seg = m.alloc(1024, "x")
        m.place(seg.base, 1024, 1)

        def program(dsm, rank, nprocs):
            yield from dsm.barrier(0, participants=nprocs)

        run_program(m, program, nprocs=4)
        with pytest.raises(RuntimeError, match="place"):
            m.place(seg.base, 1024, 2)


# ----------------------------------------------------------------------
# notice plans: one notice per block instead of the per-notice loop
# ----------------------------------------------------------------------
def _swlrc_notice_loop(proto, node, notices):
    """The per-notice SW-LRC loop the notice plan replaced: the oracle."""
    nid = node.id
    for wn in notices:
        if wn.owner == nid:
            continue
        cur = proto.hint[nid].get(wn.block)
        if cur is None or wn.version > cur.version:
            proto.hint[nid][wn.block] = wn
        my_version = proto.version[nid].get(wn.block)
        if my_version is not None and my_version >= wn.version:
            continue
        proto.owned[nid].discard(wn.block)
        if node.access.invalidate(wn.block):
            proto.stats.invalidations += 1
            proto.version[nid].pop(wn.block, None)
    return
    yield  # pragma: no cover - generator protocol


def _hlrc_notice_loop(proto, node, notices):
    """The per-notice HLRC loop the notice plan replaced: the oracle."""
    nid = node.id
    for wn in notices:
        if wn.owner == nid or proto._is_home(nid, wn.block):
            continue
        if wn.block in proto.twins[nid]:
            yield from proto._flush_one(node, wn.block)
        if node.access.invalidate(wn.block):
            proto.stats.invalidations += 1


_NOTICE_LOOPS = {"swlrc": _swlrc_notice_loop, "hlrc": _hlrc_notice_loop}


class TestNoticePlan:
    N, G, BLOCKS, RECEIVER = 4, 64, 24, 1

    def _machine(self, protocol, seed):
        """A machine whose receiver holds a random mix of tags, versions,
        hints, ownership and twins; flushes are recorded, not sent."""
        m = make(protocol, g=self.G, n=self.N)
        seg = m.alloc(self.BLOCKS * self.G, "x")
        p, nid = m.protocol, self.RECEIVER
        node = m.nodes[nid]
        rng = random.Random(seed)
        blocks = [seg.base // self.G + k for k in range(self.BLOCKS)]
        for b in blocks:
            tag = rng.choice((INV, RO, RW))
            if tag != INV:
                node.access.set_tag(b, tag)
            if protocol == "swlrc":
                if rng.random() < 0.6:
                    p.version[nid][b] = rng.randint(1, 6)
                if rng.random() < 0.5:
                    p.hint[nid][b] = WriteNotice(
                        b, rng.randint(1, 6), rng.randrange(self.N))
                if tag == RW:
                    p.owned[nid].add(b)
            elif tag == RW:
                p.twins[nid][b] = None
        flushed = []

        def record_flush(node, block):
            flushed.append(block)
            del p.twins[node.id][block]
            return
            yield  # pragma: no cover - generator protocol

        p._flush_one = record_flush
        return m, blocks, flushed

    def _close_intervals(self, proto, blocks, seed, own):
        """Close intervals holding 40 random notices, with repeated
        blocks and several writers (the receiver among them only if
        ``own``), into ``proto``'s log; returns every node's count."""
        rng = random.Random(seed + 1000)
        owners = [o for o in range(self.N) if own or o != self.RECEIVER]
        by_owner = {o: [[]] for o in owners}
        for _ in range(40):
            owner = rng.choice(owners)
            block = rng.choice(blocks[: self.BLOCKS // 2] + blocks)
            intervals = by_owner[owner]
            if any(wn.block == block for wn in intervals[-1]):
                intervals.append([])  # one notice per block per interval
            intervals[-1].append(WriteNotice(block, rng.randint(1, 7), owner))
        for owner, intervals in by_owner.items():
            for iv in filter(None, intervals):
                proto.ilog.close_interval(
                    owner, sorted(iv, key=lambda wn: wn.block))
        return [proto.ilog.intervals_of(o) for o in range(self.N)]

    @staticmethod
    def _state(m, blocks, flushed):
        p, nid = m.protocol, TestNoticePlan.RECEIVER
        state = {
            "tags": [m.nodes[nid].access.tag(b) for b in blocks],
            "invalidations": p.stats.invalidations,
        }
        if p.name == "swlrc":
            state.update(hint=dict(p.hint[nid]), version=dict(p.version[nid]),
                         owned=set(p.owned[nid]))
        else:
            state.update(flushed=list(flushed), twins=sorted(p.twins[nid]))
        return state

    @staticmethod
    def _drain(gen):
        for _ in gen:
            pass

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("path", ["grant", "barrier"])
    def test_plan_matches_per_notice_loop(self, protocol, seed, path):
        plan_m, blocks, plan_flushed = self._machine(protocol, seed)
        loop_m, _, loop_flushed = self._machine(protocol, seed)
        proto, nid = plan_m.protocol, self.RECEIVER
        counts = self._close_intervals(proto, blocks, seed,
                                       own=path == "grant")
        if path == "grant":  # the granter has seen every interval
            granter = (nid + 1) % self.N
            proto.vt[granter].assign(counts)
            payload, _ = proto.grant_payload(granter, (0,) * self.N, nid)
        else:  # every writer arrives having seen all; the receiver none
            vts = {o: VectorClock.of(counts, own=o)
                   for o in range(self.N) if counts[o]}
            vts[nid] = VectorClock(self.N, own=nid)
            payload, _ = proto.barrier_payloads(vts)[nid]
        notices = payload["notices"]
        assert len({wn.block for wn in notices}) < len(notices)  # repeats
        assert any(wn.owner == nid for wn in notices) == (path == "grant")
        self._drain(proto.apply_sync(plan_m.nodes[nid], payload))
        self._drain(_NOTICE_LOOPS[protocol](
            loop_m.protocol, loop_m.nodes[nid], notices))
        want = self._state(loop_m, blocks, loop_flushed)
        assert self._state(plan_m, blocks, plan_flushed) == want
        assert want["invalidations"] > 0
        if protocol == "hlrc":
            assert want["flushed"]

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_unheld_blocks_are_never_invalidated(self, protocol, monkeypatch):
        """A receiver holding none of 1,000 noticed blocks (but other
        blocks) calls ``AccessControl.invalidate`` zero times."""
        m = make(protocol, g=self.G, n=self.N)
        proto, nid, writer = m.protocol, self.RECEIVER, 0
        proto.ilog.close_interval(
            writer, [WriteNotice(b, 1, writer) for b in range(1000)])
        node = m.nodes[nid]
        node.access.set_tag(5000, RO)  # held, but not noticed
        vts = {writer: VectorClock.of([1] + [0] * (self.N - 1), own=writer),
               nid: VectorClock(self.N, own=nid)}
        payload, runs = proto.barrier_payloads(vts)[nid]
        assert (len(payload["notices"]), runs) == (1000, 1)
        calls = []
        invalidate = AccessControl.invalidate

        def counting(access, block):
            calls.append(block)
            return invalidate(access, block)

        monkeypatch.setattr(AccessControl, "invalidate", counting)
        self._drain(proto.apply_sync(node, payload))
        assert calls == []
        assert proto.stats.write_notices_applied == 1000
        assert proto.stats.invalidations == 0
        assert node.access.tag(5000) == RO
