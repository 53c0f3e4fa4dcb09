"""Tests for vector clocks, intervals, and write notices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamps import (
    IntervalLog,
    VectorClock,
    WriteNotice,
    merge_plan,
)


class TestVectorClock:
    def test_starts_zero(self):
        vc = VectorClock(4)
        assert vc.as_tuple() == (0, 0, 0, 0)

    def test_tick_increments_own_component(self):
        vc = VectorClock(4)
        assert vc.tick(2) == 1
        assert vc.tick(2) == 2
        assert vc.as_tuple() == (0, 0, 2, 0)

    def test_merge_elementwise_max(self):
        a = VectorClock.of([1, 5, 2])
        a.merge((3, 1, 2))
        assert a.as_tuple() == (3, 5, 2)

    def test_assign_equals_merge_of_a_dominating_clock(self):
        a = VectorClock.of([1, 5, 2])
        merged = a.copy()
        merged.merge((3, 5, 4))
        a.assign((3, 5, 4))
        assert a.as_tuple() == merged.as_tuple() == (3, 5, 4)

    def test_copy_is_independent(self):
        a = VectorClock(3)
        b = a.copy()
        a.tick(0)
        assert b.as_tuple() == (0, 0, 0)

    def test_dominates(self):
        a = VectorClock.of([2, 3])
        assert a.dominates((2, 3))
        assert a.dominates((1, 0))
        assert not a.dominates((3, 0))

    @given(
        xs=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
        ys=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_produces_upper_bound(self, xs, ys):
        a = VectorClock.of(xs)
        a.merge(ys)
        assert a.dominates(xs)
        assert a.dominates(ys)
        # least upper bound
        assert all(v == max(x, y) for v, x, y in zip(a.as_tuple(), xs, ys))


class TestIntervalLog:
    def test_close_interval_appends(self):
        log = IntervalLog(2)
        idx = log.close_interval(0, [WriteNotice(5, 1, 0)])
        assert idx == 0
        assert log.intervals_of(0) == 1
        assert log.intervals_of(1) == 0

    def test_notices_between_empty_ranges(self):
        log = IntervalLog(2)
        log.close_interval(0, [WriteNotice(1, 1, 0)])
        assert log.notices_between((1, 0), (1, 0)) == ([], [], 0)

    def test_notices_between_returns_unseen(self):
        log = IntervalLog(2)
        log.close_interval(0, [WriteNotice(1, 1, 0)])
        log.close_interval(0, [WriteNotice(2, 1, 0)])
        log.close_interval(1, [WriteNotice(3, 1, 1)])
        out, _, _ = log.notices_between((0, 0), (2, 1))
        blocks = sorted(n.block for n in out)
        assert blocks == [1, 2, 3]

    def test_notices_between_partial(self):
        log = IntervalLog(1)
        for k in range(5):
            log.close_interval(0, [WriteNotice(k, 1, 0)])
        out, _, _ = log.notices_between((2,), (4,))
        assert sorted(n.block for n in out) == [2, 3]

    def test_intervals_accessor(self):
        log = IntervalLog(2)
        wn = WriteNotice(1, 1, 0)
        log.close_interval(0, [])
        log.close_interval(0, [wn])
        assert [dict(iv) for iv in log.intervals(0)] == [{}, {1: wn}]
        assert list(log.intervals(1)) == []

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_vector_difference_covers_exactly_unseen_intervals(self, data):
        n = 3
        log = IntervalLog(n)
        counts = [data.draw(st.integers(min_value=0, max_value=5)) for _ in range(n)]
        tag = 0
        expected = {}
        for node in range(n):
            for k in range(counts[node]):
                log.close_interval(node, [WriteNotice(tag, 1, node)])
                expected[(node, k)] = tag
                tag += 1
        seen = tuple(
            data.draw(st.integers(min_value=0, max_value=counts[i])) for i in range(n)
        )
        out, _, _ = log.notices_between(seen, tuple(counts))
        got = sorted(wn.block for wn in out)
        want = sorted(
            expected[(node, k)]
            for node in range(n)
            for k in range(seen[node], counts[node])
        )
        assert got == want


def _seeded_log(n, seed, writer_frac=0.05, max_intervals=6):
    """A log where most intervals are empty, as on a wide machine whose
    barriers close an interval on every node; returns (log, counts)."""
    rng = random.Random(seed)
    log = IntervalLog(n)
    counts = [rng.randrange(max_intervals + 1) for _ in range(n)]
    closes = [node for node in range(n) for _ in range(counts[node])]
    rng.shuffle(closes)  # nodes close intervals interleaved, not in id order
    for tag, node in enumerate(closes):
        notices = []
        if rng.random() < writer_frac:
            for k in range(rng.randrange(1, 4)):
                notices.append(WriteNotice(4 * tag + k, rng.randrange(1, 9), node))
        log.close_interval(node, notices)
    return log, counts


def _notices_all_nodes(log, seen, upto):
    """The reference walk: every node, writer or not."""
    out = []
    for i in range(len(seen)):
        for interval in log.intervals(i)[seen[i]:upto[i]]:
            out.extend(interval.values())
    return out


class TestWriterIndex:
    @pytest.mark.parametrize("n", [16, 65, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_all_nodes_walk(self, n, seed):
        log, counts = _seeded_log(n, seed)
        rng = random.Random(seed + 100)
        for _ in range(20):
            upto = tuple(rng.randint(0, c) for c in counts)
            seen = tuple(rng.randint(0, u) for u in upto)
            want = _notices_all_nodes(log, seen, upto)
            # same notices in the same order, not just the same set
            assert log.notices_between(seen, upto)[0] == want
            # a stale "seen" above "upto" contributes nothing
            assert log.notices_between(upto, seen)[0] == \
                _notices_all_nodes(log, upto, seen)

    def test_empty_intervals_never_index_a_writer(self):
        log = IntervalLog(4)
        for node in range(4):
            log.close_interval(node, [])
        log.close_interval(2, [WriteNotice(7, 1, 2)])
        log.close_interval(0, [WriteNotice(8, 1, 0)])
        log.close_interval(2, [WriteNotice(9, 2, 2)])
        # node 0 became a writer last but is walked first
        notices, _, _ = log.notices_between((0,) * 4, (2, 1, 3, 1))
        assert [wn.block for wn in notices] == [8, 7, 9]


def _old_notice_plan(notices, receiver=-1):
    """The per-notice aggregation the interval-map merge replaced: the
    oracle.  Each block's first max-version notice, blocks in
    first-occurrence order, the receiver's own notices dropped."""
    best = {}
    for wn in notices:
        if wn.owner == receiver:
            continue
        block = wn.block
        cur = best.get(block)
        if cur is None or wn.version > cur.version:
            best[block] = wn
    return list(best.values())


def _overlapping_log(n, seed):
    """A log whose intervals repeat blocks across writers and across a
    writer's intervals, with equal and unequal versions (not monotonic
    per writer: the builder must not rely on it) and empty intervals;
    returns (log, counts)."""
    rng = random.Random(seed)
    log = IntervalLog(n)
    counts = [0] * n
    span = rng.randint(3, 30)  # few blocks: repeats are the rule
    for _ in range(rng.randint(0, 40)):
        node = rng.randrange(n)
        size = min(rng.choice((0, 0, 1, 2, 5, 12)), span)
        log.close_interval(node, [WriteNotice(b, rng.randint(1, 4), node)
                                  for b in sorted(rng.sample(range(span), size))])
        counts[node] += 1
    return log, counts


class TestPlanBuilder:
    """``merge_plan`` of ``notices_between``'s intervals, and its run
    count, against the per-notice semantics, on logs built to stress
    the shared-block fix-up."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_per_notice_plan(self, seed):
        n = 5
        log, counts = _overlapping_log(n, seed)
        rng = random.Random(seed + 500)
        for _ in range(15):
            upto = tuple(rng.randint(0, c) for c in counts)
            seen = tuple(rng.randint(0, u) for u in upto)
            skip = rng.choice((-1, rng.randrange(n)))  # a grant's acquirer
            notices, planned, runs = log.notices_between(seen, upto, skip)
            plan = merge_plan(planned)
            want = _notices_all_nodes(log, seen, upto)
            assert notices == want
            # blocks, order and the winning notice, not just the set
            assert list(plan.items()) == [
                (wn.block, wn) for wn in _old_notice_plan(want, skip)]
            assert list(plan.values()) == _plan_oracle(
                [wn for wn in want if wn.owner != skip])
            # the skipped intervals still count on the wire
            assert runs == _sorted_runs(want)

    def test_builder_sees_every_case(self):
        """The seeds above do reach repeats with equal and unequal
        versions, empty intervals and a skipped receiver."""
        seen = set()
        for seed in range(40):
            log, counts = _overlapping_log(5, seed)
            full = _notices_all_nodes(log, (0,) * 5, counts)
            versions = {}
            for wn in full:
                versions.setdefault(wn.block, []).append(wn.version)
            for vs in versions.values():
                if len(vs) > 1:
                    seen.add("equal" if len(set(vs)) < len(vs) else "unequal")
            if any(not iv for i in range(5) for iv in log.intervals(i)):
                seen.add("empty")
            _, planned, _ = log.notices_between((0,) * 5, counts, 0)
            plan = merge_plan(planned)
            if plan and len(plan) < len({wn.block for wn in full}):
                seen.add("skipped")
        assert seen == {"equal", "unequal", "empty", "skipped"}

    def test_later_higher_version_wins_in_first_position(self):
        log = IntervalLog(3)
        a = WriteNotice(4, 2, 0)
        log.close_interval(0, [WriteNotice(1, 1, 0), a])
        b, c = WriteNotice(4, 3, 1), WriteNotice(4, 3, 2)
        log.close_interval(1, [WriteNotice(2, 1, 1), b])
        log.close_interval(2, [c, WriteNotice(5, 1, 2)])
        _, planned, runs = log.notices_between((0, 0, 0), (1, 1, 1))
        plan = merge_plan(planned)
        # block 4 keeps its first position, takes version 3's first
        # notice (b, not the equal-version c)
        assert list(plan) == [1, 4, 2, 5]
        assert plan[4] is b
        assert runs == 2  # {1, 2} and {4, 5}
        _, planned, runs = log.notices_between((0, 0, 0), (1, 1, 1), skip=1)
        plan = merge_plan(planned)
        assert list(plan) == [1, 4, 5] and plan[4] is c
        assert runs == 2  # block 2 is the acquirer's, but on the wire


def _old_barrier_payloads(log, vts, n):
    """The nested-loop column-max merge ``barrier_payloads`` replaced:
    the oracle, over the arrivals' component tuples."""
    vts = {nid: vt.as_tuple() for nid, vt in vts.items()}
    merged = [0] * n
    for vt in vts.values():
        for i, x in enumerate(vt):
            if x > merged[i]:
                merged[i] = x
    out = {}
    for node_id, vt in vts.items():
        notices = _notices_all_nodes(log, vt, merged)
        out[node_id] = (
            {"vt": tuple(merged), "notices": notices},
            _sorted_runs(notices),
        )
    return out


def _plan_oracle(notices):
    """Each block's first max-version notice, blocks in first-occurrence
    order, stated without the one-pass aggregation."""
    order = dict.fromkeys(wn.block for wn in notices)
    return [max((wn for wn in notices if wn.block == b),
                key=lambda wn: wn.version) for b in order]


def _sorted_runs(notices):
    """The sorted-runs loop the run-start count replaced: the oracle."""
    if not notices:
        return 0
    blocks = sorted({wn.block for wn in notices})
    runs = 1
    for a, b in zip(blocks, blocks[1:]):
        if b != a + 1:
            runs += 1
    return runs


def _assert_matches_oracle(got, want):
    """Field by field: merged vt, notices, compressed count, notice
    plan, one shared merged tuple and arrival order."""
    assert list(got) == list(want)  # arrival order is insertion order
    for nid, (payload, count) in got.items():
        want_payload, want_count = want[nid]
        assert payload["vt"] == want_payload["vt"]
        assert payload["notices"] == want_payload["notices"]
        # the same notices in the same order: a dict compares unordered
        assert list(merge_plan(payload["planned"]).values()) == \
            _plan_oracle(want_payload["notices"])
        assert count == want_count
        assert payload["dominates"]  # applied by copy, see apply_sync
    assert len({id(p["vt"]) for p, _ in got.values()}) == 1


class TestBarrierPayloads:
    @staticmethod
    def _protocol(n, seed, name, writer_frac=0.3):
        from repro import Machine, MachineParams

        proto = Machine(MachineParams(n_nodes=n), protocol=name).protocol
        proto.ilog, counts = _seeded_log(n, seed, writer_frac=writer_frac)
        return proto, counts

    @staticmethod
    def _arrivals(counts, nodes, rng, views=0):
        """Reachable arrivals: random components, except that arrival
        ``i``'s own component is its column's max -- only node ``i``
        ticks component ``i``, so no node has seen more of ``i``'s
        intervals than ``i`` has closed.  With ``views``, every node
        first adopts one of that many random timestamps as its clock's
        base (sharing the tuple, as after a barrier), so non-writers
        adopting the same one share a view."""
        if views:
            bases = [tuple(rng.randint(0, c) for c in counts)
                     for _ in range(views)]
            picked = {nid: rng.choice(bases) for nid in nodes}
        else:
            picked = {nid: tuple(rng.randint(0, c) for c in counts)
                      for nid in nodes}
        vts = {}
        for nid, base in picked.items():
            vt = vts[nid] = VectorClock.of(base, own=nid)
            for _ in range(max(b[nid] for b in picked.values()) - base[nid]):
                vt.tick(nid)
        return vts  # live clocks, as barrier arrivals carry them

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    @pytest.mark.parametrize("n", [16, 65])
    def test_all_participants(self, protocol, n):
        proto, counts = self._protocol(n, n, protocol)
        rng = random.Random(n)
        nodes = list(range(n))
        rng.shuffle(nodes)  # arrival order is insertion order
        vts = self._arrivals(counts, nodes, rng)
        got = proto.barrier_payloads(vts)
        _assert_matches_oracle(got, _old_barrier_payloads(proto.ilog, vts, n))
        assert list(got) == nodes

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    @pytest.mark.parametrize("n", [16, 65, 256])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_shared_views_share_one_payload(self, protocol, n, seed):
        proto, counts = self._protocol(n, seed, protocol, writer_frac=0.02)
        writers = proto.ilog.writers
        rng = random.Random(seed)
        nodes = rng.sample(range(n), n - seed)  # full and partial barriers
        vts = self._arrivals(counts, nodes, rng, views=3)
        got = proto.barrier_payloads(vts)
        _assert_matches_oracle(
            got, _old_barrier_payloads(proto.ilog, vts, n))
        views = {}
        for nid, vt in vts.items():
            views.setdefault(tuple(vt[w] for w in writers), set()).add(
                id(got[nid][0]))
        # one payload object per view, a different one for each view
        assert all(len(ids) == 1 for ids in views.values())
        assert len({id(p) for p, _ in got.values()}) == len(views)
        assert len(views) < len(nodes)  # some receivers did share

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_shared_plan_is_merged_once_when_first_applied(
            self, protocol, monkeypatch):
        """A payload carries its plan's intervals, not the plan: the
        first receiver to apply it merges the plan, and every other
        receiver of the view reuses that one."""
        import repro.core.lrc_base as lrc_base

        n = 65
        proto, counts = self._protocol(n, 1, protocol, writer_frac=0.02)
        rng = random.Random(1)
        vts = self._arrivals(counts, range(n), rng, views=3)
        got = proto.barrier_payloads(vts)
        receivers = {}
        for nid, (payload, _) in got.items():
            receivers.setdefault(id(payload), []).append(nid)
        nids = max(receivers.values(), key=len)
        payload = got[nids[0]][0]
        assert len(nids) > 1 and payload["notices"] and "plan" not in payload
        merges = []

        def counting(intervals):
            merges.append(intervals)
            return merge_plan(intervals)

        monkeypatch.setattr(lrc_base, "merge_plan", counting)
        nodes = proto.m.nodes
        for nid in nids:
            for _ in proto.apply_sync(nodes[nid], payload):
                pass
        assert merges == [payload["planned"]]
        assert list(payload["plan"].values()) == \
            _plan_oracle(payload["notices"])

    @pytest.mark.parametrize("n", [16, 65])
    def test_participant_subset(self, n):
        proto, counts = self._protocol(n, n + 1, "swlrc")
        rng = random.Random(n + 1)
        vts = self._arrivals(counts, rng.sample(range(n), n // 3), rng)
        _assert_matches_oracle(proto.barrier_payloads(vts),
                               _old_barrier_payloads(proto.ilog, vts, n))

    @pytest.mark.parametrize("n", [1, 16])
    def test_single_participant(self, n):
        proto, counts = self._protocol(n, 5, "hlrc")
        rng = random.Random(5)
        vts = self._arrivals(counts, [n - 1], rng)
        got = proto.barrier_payloads(vts)
        _assert_matches_oracle(got, _old_barrier_payloads(proto.ilog, vts, n))
        assert got[n - 1][0]["notices"] == []  # nothing it has not seen

    def test_unreachable_arrivals_flagged_by_clock_bound(self):
        """Arbitrary arrivals break the invariant the diagonal rests on,
        so the diagonal and the column max differ -- and the checker's
        clock-bound rule reports such a clock."""
        from repro import Machine, MachineParams
        from repro.check import install_checkers

        n = 16
        m = Machine(MachineParams(n_nodes=n), protocol="swlrc")
        checkers = install_checkers(m, races=False)
        proto = m.protocol
        rng = random.Random(7)
        vts = {nid: tuple(rng.randint(0, 5) for _ in range(n)) for nid in range(n)}
        arrivals = {nid: VectorClock.of(vt, own=nid) for nid, vt in vts.items()}
        merged = proto.barrier_payloads(arrivals)[0][0]["vt"]
        assert merged != _old_barrier_payloads(proto.ilog, arrivals, n)[0][0]["vt"]
        for nid, vt in vts.items():
            proto.vt[nid].assign(vt)
        bad = next(nid for nid, vt in vts.items()
                   if any(vt[i] > vts[i][i] for i in range(n)))
        checkers.invariants.on_sync_applied(bad, {"vt": vts[bad], "notices": []})
        assert [(v.rule, v.node) for v in checkers.invariants.violations] == \
            [("clock-bound", bad)]

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_diagonal_equals_column_max_end_to_end(self, protocol):
        """lu at 65 nodes: at every barrier the arrivals the simulator
        really produces have the diagonal as their column max."""
        from repro import Machine, MachineParams, run_program
        from repro.apps import make_app

        n = 65
        app = make_app("lu", scale="tiny")
        m = Machine(MachineParams(n_nodes=n, granularity=1024), protocol=protocol)
        app.setup(m)
        proto = m.protocol
        barrier_payloads = proto.barrier_payloads
        checked = []

        def wrapped(vts):
            got = barrier_payloads(vts)
            column_max = tuple(map(max, *(vt.as_tuple() for vt in vts.values())))
            assert all(p["vt"] == column_max for p, _ in got.values())
            checked.append(len(vts))
            return got

        proto.barrier_payloads = wrapped
        run_program(m, app.program, nprocs=n)
        assert checked and set(checked) == {n}

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_payloads_per_episode_bounded_by_writers(self, protocol):
        """lu at 65 nodes: an episode builds at most one payload per
        writer plus one that every other participant shares."""
        from repro import Machine, MachineParams, run_program
        from repro.apps import make_app

        n = 65
        app = make_app("lu", scale="tiny")
        m = Machine(MachineParams(n_nodes=n, granularity=1024), protocol=protocol)
        app.setup(m)
        proto = m.protocol
        barrier_payloads = proto.barrier_payloads
        built = []

        def wrapped(vts):
            got = barrier_payloads(vts)
            distinct = len({id(p) for p, _ in got.values()})
            assert distinct <= len(proto.ilog.writers) + 1
            built.append(distinct)
            return got

        proto.barrier_payloads = wrapped
        run_program(m, app.program, nprocs=n)
        assert built and max(built) < n  # non-writers shared a payload


class TestCompressedCount:
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_sorted_runs(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            span = rng.randint(1, 60)
            notices = [WriteNotice(rng.randrange(span), 1, 0)
                       for _ in range(rng.randint(0, 40))]
            assert len(IntervalLog.run_starts(
                wn.block for wn in notices)) == _sorted_runs(notices)

    @pytest.mark.parametrize("blocks, runs", [
        ([], 0),
        ([5], 1),
        ([5, 5, 5], 1),
        ([3, 1, 2, 2], 1),
        ([0, 2, 4], 3),
        ([9, 7, 8, 1, 0], 2),
    ])
    def test_edge_cases(self, blocks, runs):
        notices = [WriteNotice(b, 1, 0) for b in blocks]
        assert len(IntervalLog.run_starts(blocks)) == runs == \
            _sorted_runs(notices)


class TestWriteNotice:
    def test_frozen(self):
        wn = WriteNotice(1, 2, 3)
        with pytest.raises(AttributeError):
            wn.block = 9

    def test_fields(self):
        wn = WriteNotice(block=7, version=3, owner=1)
        assert (wn.block, wn.version, wn.owner) == (7, 3, 1)


class TestIntervalRetirement:
    def test_retired_slots_keep_their_index(self):
        log = IntervalLog(2)
        for k in range(4):
            log.close_interval(0, [WriteNotice(k, 1, 0), WriteNotice(k + 9, 1, 0)])
        log.close_interval(1, [WriteNotice(20, 1, 1)])
        want = log.notices_between((2, 0), (4, 1), skip=1)
        log.retire({0: 2, 1: 0})
        assert log.floor == [2, 0]
        assert log.intervals_of(0) == 4
        assert [len(iv) for iv in log.intervals(0)] == [2, 2]  # live ones
        # a batch from the floor on is unchanged
        assert log.notices_between((2, 0), (4, 1), skip=1) == want
        assert log.notice_count == 9  # retired notices still counted
        log.retire({0: 1})  # a floor never moves down
        assert log.floor == [2, 0]

    @staticmethod
    def _barrier_episodes(protocol, retire, n=4, episodes=100):
        """Each of ``episodes`` barrier episodes closes one non-empty
        interval per node; returns the protocol, the stats and, at each
        release, the live non-empty intervals and the most interval
        slots any node's log holds once the release has retired what
        it can."""
        from repro import Machine, MachineParams, run_program
        from repro.check import install_checkers

        m = Machine(MachineParams(n_nodes=n, granularity=64), protocol=protocol)
        seg = m.alloc(n * 64, "x")
        checkers = install_checkers(m, races=False)
        proto = m.protocol
        live, slots = [], []
        released = proto.barrier_released

        def measured(vts):
            ilog = proto.ilog
            live.append(sum(1 for i in range(n)
                            for iv in ilog.intervals(i) if iv))
            if retire:
                released(vts)
            slots.append(max(len(ilog.intervals(i)) for i in range(n)))

        proto.barrier_released = measured

        def program(dsm, rank, nprocs):
            for e in range(episodes):
                yield from dsm.touch_write(seg.base + 64 * rank, 8,
                                           pattern=e % 250 + 1)
                yield from dsm.barrier(0, participants=nprocs)
                yield from dsm.touch_read(seg.base + 64 * ((rank + 1) % n), 8)

        stats = run_program(m, program, nprocs=n).stats
        assert checkers.report().violations_total == 0
        return proto, stats, live, slots

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_live_log_bounded_over_100_barriers(self, protocol):
        """The log never holds more than one episode's worth of
        non-empty intervals, and a run that retires nothing computes
        the same stats."""
        n, episodes = 4, 100
        proto, stats, live, _ = self._barrier_episodes(protocol, retire=True)
        assert len(live) == episodes and max(live) == n
        assert proto.ilog.floor == [episodes] * n  # nothing left live
        assert proto.ilog.notice_count == episodes * n
        _, kept, unretired, _ = self._barrier_episodes(protocol, retire=False)
        assert unretired[-1] == episodes * n  # what retirement saves
        assert kept.to_dict() == stats.to_dict()

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    def test_retired_slots_are_dropped_over_100_barriers(self, protocol):
        """A retired interval leaves no slot behind: each node's log
        holds only its live intervals, so its length stays bounded
        over 100 episodes while every index (``intervals_of``) keeps
        counting."""
        n, episodes = 4, 100
        proto, _, _, slots = self._barrier_episodes(protocol, retire=True)
        assert len(slots) == episodes and max(slots) == 0
        assert [proto.ilog.intervals_of(i) for i in range(n)] == [episodes] * n
        _, _, _, kept = self._barrier_episodes(protocol, retire=False)
        assert kept[-1] == episodes  # every slot, without retirement
