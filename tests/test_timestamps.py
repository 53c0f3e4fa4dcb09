"""Tests for vector clocks, intervals, and write notices."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.timestamps import IntervalLog, VectorClock, WriteNotice


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
        a = VectorClock(3)
        a.v = [1, 5, 2]
        a.merge((3, 1, 2))
        assert a.as_tuple() == (3, 5, 2)

    def test_copy_is_independent(self):
        a = VectorClock(3)
        b = a.copy()
        a.tick(0)
        assert b.as_tuple() == (0, 0, 0)

    def test_dominates(self):
        a = VectorClock(2)
        a.v = [2, 3]
        assert a.dominates((2, 3))
        assert a.dominates((1, 0))
        assert not a.dominates((3, 0))

    @given(
        xs=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
        ys=st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_produces_upper_bound(self, xs, ys):
        a = VectorClock(4)
        a.v = list(xs)
        a.merge(ys)
        assert a.dominates(xs)
        assert a.dominates(ys)
        # least upper bound
        assert all(v == max(x, y) for v, x, y in zip(a.v, xs, ys))


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
        assert log.notices_between((1, 0), (1, 0)) == []

    def test_notices_between_returns_unseen(self):
        log = IntervalLog(2)
        log.close_interval(0, [WriteNotice(1, 1, 0)])
        log.close_interval(0, [WriteNotice(2, 1, 0)])
        log.close_interval(1, [WriteNotice(3, 1, 1)])
        out = log.notices_between((0, 0), (2, 1))
        blocks = sorted(n.block for n in out)
        assert blocks == [1, 2, 3]

    def test_notices_between_partial(self):
        log = IntervalLog(1)
        for k in range(5):
            log.close_interval(0, [WriteNotice(k, 1, 0)])
        out = log.notices_between((2,), (4,))
        assert sorted(n.block for n in out) == [2, 3]

    def test_intervals_accessor(self):
        log = IntervalLog(2)
        wn = WriteNotice(1, 1, 0)
        log.close_interval(0, [])
        log.close_interval(0, [wn])
        assert list(log.intervals(0)) == [[], [wn]]
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
        out = log.notices_between(seen, tuple(counts))
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
            out.extend(interval)
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
            assert log.notices_between(seen, upto) == want
            # a stale "seen" above "upto" contributes nothing
            assert log.notices_between(upto, seen) == \
                _notices_all_nodes(log, upto, seen)

    def test_empty_intervals_never_index_a_writer(self):
        log = IntervalLog(4)
        for node in range(4):
            log.close_interval(node, [])
        log.close_interval(2, [WriteNotice(7, 1, 2)])
        log.close_interval(0, [WriteNotice(8, 1, 0)])
        log.close_interval(2, [WriteNotice(9, 2, 2)])
        # node 0 became a writer last but is walked first
        assert [wn.block for wn in log.notices_between((0,) * 4, (2, 1, 3, 1))] \
            == [8, 7, 9]


def _old_barrier_payloads(log, vts, n):
    """The nested-loop merge ``barrier_payloads`` replaced: the oracle."""
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
            log.compressed_count(notices),
        )
    return out


class TestBarrierPayloads:
    @staticmethod
    def _protocol(n, seed, name):
        from repro import Machine, MachineParams

        proto = Machine(MachineParams(n_nodes=n), protocol=name).protocol
        proto.ilog, counts = _seeded_log(n, seed, writer_frac=0.3)
        return proto, counts

    @staticmethod
    def _arrivals(counts, nodes, rng):
        return {nid: tuple(rng.randint(0, c) for c in counts) for nid in nodes}

    @pytest.mark.parametrize("protocol", ["swlrc", "hlrc"])
    @pytest.mark.parametrize("n", [16, 65])
    def test_all_participants(self, protocol, n):
        proto, counts = self._protocol(n, n, protocol)
        rng = random.Random(n)
        nodes = list(range(n))
        rng.shuffle(nodes)  # arrival order is insertion order
        vts = self._arrivals(counts, nodes, rng)
        got = proto.barrier_payloads(vts)
        assert got == _old_barrier_payloads(proto.ilog, vts, n)
        assert list(got) == nodes
        # one merged timestamp shared by every payload
        assert len({id(p["vt"]) for p, _ in got.values()}) == 1

    @pytest.mark.parametrize("n", [16, 65])
    def test_participant_subset(self, n):
        proto, counts = self._protocol(n, n + 1, "swlrc")
        rng = random.Random(n + 1)
        vts = self._arrivals(counts, rng.sample(range(n), n // 3), rng)
        assert proto.barrier_payloads(vts) == \
            _old_barrier_payloads(proto.ilog, vts, n)

    @pytest.mark.parametrize("n", [1, 16])
    def test_single_participant(self, n):
        proto, counts = self._protocol(n, 5, "hlrc")
        rng = random.Random(5)
        vts = self._arrivals(counts, [n - 1], rng)
        got = proto.barrier_payloads(vts)
        assert got == _old_barrier_payloads(proto.ilog, vts, n)
        assert got[n - 1][0]["notices"] == []  # nothing it has not seen


class TestWriteNotice:
    def test_frozen(self):
        wn = WriteNotice(1, 2, 3)
        with pytest.raises(AttributeError):
            wn.block = 9

    def test_fields(self):
        wn = WriteNotice(block=7, version=3, owner=1)
        assert (wn.block, wn.version, wn.owner) == (7, 3, 1)
