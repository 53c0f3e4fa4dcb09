"""Tests for the network model and message plumbing."""

import pytest

from repro.cluster.config import MachineParams
from repro.net.message import (
    CONTROL_BYTES,
    HEADER_BYTES,
    Message,
    control_size,
    data_size,
    notice_size,
)
from repro.net.myrinet import LOCAL_DELIVERY_US, Network
from repro.sim.engine import Engine
from repro.stats.counters import Stats


def make_net(n=4):
    eng = Engine()
    params = MachineParams(n_nodes=n)
    stats = Stats(n)
    delivered = []
    net = Network(eng, params, stats, delivered.append)
    return eng, params, stats, net, delivered


class TestMessage:
    def test_minimum_size_is_header(self):
        msg = Message(src=0, dst=1, mtype="x", size_bytes=2)
        assert msg.size_bytes == HEADER_BYTES

    def test_positional_construction_clamps_to_header(self):
        msg = Message(0, 1, "x", 4)
        assert msg.size_bytes == 16 == HEADER_BYTES
        assert (msg.block, msg.payload, msg.reply_to, msg.seq) == (-1, None, None, -1)
        assert msg.handle_cost_us == 3.0

    def test_origin_defaults_to_unforwarded(self):
        assert Message(0, 1, "x", 24).origin == -1
        assert Message(0, 1, "x", 24, origin=3).origin == 3

    def test_equality_covers_every_field(self):
        assert Message(0, 1, "x", 24) == Message(0, 1, "x", 24)
        assert Message(0, 1, "x", 24) != Message(0, 1, "x", 24, origin=2)

    def test_size_helpers(self):
        assert control_size() == HEADER_BYTES + CONTROL_BYTES
        assert data_size(4096) == HEADER_BYTES + 4096
        assert notice_size(3) == HEADER_BYTES + 24
        assert notice_size(0) == HEADER_BYTES


class TestNetwork:
    def test_delivery_latency_matches_model(self):
        eng, params, stats, net, delivered = make_net()
        msg = Message(src=0, dst=1, mtype="t", size_bytes=64)
        net.send(msg)
        eng.run()
        expected = params.one_way_latency_us(64)
        assert eng.now == pytest.approx(expected)
        assert delivered == [msg]

    def test_switch_hops_add_latency(self):
        eng, params, stats, net, delivered = make_net(n=16)
        # Distinct senders so NIC occupancy does not skew the compare.
        near = Message(src=0, dst=2, mtype="t", size_bytes=64)
        far = Message(src=1, dst=15, mtype="t", size_bytes=64)
        times = {}
        net._deliver = lambda m: times.__setitem__(m.dst, eng.now)
        net.send(near)
        net.send(far)
        eng.run()
        # Two inter-switch hops for switch 0 -> switch 2.
        assert times[15] > times[2]
        assert times[15] - times[2] == pytest.approx(2 * params.switch_hop_us)

    def test_sender_nic_serializes_back_to_back(self):
        eng, params, stats, net, delivered = make_net()
        times = []
        net._deliver = lambda m: times.append(eng.now)
        for _ in range(3):
            net.send(Message(src=0, dst=1, mtype="t", size_bytes=4096))
        eng.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        # Consecutive big messages are spaced by NIC occupancy.
        for gap in gaps:
            assert gap == pytest.approx(params.nic_occupancy_us(4096))

    def test_local_message_bypasses_wire(self):
        eng, params, stats, net, delivered = make_net()
        msg = Message(src=2, dst=2, mtype="t", size_bytes=4096)
        net.send(msg)
        eng.run()
        assert eng.now == pytest.approx(LOCAL_DELIVERY_US)
        assert stats.local_msgs == 1
        assert stats.total_messages == 0

    def test_traffic_accounting(self):
        eng, params, stats, net, delivered = make_net()
        net.send(Message(src=0, dst=1, mtype="data", size_bytes=100))
        net.send(Message(src=0, dst=1, mtype="ctrl", size_bytes=24))
        eng.run()
        assert stats.msg_count["data"] == 1
        assert stats.msg_bytes["data"] == 100
        assert stats.total_traffic_bytes == 124

    def test_bad_destination_rejected(self):
        eng, params, stats, net, delivered = make_net()
        with pytest.raises(ValueError):
            net.send(Message(src=0, dst=99, mtype="t", size_bytes=24))
        with pytest.raises(ValueError):
            net.send(Message(src=-1, dst=0, mtype="t", size_bytes=24))

    def test_small_messages_faster_than_big(self):
        eng, params, stats, net, _ = make_net()
        times = {}
        net._deliver = lambda m: times.__setitem__(m.mtype, eng.now)
        net.send(Message(src=0, dst=1, mtype="big", size_bytes=4096))
        net.send(Message(src=2, dst=1, mtype="small", size_bytes=24))
        eng.run()
        assert times["small"] < times["big"]


class TestOrderingSemantics:
    """Pin the audited raw-wire (non-)ordering guarantees.

    These behaviors are *intended* (see the myrinet module docstring):
    the protocols tolerate them on the trusted wire, and per-link FIFO
    only exists under the reliable transport.  If one of these tests
    starts failing, the wire's ordering contract changed -- audit every
    protocol handler before accepting it.
    """

    def test_small_overtakes_large_on_same_link(self):
        # NIC-serialized departures, size-dependent latency: a control
        # message injected right behind a 4 KB transfer on the SAME
        # (src, dst) link arrives first.
        eng, params, stats, net, _ = make_net()
        order = []
        net._deliver = lambda m: order.append(m.mtype)
        net.send(Message(src=0, dst=1, mtype="big", size_bytes=4096))
        net.send(Message(src=0, dst=1, mtype="small", size_bytes=24))
        eng.run()
        assert order == ["small", "big"]
        # ... which is exactly what the latency model predicts.
        assert params.nic_occupancy_us(4096) + params.one_way_latency_us(
            24
        ) < params.one_way_latency_us(4096)

    def test_local_overtakes_in_flight_remote(self):
        # A node-local message is a function call, not a wire crossing:
        # it skips the NIC queue and beats remote messages the same
        # sender injected earlier.
        eng, params, stats, net, _ = make_net()
        order = []
        net._deliver = lambda m: order.append(m.mtype)
        net.send(Message(src=0, dst=1, mtype="remote", size_bytes=24))
        net.send(Message(src=0, dst=0, mtype="local", size_bytes=4096))
        eng.run()
        assert order == ["local", "remote"]

    def test_local_messages_fifo_among_themselves(self):
        eng, params, stats, net, _ = make_net()
        order = []
        net._deliver = lambda m: order.append(m.mtype)
        for k in range(4):
            net.send(Message(src=2, dst=2, mtype=f"l{k}", size_bytes=24))
        eng.run()
        assert order == ["l0", "l1", "l2", "l3"]

    def test_equal_size_messages_fifo_on_one_link(self):
        # Same size, same link: NIC serialization + fixed latency keeps
        # send order (the only FIFO the raw wire does provide).
        eng, params, stats, net, _ = make_net()
        order = []
        net._deliver = lambda m: order.append(m.mtype)
        for k in range(4):
            net.send(Message(src=0, dst=1, mtype=f"m{k}", size_bytes=256))
        eng.run()
        assert order == ["m0", "m1", "m2", "m3"]
