"""Tests for the event-timeline recorder."""

import numpy as np

from repro import Machine, MachineParams, SharedArray, run_program
from repro.stats.timeline import Timeline


def run_traced(protocol="sc", **tl_kwargs):
    m = Machine(MachineParams(n_nodes=4, granularity=1024), protocol=protocol)
    tl = Timeline(m, **tl_kwargs)
    arr = SharedArray(m, "x", 64, dtype=np.float64)
    arr.init(np.zeros(64))
    arr.place(0, 64, 0)

    def program(dsm, rank, nprocs):
        if rank == 1:
            yield from arr.set_slice(dsm, 0, np.ones(64))
        yield from dsm.barrier(0, participants=nprocs)
        yield from arr.get_slice(dsm, 0, 64)
        yield from dsm.barrier(1, participants=nprocs)

    run_program(m, program, nprocs=4)
    return m, tl


class TestRecording:
    def test_sends_and_receives_recorded(self):
        m, tl = run_traced()
        kinds = {e.kind for e in tl.events}
        assert "send" in kinds and "recv" in kinds
        # Every wire message produces one send and one recv record.
        sends = sum(1 for e in tl.events if e.kind == "send")
        recvs = sum(1 for e in tl.events if e.kind == "recv")
        assert sends == recvs

    def test_timestamps_monotonic_per_kind_stream(self):
        m, tl = run_traced()
        times = [e.time_us for e in tl.events]
        assert times == sorted(times)

    def test_filter_restricts_message_types(self):
        m, tl = run_traced(message_filter=lambda t: t.startswith("barrier"))
        assert tl.events
        assert all("barrier" in e.label for e in tl.events)

    def test_bound_drops_excess(self):
        m, tl = run_traced(max_events=5)
        assert len(tl.events) == 5
        assert tl.dropped > 0

    def test_queries(self):
        m, tl = run_traced()
        n1 = tl.for_node(1)
        assert all(e.node == 1 for e in n1)
        window = tl.between(0.0, 100.0)
        assert all(0.0 <= e.time_us <= 100.0 for e in window)
        assert all("barrier_arrive" in e.label
                   for e in tl.matching("barrier_arrive"))
        assert tl.matching("barrier_arrive")


class TestRendering:
    def test_render_contains_events_and_header(self):
        m, tl = run_traced()
        out = tl.render()
        assert out.startswith("timeline")
        assert "[n0]" in out or "[n1]" in out

    def test_render_limit(self):
        m, tl = run_traced()
        out = tl.render(limit=3)
        assert "more)" in out

    def test_render_node_subset(self):
        m, tl = run_traced()
        out = tl.render(nodes=[2])
        assert "[n1]" not in out

    def test_render_limit_counts_only_requested_lanes(self):
        """The "+N more" tail counts the window's events on the requested
        lanes that the limit cut, not every node's events."""
        m, tl = run_traced()
        node0 = tl.for_node(0)
        assert len(node0) > 2 and len(node0) < len(tl.events)
        out = tl.render(nodes=[0], limit=2)
        assert out.endswith(f"... (+{len(node0) - 2} more)")

    def test_summary(self):
        m, tl = run_traced()
        s = tl.summary()
        assert s["events"] == len(tl.events)
        assert s["kind_send"] > 0


class TestSubscriber:
    def test_timeline_patches_no_seam(self):
        """A timeline subscribes through the hooks bus: the machine's
        send seam and the network's delivery callback stay as built."""
        m = Machine(MachineParams(n_nodes=4, granularity=1024))
        send, deliver = m.send, m.network._deliver
        tl = Timeline(m)
        assert m.send == send and "send" not in vars(m)
        assert m.network._deliver is deliver
        assert m.hooks is tl


class TestNoInterference:
    def test_traced_run_matches_untraced_counters(self):
        """Attaching a timeline must not change simulation results."""

        def run(with_tl):
            m = Machine(MachineParams(n_nodes=4, granularity=1024),
                        protocol="hlrc")
            if with_tl:
                Timeline(m)
            arr = SharedArray(m, "x", 64, dtype=np.float64)
            arr.init(np.zeros(64))

            def program(dsm, rank, nprocs):
                yield from arr.set(dsm, rank, float(rank))
                yield from dsm.barrier(0, participants=nprocs)
                yield from arr.get_slice(dsm, 0, 64)
                yield from dsm.barrier(1, participants=nprocs)

            r = run_program(m, program, nprocs=4)
            return (r.stats.parallel_time_us, r.stats.read_faults,
                    r.stats.total_messages)

        assert run(False) == run(True)
