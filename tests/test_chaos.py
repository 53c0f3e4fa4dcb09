"""Tests for the chaos layer: seeded fault plans, the reliable
transport, and the degradation-sweep harness.

The contract under test, end to end: with a :class:`FaultSpec` in the
config the interconnect drops/duplicates/reorders messages, the
transport recovers losses by ack/retransmit and restores per-link FIFO
exactly-once delivery to the protocols, and the whole thing is
bit-reproducible from the seed.  Without a spec, nothing changes --
fault-free runs must stay byte-identical to pre-chaos builds.
"""

import json

import pytest

from repro.cluster.config import MachineParams
from repro.cluster.machine import Machine
from repro.exec import ResultCache, config_from_dict, config_to_dict, execute_many
from repro.harness.experiment import RunConfig, run_experiment
from repro.hooks import Hooks
from repro.net.faultplan import FaultPlan, FaultSpec
from repro.net.reliable import ACK_MTYPE, TransportError
from repro.perf.micros import _stats_sha
from repro.sim.engine import SimulationError

CHAOS = FaultSpec(seed=0, drop_prob=0.05, dup_prob=0.01, reorder_prob=0.02)


def chaos_cfg(app="lu", protocol="hlrc", granularity=1024, spec=CHAOS, **kw):
    return RunConfig(app=app, protocol=protocol, granularity=granularity,
                     nprocs=kw.pop("nprocs", 4), scale=kw.pop("scale", "tiny"),
                     faults=spec, **kw)


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(drop_prob=-0.1).validate()
        with pytest.raises(ValueError):
            FaultSpec(drop_prob=1.5).validate()
        with pytest.raises(ValueError):
            FaultSpec(max_retransmits=0).validate()
        FaultSpec().validate()  # all-zero spec is legal (untrusted wire)

    def test_label_names_active_axes(self):
        label = FaultSpec(seed=7, drop_prob=0.05).label()
        assert "s7" in label and "drop0.05" in label
        assert "dup" not in label

    def test_dict_round_trip(self):
        spec = FaultSpec(seed=3, drop_prob=0.1, dup_prob=0.02,
                         stall_nodes=2, stall_period_us=500.0,
                         stall_duration_us=50.0)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_frozen_and_hashable(self):
        spec = FaultSpec(drop_prob=0.1)
        assert hash(spec) == hash(FaultSpec(drop_prob=0.1))
        with pytest.raises(Exception):
            spec.drop_prob = 0.2


class TestFaultPlan:
    def test_same_seed_same_decisions(self):
        a = FaultPlan(CHAOS, 4)
        b = FaultPlan(CHAOS, 4)
        for _ in range(200):
            assert a.decide(0, 1) == b.decide(0, 1)
            assert a.decide(2, 3) == b.decide(2, 3)

    def test_link_factor_bounds_and_stability(self):
        spec = FaultSpec(seed=1, link_inflation_max=0.5)
        plan = FaultPlan(spec, 4)
        for s in range(4):
            for d in range(4):
                f = plan.link_factor(s, d)
                assert 1.0 <= f <= 1.5
                assert plan.link_factor(s, d) == f  # fixed per link

    def test_inactive_axes_draw_nothing(self):
        plan = FaultPlan(FaultSpec(seed=0), 4)
        assert plan.decide(0, 1) is None
        assert plan.link_factor(0, 1) == 1.0
        assert plan.stall_delay(1, 1234.5) == 0.0

    def test_stall_windows(self):
        spec = FaultSpec(seed=0, stall_nodes=4, stall_period_us=1000.0,
                         stall_duration_us=100.0)
        plan = FaultPlan(spec, 4)
        phase = plan._stall_phase[0]
        # Arrival right at the window start waits out the whole window;
        # arrival just past the window's end is untouched.
        assert plan.stall_delay(0, phase) == pytest.approx(100.0)
        assert plan.stall_delay(0, phase + 100.0) == 0.0


class TestMachineWiring:
    def test_fault_free_machine_has_no_transport(self):
        m = Machine(MachineParams(n_nodes=2, granularity=1024))
        assert m.transport is None and m.fault_plan is None
        assert m._send == m.network.send
        assert "transport" not in m.stats.to_dict()

    def test_chaos_machine_routes_through_transport(self):
        m = Machine(MachineParams(n_nodes=2, granularity=1024), faults=CHAOS)
        assert m.transport is not None
        assert m._send == m.transport.send
        assert m.network._deliver == m.transport.on_wire
        assert "transport" in m.stats.to_dict()


class _MessageCounts(Hooks):
    def __init__(self):
        self.sent = self.delivered = self.handled = 0

    def on_send(self, msg):
        self.sent += 1

    def on_deliver(self, msg):
        self.delivered += 1

    def on_protocol_message(self, node_id, msg):
        self.handled += 1


@pytest.mark.parametrize("faults", [None, CHAOS], ids=["trusted", "chaos"])
def test_hooks_see_each_node_message_sent_and_delivered_once(faults):
    """``on_send``/``on_deliver`` observe node-level traffic: on the
    trusted wire and through the reliable transport (drops, duplicates,
    reorders, acks) alike, every message a node sends reaches its
    destination exactly once."""
    from repro.apps import make_app
    from repro.runtime.program import run_program

    m = Machine(MachineParams(n_nodes=4, granularity=1024),
                protocol="hlrc", faults=faults)
    counts = _MessageCounts()
    m.add_hooks(counts)
    app = make_app("lu", "tiny")
    app.setup(m)
    run_program(m, app.program, nprocs=4)
    assert counts.sent > 0 and counts.handled > 0
    assert counts.delivered == counts.sent
    s = m.stats
    if faults is None:
        assert counts.sent == s.total_messages + s.local_msgs
    else:  # the wire also carried acks, retransmits and duplicates
        assert s.transport.retransmits > 0 and s.transport.dup_suppressed > 0
        assert s.total_messages > counts.sent


class TestReliableTransport:
    def test_fifo_restored_under_heavy_reorder(self):
        # Per-link sequence numbers must reach the nodes in order even
        # when nearly every transmission gets a random extra delay.
        spec = FaultSpec(seed=2, reorder_prob=0.9, reorder_max_us=5000.0,
                         dup_prob=0.1)
        cfg = chaos_cfg(spec=spec)
        seen = {}
        orders_checked = 0

        machine = Machine(
            MachineParams(n_nodes=cfg.nprocs, granularity=cfg.granularity),
            protocol=cfg.protocol, faults=spec,
        )
        orig = machine.deliver_to_node

        def watching(msg):
            nonlocal orders_checked
            if msg.seq >= 0:
                last = seen.get((msg.src, msg.dst), -1)
                assert msg.seq == last + 1, "per-link FIFO violated"
                seen[(msg.src, msg.dst)] = msg.seq
                orders_checked += 1
            orig(msg)

        machine.deliver_to_node = watching
        from repro.apps import make_app
        from repro.runtime.program import run_program

        app = make_app(cfg.app, scale=cfg.scale)
        app.setup(machine)
        run_program(machine, app.program, nprocs=cfg.nprocs,
                    sequential_time_us=app.sequential_time_us())
        assert orders_checked > 50
        assert machine.stats.transport.reorder_buffered > 0

    def test_drop_recovery_and_counters(self):
        r = run_experiment(chaos_cfg())
        t = r.stats.transport
        assert r.stats.speedup > 0
        assert t.drops > 0
        assert t.timeouts >= t.drops  # every lost copy timed out
        assert t.retransmits >= 1
        assert t.dup_suppressed >= t.dup_injected - t.drops
        # Acks are real wire messages, counted as traffic.
        assert r.stats.msg_count[ACK_MTYPE] == t.acks_sent
        assert t.acks_sent > 0

    def test_retransmit_exhaustion_raises(self):
        spec = FaultSpec(seed=0, drop_prob=1.0, max_retransmits=2,
                         rto_us=100.0)
        with pytest.raises(TransportError):
            run_experiment(chaos_cfg(spec=spec))

    def test_transport_error_is_simulation_error(self):
        # Deterministic outcome: the exec layer records and caches it.
        assert issubclass(TransportError, SimulationError)

    def test_exhaustion_recorded_and_cached(self, tmp_path):
        spec = FaultSpec(seed=0, drop_prob=1.0, max_retransmits=2,
                         rto_us=100.0)
        cfg = chaos_cfg(spec=spec)
        cache = ResultCache(tmp_path)
        rec = execute_many([cfg], cache=cache)[cfg]
        assert not rec.ok and rec.error_type == "TransportError"
        hit = cache.get(cfg)
        assert hit is not None and hit.error_type == "TransportError"


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        a = run_experiment(chaos_cfg())
        b = run_experiment(chaos_cfg())
        assert _stats_sha(a) == _stats_sha(b)

    def test_different_seed_differs(self):
        a = run_experiment(chaos_cfg())
        b = run_experiment(
            chaos_cfg(spec=FaultSpec(seed=99, drop_prob=0.05,
                                     dup_prob=0.01, reorder_prob=0.02))
        )
        assert _stats_sha(a) != _stats_sha(b)

    def test_fault_free_stats_have_no_chaos_keys(self):
        r = run_experiment(chaos_cfg(spec=None))
        d = r.stats.to_dict()
        assert "transport" not in d
        assert "drops" not in r.stats.summary()


class TestConfigPlumbing:
    def test_label_carries_chaos_suffix(self):
        assert "chaos[" in chaos_cfg().label()
        assert "chaos[" not in chaos_cfg(spec=None).label()

    def test_serialize_round_trip_with_faults(self):
        cfg = chaos_cfg()
        clone = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert clone == cfg
        assert isinstance(clone.faults, FaultSpec)

    def test_fault_free_payload_unchanged(self):
        # Pre-chaos cache keys stay valid: no 'faults' key at all.
        d = config_to_dict(chaos_cfg(spec=None))
        assert "faults" not in d

    def test_cache_keys_partition_on_spec(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="fp")
        base = chaos_cfg(spec=None)
        k0 = cache.key(base)
        k1 = cache.key(chaos_cfg())
        k2 = cache.key(chaos_cfg(spec=FaultSpec(seed=1, drop_prob=0.05,
                                                dup_prob=0.01,
                                                reorder_prob=0.02)))
        assert len({k0, k1, k2}) == 3


class TestChaosHarness:
    def test_degradation_table_marks_failures(self):
        from repro.exec.serialize import RunRecord
        from repro.harness.chaos import (
            chaos_spec,
            degradation_table,
            failure_rows,
        )

        ok_cfg = chaos_cfg(spec=None)
        bad_cfg = chaos_cfg()
        ok = execute_many([ok_cfg])[ok_cfg]
        bad = RunRecord.from_failure(bad_cfg, TransportError("budget"))
        results = {ok_cfg: ok, bad_cfg: bad}
        text = degradation_table(
            results, ["lu"], ["hlrc"], [1024], [0.0, 0.05]
        )
        assert "FAIL" in text and "base" in text
        rows = failure_rows(results)
        assert len(rows) == 1 and rows[0][1] == "TransportError"
        assert chaos_spec(0.0) is None
        assert chaos_spec(0.05, seed=4).drop_prob == 0.05

    def test_chaos_section_lists_failures(self):
        from repro.exec.serialize import RunRecord
        from repro.harness.chaos import chaos_section

        bad_cfg = chaos_cfg()
        section = chaos_section(
            {bad_cfg: RunRecord.from_failure(bad_cfg, TransportError("x"))},
            ["lu"], ["hlrc"], [1024], [0.05],
        )
        assert "FAIL" in section and "TransportError" in section

    def test_acceptance_matrix_checker_clean_at_5pct(self):
        # The PR's acceptance criterion: all three protocols complete
        # lu and ocean-rowwise at a 5% drop rate with zero findings
        # from the race detector and invariant sanitizer.
        for app in ("lu", "ocean-rowwise"):
            for proto in ("sc", "swlrc", "hlrc"):
                cfg = chaos_cfg(app=app, protocol=proto)
                r = run_experiment(cfg, check=True)
                rep = r.check
                assert rep.ok, f"{cfg.label()}: {rep.describe()}"
                assert r.stats.transport.drops > 0
                assert r.stats.speedup > 0
