"""The scaling redesign: protocol registry, the dense vector clock at
every width, wide-machine copysets, tiered hop distances, the scale sweep, and the
bit-identity contract at paper scale (the 16-node pins of
tests/golden_shas.json; the other golden cells are in tests/test_golden.py)."""

import json
import random

import pytest

from repro.cluster.config import LINE_TOPOLOGY_MAX_NODES, hops_between
from repro.core import registry
from repro.core.sc import PLAIN_COPYSET_MAX, copyset_bytes
from repro.core.timestamps import VectorClock
from tests.test_golden import assert_golden, golden


# ---------------------------------------------------------------------------
# protocol registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_paper_trio_plus_extensions_available(self):
        names = registry.available_protocols()
        for name in ("sc", "swlrc", "hlrc", "dc", "erc", "tardis"):
            assert name in names

    def test_get_protocol_returns_classes(self):
        from repro.core.hlrc import HLRCProtocol
        from repro.core.sc import SCProtocol

        assert registry.get_protocol("sc") is SCProtocol
        assert registry.get_protocol("hlrc") is HLRCProtocol

    def test_memory_models(self):
        assert registry.memory_model_of("sc") == "sc"
        for name in ("swlrc", "hlrc", "dc", "erc", "tardis"):
            assert registry.memory_model_of(name) == "lrc"

    def test_unknown_protocol_raises(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            registry.get_protocol("nope")

    def test_protocol_orderings(self):
        assert registry.evaluated_protocols() == ("sc", "swlrc", "hlrc")
        assert registry.scaling_protocols() == ("sc", "swlrc", "hlrc",
                                                "tardis")

    def test_canary_registers_through_registry(self):
        import repro.mc.broken  # noqa: F401 -- import-time registration

        info = registry.protocol_info("swlrc-broken")
        assert info.memory_model == "lrc"
        assert "swlrc-broken" in registry.available_protocols()
        # ...but the canary never leaks into the evaluation sets.
        assert "swlrc-broken" not in registry.evaluated_protocols()
        assert "swlrc-broken" not in registry.scaling_protocols()

    def test_machine_dispatches_through_registry(self):
        from repro import Machine, MachineParams

        with pytest.raises(ValueError, match="unknown protocol"):
            Machine(MachineParams(n_nodes=2), protocol="bogus")

    def test_registry_in_fingerprint_scope(self):
        from repro.exec.cache import _fingerprint_relevant

        assert _fingerprint_relevant("core/registry.py")
        assert _fingerprint_relevant("core/tardis.py")
        assert _fingerprint_relevant("core/timestamps.py")


# ---------------------------------------------------------------------------
# vector clocks at every width
# ---------------------------------------------------------------------------
def _random_ops(n, seed, steps=300):
    """One seeded op trace, applied to clocks and to plain-list oracles
    in lockstep; any divergence fails immediately."""
    rng = random.Random(seed)
    clocks = [VectorClock(n) for _ in range(3)]
    oracle = [[0] * n for _ in range(3)]
    for step in range(steps):
        i = rng.randrange(3)
        j = rng.randrange(3)
        op = rng.randrange(5)
        if op == 0:
            node = rng.randrange(n)
            oracle[i][node] += 1
            assert clocks[i].tick(node) == oracle[i][node]
        elif op == 1:
            clocks[i].merge(clocks[j])
            oracle[i] = [max(a, b) for a, b in zip(oracle[i], oracle[j])]
        elif op == 2:
            # merge the wire form, as a grant or barrier release does
            clocks[i].merge(clocks[j].as_tuple())
            oracle[i] = [max(a, b) for a, b in zip(oracle[i], oracle[j])]
        elif op == 3:
            want = all(a >= b for a, b in zip(oracle[i], oracle[j]))
            assert clocks[i].dominates(clocks[j]) == want, (step, i, j)
            assert clocks[i].dominates(tuple(oracle[j])) == want, (step, i, j)
        else:
            node = rng.randrange(n)
            assert clocks[i][node] == oracle[i][node]
            copy = clocks[i].copy()
            copy.tick(node)
            assert copy[node] == clocks[i][node] + 1
        assert clocks[i].as_tuple() == tuple(oracle[i]), step
        assert len(clocks[i]) == n


class TestClockDifferential:
    @pytest.mark.parametrize("n", [16, 64, 1024])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_list_oracle_op_by_op(self, n, seed):
        _random_ops(n, seed)

    def test_cross_representation_merge(self):
        """A clock merges another clock or its wire tuple alike."""
        a, b = VectorClock(8), VectorClock(8)
        a.tick(3)
        b.tick(5)
        b.merge(a)               # clock operand
        a.merge(b.as_tuple())    # wire-form operand
        assert a.as_tuple() == b.as_tuple() == (0, 0, 0, 1, 0, 1, 0, 0)

    def test_bytes_used_dense_at_every_width(self):
        for n in (16, 64, 65, 1024):
            assert VectorClock(n).bytes_used() == 8 * n


# ---------------------------------------------------------------------------
# wide-machine copysets
# ---------------------------------------------------------------------------
class TestCopyset:
    def test_wide_fanout_invalidates_in_ascending_order(self):
        """Above PLAIN_COPYSET_MAX nodes the write fan-out visits the
        sharers in ascending node order, whatever order they registered
        in and whatever order their set iterates."""
        from repro import Machine, MachineParams, run_program

        n = PLAIN_COPYSET_MAX + 1
        m = Machine(MachineParams(n_nodes=n, granularity=1024), protocol="sc")
        seg = m.alloc(1024, "x")
        m.place(seg.base, 1024, 0)
        block = seg.base // 1024
        order = {64: 0, 33: 1, 1: 2}  # reader -> registration slot
        invals = []
        send = m.send

        def recording_send(msg):
            if msg.mtype == "inval":
                invals.append(msg.dst)
            send(msg)

        m.send = recording_send

        def program(dsm, rank, nprocs):
            if rank in order:
                yield from dsm.compute(1000.0 * order[rank])
                yield from dsm.touch_read(seg.base, 8)
            yield from dsm.barrier(0, participants=nprocs)
            if rank == 2:
                sharers = m.protocol.dir[block].sharers
                # the case the rule exists for: set order is not ascending
                assert list(sharers) != sorted(sharers)
                yield from dsm.touch_write(seg.base, 8, pattern=1)
            yield from dsm.barrier(1, participants=nprocs)

        run_program(m, program, nprocs=n)
        assert invals == [0, 1, 33, 64]

    def test_bytes_used_sparse(self):
        # 4 B a sharer, plus an 8 B header per occupied 64-node group
        # above PLAIN_COPYSET_MAX: 8 sharers across 8 groups
        assert copyset_bytes(set(range(0, 1024, 128)), 1024) == 8 * 4 + 8 * 8 == 96
        assert copyset_bytes({1, 2, 3}, 16) == 12
        assert copyset_bytes({1, 2, 3}, PLAIN_COPYSET_MAX) == 12
        assert copyset_bytes({1, 2, 3}, PLAIN_COPYSET_MAX + 1) == 20
        # o(N): bounded by sharers, not by the 1024-node bitmap
        assert copyset_bytes(set(range(0, 1024, 128)), 1024) < 1024 // 8


# ---------------------------------------------------------------------------
# hop distances
# ---------------------------------------------------------------------------
class TestHopDistances:
    def test_16_nodes_unchanged(self):
        # The paper's line of three switches: nodes 0-5, 6-11, 12-15.
        assert hops_between(0, 5, 16) == 0
        assert hops_between(0, 6, 16) == 1
        assert hops_between(0, 12, 16) == 2
        assert hops_between(11, 12, 16) == 1
        # Legacy call sites omit n_nodes and get the same line.
        assert hops_between(0, 12) == 2

    def test_32_nodes_still_a_line(self):
        assert LINE_TOPOLOGY_MAX_NODES == 32
        assert hops_between(0, 31, 32) == 5

    def test_128_nodes_tiered(self):
        assert hops_between(0, 5, 128) == 0     # same leaf
        assert hops_between(0, 7, 128) == 2     # same spine group
        assert hops_between(0, 47, 128) == 2    # leaf 7, last in group
        assert hops_between(0, 48, 128) == 4    # leaf 8, next spine
        assert hops_between(0, 127, 128) == 4   # all within one core

    def test_1024_nodes_constant_diameter(self):
        assert hops_between(0, 5, 1024) == 0
        assert hops_between(0, 47, 1024) == 2
        assert hops_between(0, 300, 1024) == 4      # same core group
        assert hops_between(0, 1023, 1024) == 6     # across core groups
        # Diameter is 6 no matter how far apart the nodes are.
        assert max(hops_between(0, b, 1024) for b in range(0, 1024, 97)) == 6

    def test_network_hop_table_matches_helper(self):
        from repro.cluster.config import MachineParams, switch_of
        from repro.net.myrinet import Network
        from repro.sim.engine import Engine
        from repro.stats.counters import Stats

        for n in (16, 128):
            params = MachineParams(n_nodes=n)
            net = Network(Engine(), params, Stats(n), lambda m: None)
            for a, b in ((0, n - 1), (1, n // 2), (7, 13)):
                expect = hops_between(a, b, n) * params.switch_hop_us
                assert net._hop_us[switch_of(a)][switch_of(b)] == expect


# ---------------------------------------------------------------------------
# scale sweep
# ---------------------------------------------------------------------------
class TestScaleSweep:
    def test_smoke_with_checkers(self):
        from repro.harness.scale import render_scale_report, scale_sweep

        report = scale_sweep(
            apps=("lu",),
            protocols=("sc", "tardis"),
            granularities=(1024,),
            node_counts=(16, 64),
            check=True,
        )
        assert len(report.records) == 4
        assert not report.failed
        assert all(r.check["races"] == r.check["violations"] == 0
                   for r in report.records.values())
        assert all(r.speedup > 0 for r in report.records.values())

        text = render_scale_report(report)
        assert "### Speedup" in text
        assert "### Metadata bytes per block" in text
        assert "zero findings" in text

        data = json.loads(report.to_json())
        assert len(data["cells"]) == 4
        assert {c["status"] for c in data["cells"]} == {"ok"}
        assert data["cells"][0]["metadata"]["per_block"] > 0

    def test_failed_cell_does_not_abort_the_sweep(self, monkeypatch, tmp_path):
        """One crashing cell is a FAIL in the markdown, the JSON and the
        exit code of ``repro-dsm scale``; every other cell still runs."""
        import repro.harness.experiment as exp
        from repro.harness.cli import main

        real = exp.run_experiment

        def crash_tardis_64(cfg, **kw):
            if (cfg.protocol, cfg.nprocs) == ("tardis", 64):
                raise RuntimeError("planted crash")
            return real(cfg, **kw)

        monkeypatch.setattr(exp, "run_experiment", crash_tardis_64)
        md, js = tmp_path / "scale.md", tmp_path / "scale.json"
        rc = main(["scale", "--apps", "lu", "--protocols", "sc,tardis",
                   "--granularities", "1024", "--nodes", "16,64",
                   "--no-cache", "--out", str(md), "--json", str(js)])
        assert rc == 1

        text = md.read_text()
        assert ("**FAILED: 1 cell(s)** -- lu/tardis-1024/polling/p64 "
                "(RuntimeError)") in text
        assert "| 64 | 1.10 | FAIL (RuntimeError) |" in text
        assert "| 16 | 19 / 7 | 20 / 20 |" in text  # the rest ran
        cells = json.loads(js.read_text())["cells"]
        assert [(c["protocol"], c["n_nodes"], c["status"]) for c in cells] == [
            ("sc", 16, "ok"), ("sc", 64, "ok"),
            ("tardis", 16, "ok"), ("tardis", 64, "FAIL"),
        ]
        assert cells[3]["error_type"] == "RuntimeError"
        assert cells[3]["metadata"] is None
        assert cells[2]["metadata"]["per_block"] > 0

    def test_metadata_growth_separation(self):
        """The acceptance curve: per-block metadata flat in N for
        tardis, growing for the dense equivalents of the paper trio."""
        from repro.harness.scale import scale_sweep

        report = scale_sweep(
            apps=("lu",),
            granularities=(1024,),
            node_counts=(16, 128),
        )
        for proto in ("sc", "swlrc", "hlrc"):
            small = report.cell("lu", proto, 1024, 16).metadata
            big = report.cell("lu", proto, 1024, 128).metadata
            assert big["per_block_dense"] > small["per_block_dense"], proto
        t16 = report.cell("lu", "tardis", 1024, 16).metadata
        t128 = report.cell("lu", "tardis", 1024, 128).metadata
        assert t16["per_block"] == t128["per_block"]


# ---------------------------------------------------------------------------
# bit-identity at paper scale
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("app", ["lu", "fft", "ocean-rowwise",
                                 "water-nsquared"])
def test_fingerprint_matrix_bit_identical(app):
    """16 cells per app (4 scaling protocols x 4 granularities), 16 nodes,
    against their pins in tests/golden_shas.json.  The registry, Clock,
    copyset and hop-table redesigns are representation-only at paper
    scale: these must never change."""
    configs = [c for c in golden.golden_configs()
               if c.app == app and c.nprocs == 16]
    assert len(configs) == 16
    assert_golden(configs)
