"""The scaling redesign: protocol registry, the dense vector clock at
every width, sharded copysets, tiered hop distances, the scale sweep, and the
bit-identity contract at paper scale (48-cell stats-sha fingerprint)."""

import hashlib
import json
import random

import pytest

from repro.cluster.config import LINE_TOPOLOGY_MAX_NODES, hops_between
from repro.core import registry
from repro.core.sc import (
    PLAIN_COPYSET_MAX,
    ShardedCopyset,
    copyset_bytes,
    make_copyset,
)
from repro.core.timestamps import VectorClock
from repro.harness.experiment import RunConfig, run_experiment


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
# sharded copysets
# ---------------------------------------------------------------------------
class TestShardedCopyset:
    def test_set_semantics(self):
        cs = ShardedCopyset()
        for node in (5, 70, 5, 300, 64):
            cs.add(node)
        assert len(cs) == 4
        assert 70 in cs and 6 not in cs
        assert sorted(cs) == [5, 64, 70, 300]
        cs.discard(70)
        cs.discard(70)  # idempotent
        assert len(cs) == 3 and 70 not in cs
        assert cs == {5, 64, 300}
        assert cs - {5} == {64, 300}
        cs.clear()
        assert len(cs) == 0 and list(cs) == []

    def test_iteration_order_is_sorted(self):
        cs = ShardedCopyset()
        for node in (900, 3, 450, 64, 65):
            cs.add(node)
        assert list(cs) == sorted(cs)

    def test_make_copyset_threshold(self):
        assert isinstance(make_copyset(PLAIN_COPYSET_MAX), set)
        assert isinstance(make_copyset(PLAIN_COPYSET_MAX + 1),
                          ShardedCopyset)

    def test_bytes_used_sparse(self):
        cs = make_copyset(1024)
        for node in range(0, 1024, 128):  # 8 sharers across 8 shards
            cs.add(node)
        # o(N): bounded by sharers, not by the 1024-node bitmap
        assert copyset_bytes(cs) < 1024 // 8
        assert copyset_bytes({1, 2, 3}) == 12


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
        assert len(report.cells) == 4
        assert report.ok
        assert all(c.check_ok for c in report.cells)
        assert all(c.speedup > 0 for c in report.cells)

        text = render_scale_report(report)
        assert "### Speedup" in text
        assert "### Metadata bytes per block" in text
        assert "zero findings" in text

        data = json.loads(report.to_json())
        assert len(data["cells"]) == 4
        assert data["cells"][0]["metadata"]["per_block"] > 0

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
            assert big.per_block_dense > small.per_block_dense, proto
        t16 = report.cell("lu", "tardis", 1024, 16).metadata
        t128 = report.cell("lu", "tardis", 1024, 128).metadata
        assert t16.per_block == t128.per_block


# ---------------------------------------------------------------------------
# bit-identity at paper scale
# ---------------------------------------------------------------------------
#: stats-shas of the 48-cell (4 apps x 3 protocols x 4 granularities)
#: matrix at 16 nodes, captured on the pre-refactor seed.  The registry,
#: Clock, copyset, and hop-table redesigns are representation-only at
#: paper scale: these must never change.
BASELINE_SHAS = {
    "fft/hlrc/1024": "bfa73a016739de33", "fft/hlrc/256": "afaab7ccdac0037c",
    "fft/hlrc/4096": "40f5a5f2bfcbe470", "fft/hlrc/64": "ae0421e381d49e38",
    "fft/sc/1024": "ae98e16d12d5c2d5", "fft/sc/256": "c9d25a9b3cdeabe0",
    "fft/sc/4096": "b4b0908ea93b1c2f", "fft/sc/64": "08aeb2f585b70a34",
    "fft/swlrc/1024": "2ed52ce486c4b291", "fft/swlrc/256": "f5f6f62372d170a5",
    "fft/swlrc/4096": "bee09c65904a468f", "fft/swlrc/64": "734c45eca22c5d72",
    "lu/hlrc/1024": "ff62a23ec4f4666b", "lu/hlrc/256": "3d08460a328e6d50",
    "lu/hlrc/4096": "d739a26b340774a1", "lu/hlrc/64": "1a0390d3a1b1caa1",
    "lu/sc/1024": "b1f41edd822f5fdd", "lu/sc/256": "1cc04aef7ec9a2cb",
    "lu/sc/4096": "e4d1c3f3ab57afcf", "lu/sc/64": "c38a74cf30777a19",
    "lu/swlrc/1024": "3e59b93ac9c851bf", "lu/swlrc/256": "3f3383ea9916086b",
    "lu/swlrc/4096": "1c82e637b9acac7d", "lu/swlrc/64": "915dcc79e1fb4b1a",
    "ocean-rowwise/hlrc/1024": "6aca90442c59080c",
    "ocean-rowwise/hlrc/256": "ebc31e1bac8cf603",
    "ocean-rowwise/hlrc/4096": "70b627cc85638d3b",
    "ocean-rowwise/hlrc/64": "e293a75e5a4b1a2d",
    "ocean-rowwise/sc/1024": "927fc00aa228d850",
    "ocean-rowwise/sc/256": "68113f1760d6b147",
    "ocean-rowwise/sc/4096": "eaefbff107dfd997",
    "ocean-rowwise/sc/64": "99f5756e956de678",
    "ocean-rowwise/swlrc/1024": "35eb4d4f1d03bb70",
    "ocean-rowwise/swlrc/256": "c6b25949ab1a1fb0",
    "ocean-rowwise/swlrc/4096": "477a53fb80fbc901",
    "ocean-rowwise/swlrc/64": "ba01a12bbe052897",
    "water-nsquared/hlrc/1024": "b8cd20d7af7d2489",
    "water-nsquared/hlrc/256": "cf5f54127d855031",
    "water-nsquared/hlrc/4096": "e30e4dfb98b2b0b5",
    "water-nsquared/hlrc/64": "fa806468c9f2e019",
    "water-nsquared/sc/1024": "482eeb9f8f4908fd",
    "water-nsquared/sc/256": "22cbaabe444346cb",
    "water-nsquared/sc/4096": "4b948cc642c4a5ed",
    "water-nsquared/sc/64": "8511414547e7b8b2",
    "water-nsquared/swlrc/1024": "0f256a70218bc6b4",
    "water-nsquared/swlrc/256": "5e7039329e4b45bf",
    "water-nsquared/swlrc/4096": "10cfcb7b3e9d8bc8",
    "water-nsquared/swlrc/64": "71e6d2f41dddcf85",
}


def stats_sha(stats) -> str:
    payload = json.dumps(stats.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@pytest.mark.parametrize("app", ["lu", "fft", "ocean-rowwise",
                                 "water-nsquared"])
def test_fingerprint_matrix_bit_identical(app):
    """12 cells per app (3 protocols x 4 granularities), 16 nodes."""
    mismatches = []
    for protocol in ("sc", "swlrc", "hlrc"):
        for granularity in (64, 256, 1024, 4096):
            result = run_experiment(RunConfig(
                app=app, protocol=protocol, granularity=granularity,
                nprocs=16, scale="tiny",
            ))
            key = f"{app}/{protocol}/{granularity}"
            got = stats_sha(result.stats)
            if got != BASELINE_SHAS[key]:
                mismatches.append(f"{key}: {got} != {BASELINE_SHAS[key]}")
    assert not mismatches, "\n".join(mismatches)
