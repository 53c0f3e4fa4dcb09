"""Tests for the application suite: registry, cost models, partition
helpers, determinism, and cross-protocol runnability at tiny scale."""

import pytest

from repro.apps import APP_NAMES, ORIGINAL_8, VERSION_GROUPS, make_app
from repro.apps.base import Application
from repro.cluster.config import MachineParams
from repro.cluster.machine import Machine
from repro.harness.calibration import TABLE1
from repro.runtime.program import run_program


class TestRegistry:
    def test_all_twelve_applications_registered(self):
        assert len(APP_NAMES) == 12
        for name in APP_NAMES:
            app = make_app(name, "tiny")
            assert app.name == name

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_app("nonesuch")

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            make_app("lu", scale="gigantic")

    def test_version_groups_cover_all_names(self):
        listed = [v for vs in VERSION_GROUPS.values() for v in vs]
        assert sorted(listed) == sorted(APP_NAMES)

    def test_original_8_subset(self):
        assert len(ORIGINAL_8) == 8
        assert set(ORIGINAL_8) <= set(APP_NAMES)

    def test_overrides_apply(self):
        app = make_app("lu", "tiny", n=128)
        assert app.n == 128


class TestCostModels:
    @pytest.mark.parametrize("name,_size,paper_s", TABLE1)
    def test_full_scale_matches_table1(self, name, _size, paper_s):
        app = make_app(name, "full")
        model_s = app.sequential_time_us() / 1e6
        assert abs(model_s / paper_s - 1.0) < 0.05, (name, model_s, paper_s)

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_scales_are_ordered(self, name):
        tiny = make_app(name, "tiny").sequential_time_us()
        default = make_app(name, "default").sequential_time_us()
        full = make_app(name, "full").sequential_time_us()
        assert 0 < tiny < default < full

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_classification_attributes_present(self, name):
        app = make_app(name, "tiny")
        assert app.writers in ("single", "multiple")
        assert app.access_grain in ("coarse", "fine")
        assert app.sync_grain in ("coarse", "fine")
        assert app.poll_dilation >= 0


class TestSplit:
    def test_even_split(self):
        assert Application.split(16, 4, 0) == (0, 4)
        assert Application.split(16, 4, 3) == (12, 16)

    def test_uneven_split_covers_all(self):
        n, p = 13, 4
        pieces = [Application.split(n, p, r) for r in range(p)]
        assert pieces[0][0] == 0
        assert pieces[-1][1] == n
        for (a, b), (c, d) in zip(pieces, pieces[1:]):
            assert b == c
        sizes = [hi - lo for lo, hi in pieces]
        assert max(sizes) - min(sizes) <= 1

    def test_pattern_varies_and_nonzero(self):
        a = Application.pattern(1, 2)
        b = Application.pattern(1, 3)
        assert a != 0 and b != 0
        assert 0 <= a <= 255


class TestRunnability:
    """Each app must run to completion under each protocol at tiny
    scale; the per-rank compute totals must match the cost model."""

    @pytest.mark.parametrize("name", APP_NAMES)
    @pytest.mark.parametrize("protocol", ["sc", "swlrc", "hlrc"])
    def test_runs_to_completion(self, name, protocol):
        app = make_app(name, "tiny")
        m = Machine(
            MachineParams(n_nodes=4, granularity=1024),
            protocol=protocol,
            poll_dilation=app.poll_dilation,
        )
        m.engine._max_events = 5_000_000
        app.setup(m)
        r = run_program(m, app.program, nprocs=4,
                        sequential_time_us=app.sequential_time_us())
        assert r.stats.parallel_time_us > 0
        assert 0 < r.speedup < 4.5  # never superlinear beyond nprocs

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_compute_totals_match_sequential_model(self, name):
        """Sum of per-rank compute ~ the sequential cost model (so
        speedups are meaningful).  Polling dilation distorts this, so
        measure under interrupts."""
        from repro.cluster.config import NotificationMechanism

        app = make_app(name, "tiny")
        m = Machine(
            MachineParams(n_nodes=4, granularity=1024,
                          mechanism=NotificationMechanism.INTERRUPT),
            protocol="sc",
        )
        m.engine._max_events = 5_000_000
        app.setup(m)
        r = run_program(m, app.program, nprocs=4,
                        sequential_time_us=app.sequential_time_us())
        total = r.stats.total_compute_us
        seq = app.sequential_time_us()
        assert total == pytest.approx(seq, rel=0.30), (name, total, seq)

    def test_deterministic_across_runs(self):
        def run_once():
            app = make_app("volrend-original", "tiny")
            m = Machine(MachineParams(n_nodes=4, granularity=1024),
                        protocol="hlrc", poll_dilation=app.poll_dilation)
            app.setup(m)
            r = run_program(m, app.program, nprocs=4,
                            sequential_time_us=app.sequential_time_us())
            return (r.stats.parallel_time_us, r.stats.read_faults,
                    r.stats.write_faults, r.stats.total_messages)

        assert run_once() == run_once()


class TestLUStructure:
    def test_owner_scatter_is_balanced(self):
        app = make_app("lu", "tiny")
        from collections import Counter

        owners = Counter(
            app.owner(i, j, 16) for i in range(app.nb) for j in range(app.nb)
        )
        assert len(owners) == min(16, app.nb * app.nb)
        assert max(owners.values()) - min(owners.values()) <= app.nb

    def test_blocks_grouped_per_owner_no_page_sharing(self):
        """No two owners' blocks share a 4096-byte page."""
        app = make_app("lu", "tiny")
        m = Machine(MachineParams(n_nodes=4, granularity=4096), protocol="sc")
        app.setup(m)
        page_owner = {}
        for (bi, bj), addr in app._addr.items():
            owner = app.owner(bi, bj, 4)
            for page in range(addr // 4096, (addr + app.block_bytes - 1) // 4096 + 1):
                prev = page_owner.setdefault(page, owner)
                assert prev == owner, f"page {page} shared by {prev} and {owner}"

    def test_work_units_match_formula(self):
        app = make_app("lu", "tiny")
        nb = app.nb
        expected = sum(
            0.5 + 2 * (nb - k - 1) + 2 * (nb - k - 1) ** 2 for k in range(nb)
        )
        assert app.work_units() == expected


class TestBarnesVersions:
    def test_original_uses_more_locks_under_lrc(self):
        counts = {}
        for proto in ("sc", "hlrc"):
            app = make_app("barnes-original", "tiny")
            m = Machine(MachineParams(n_nodes=4, granularity=1024),
                        protocol=proto)
            app.setup(m)
            r = run_program(m, app.program, nprocs=4,
                            sequential_time_us=app.sequential_time_us())
            counts[proto] = r.stats.total_lock_acquires
        assert counts["hlrc"] > 3 * counts["sc"]

    def test_spatial_uses_no_locks(self):
        app = make_app("barnes-spatial", "tiny")
        m = Machine(MachineParams(n_nodes=4, granularity=1024), protocol="hlrc")
        app.setup(m)
        r = run_program(m, app.program, nprocs=4,
                        sequential_time_us=app.sequential_time_us())
        assert r.stats.total_lock_acquires == 0

    def test_spatial_runs_on_two_nodes(self):
        """The build imbalance is capped at the node count, so no rank's
        build share goes negative and a 2-node cell finishes."""
        app = make_app("barnes-spatial", "tiny")
        for n in (1, 2, 3, 16):
            weights = [app._build_weight(r, n, 0) for r in range(n)]
            assert min(weights) >= 0
            assert sum(weights) == pytest.approx(n)
        m = Machine(MachineParams(n_nodes=2, granularity=1024), protocol="hlrc")
        app.setup(m)
        r = run_program(m, app.program, nprocs=2,
                        sequential_time_us=app.sequential_time_us())
        assert r.stats.parallel_time_us > 0

    def test_parttree_locks_between_the_two(self):
        results = {}
        for name in ("barnes-original", "barnes-parttree", "barnes-spatial"):
            app = make_app(name, "tiny")
            m = Machine(MachineParams(n_nodes=4, granularity=1024),
                        protocol="hlrc")
            app.setup(m)
            r = run_program(m, app.program, nprocs=4,
                            sequential_time_us=app.sequential_time_us())
            results[name] = r.stats.total_lock_acquires
        assert results["barnes-original"] > results["barnes-parttree"]
        assert results["barnes-parttree"] > results["barnes-spatial"]

    def test_spatial_cell_ownership_scatters(self):
        app = make_app("barnes-spatial", "tiny")
        owners = [app.spatial_cell_owner(c, 0, 16) for c in range(64)]
        # Not a contiguous slab: adjacent cells often differ in owner.
        changes = sum(1 for a, b in zip(owners, owners[1:]) if a != b)
        assert changes > 16


class TestOceanVersions:
    def test_rowwise_rows_misalign_with_pages_at_full_scale(self):
        app = make_app("ocean-rowwise", "full")
        assert app.row_bytes == 4112  # 514 * 8: the paper's misfit
        assert app.row_bytes % 4096 != 0

    def test_original_column_reads_are_element_sized(self):
        """The fine-grain column-border pattern: 8-byte reads."""
        from repro.stats import install_trace

        app = make_app("ocean-original", "tiny")
        m = Machine(MachineParams(n_nodes=4, granularity=1024), protocol="sc")
        app.setup(m)
        tr = install_trace(m)
        run_program(m, app.program, nprocs=4,
                    sequential_time_us=app.sequential_time_us())
        assert tr.read_sizes.get(8, 0) > 0
        assert tr.median_read_bytes <= 64
