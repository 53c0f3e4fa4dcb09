"""Tests for the memory substrate: blocks, address space, access
control, node stores, home table."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.config import PAGE_SIZE
from repro.memory import (
    INV,
    RO,
    RW,
    AccessControl,
    AddressSpace,
    BlockSpace,
    HomeTable,
    NodeStore,
    tag_name,
)


class TestBlockSpace:
    def test_block_of(self):
        bs = BlockSpace(256)
        assert bs.block_of(0) == 0
        assert bs.block_of(255) == 0
        assert bs.block_of(256) == 1

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            BlockSpace(64).block_of(-1)

    def test_bad_granularity_rejected(self):
        with pytest.raises(ValueError):
            BlockSpace(100)

    def test_blocks_in_region_spanning(self):
        bs = BlockSpace(64)
        assert list(bs.blocks_in_region(60, 10)) == [0, 1]
        assert list(bs.blocks_in_region(0, 64)) == [0]
        assert list(bs.blocks_in_region(64, 64)) == [1]

    def test_blocks_in_region_empty(self):
        assert list(BlockSpace(64).blocks_in_region(10, 0)) == []

    def test_block_slices_cover_region_exactly(self):
        bs = BlockSpace(64)
        pieces = list(bs.block_slices(100, 200))
        # Contiguous coverage
        assert sum(p[3] for p in pieces) == 200
        assert pieces[0][2] == 0
        for (b1, o1, r1, l1), (b2, o2, r2, l2) in zip(pieces, pieces[1:]):
            assert r2 == r1 + l1
            assert b2 == b1 + 1
            assert o2 == 0

    @given(
        addr=st.integers(min_value=0, max_value=100_000),
        size=st.integers(min_value=1, max_value=20_000),
        g=st.sampled_from([64, 256, 1024, 4096]),
    )
    @settings(max_examples=200, deadline=None)
    def test_block_slices_consistent_with_blocks_in_region(self, addr, size, g):
        bs = BlockSpace(g)
        pieces = list(bs.block_slices(addr, size))
        assert [p[0] for p in pieces] == list(bs.blocks_in_region(addr, size))
        assert sum(p[3] for p in pieces) == size
        for b, off, roff, length in pieces:
            assert 0 <= off < g
            assert off + length <= g
            assert bs.block_of(addr + roff) == b

    def test_fragmentation_metric(self):
        bs = BlockSpace(4096)
        # Paper Section 5.2.2: an 8-byte read fetching a page is >99%.
        assert bs.fragmentation(8, 1) > 0.99
        assert bs.fragmentation(4096, 1) == 0.0
        assert bs.fragmentation(0, 0) == 0.0

    def test_page_of_block(self):
        bs = BlockSpace(1024)
        assert bs.page_of_block(0) == 0
        assert bs.page_of_block(3) == 0
        assert bs.page_of_block(4) == 1


class TestAddressSpace:
    def test_alloc_page_aligned(self):
        space = AddressSpace()
        seg = space.alloc(100, "a")
        assert seg.base % PAGE_SIZE == 0

    def test_segments_do_not_overlap(self):
        space = AddressSpace()
        a = space.alloc(5000, "a")
        b = space.alloc(5000, "b")
        assert b.base >= a.end

    def test_duplicate_name_rejected(self):
        space = AddressSpace()
        space.alloc(10, "x")
        with pytest.raises(ValueError):
            space.alloc(10, "x")

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(0, "x")

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace().alloc(10, "x", align=3)

    def test_segment_addr_bounds_checked(self):
        seg = AddressSpace().alloc(10, "x")
        assert seg.addr(0) == seg.base
        assert seg.addr(9) == seg.base + 9
        with pytest.raises(IndexError):
            seg.addr(10)

    def test_segment_lookup(self):
        space = AddressSpace()
        a = space.alloc(100, "a")
        assert space.segment("a") is a
        assert space.segment_at(a.base + 50) is a
        assert space.segment_at(a.base - 1) is None

    def test_custom_alignment(self):
        space = AddressSpace()
        seg = space.alloc(10, "x", align=64)
        assert seg.base % 64 == 0


class TestAccessControl:
    def test_default_invalid(self):
        ac = AccessControl()
        assert ac.tag(42) == INV
        assert not ac.permits(42, write=False)
        assert not ac.permits(42, write=True)

    def test_ro_permits_reads_only(self):
        ac = AccessControl()
        ac.set_tag(1, RO)
        assert ac.permits(1, write=False)
        assert not ac.permits(1, write=True)

    def test_rw_permits_everything(self):
        ac = AccessControl()
        ac.set_tag(1, RW)
        assert ac.permits(1, write=False)
        assert ac.permits(1, write=True)

    def test_invalidate_returns_whether_present(self):
        ac = AccessControl()
        ac.set_tag(1, RO)
        assert ac.invalidate(1)
        assert not ac.invalidate(1)
        assert ac.tag(1) == INV

    def test_downgrade_only_from_rw(self):
        ac = AccessControl()
        ac.set_tag(1, RW)
        assert ac.downgrade(1)
        assert ac.tag(1) == RO
        assert not ac.downgrade(1)

    def test_set_inv_keeps_table_sparse(self):
        ac = AccessControl()
        ac.set_tag(1, RW)
        ac.set_tag(1, INV)
        assert len(ac) == 0

    def test_bad_tag_rejected(self):
        with pytest.raises(ValueError):
            AccessControl().set_tag(1, 5)

    @given(ops=st.lists(
        st.tuples(
            st.sampled_from(("set", "invalidate", "downgrade")),
            # past the 64-entry initial capacity and a doubling or two
            st.integers(min_value=0, max_value=300),
            st.sampled_from((INV, RO, RW)),
        ),
        max_size=80,
    ))
    @settings(max_examples=200, deadline=None)
    def test_fast_paths_track_tags(self, ops):
        """``permits_write`` holds exactly for RW blocks and
        ``permits_read`` exactly for non-INV ones, whatever sequence of
        tag changes (including blocks past the table's capacity) led
        there."""
        ac = AccessControl()
        for op, block, tag in ops:
            if op == "set":
                ac.set_tag(block, tag)
            elif op == "invalidate":
                ac.invalidate(block)
            else:
                ac.downgrade(block)
            for b in range(0, 320):
                t = ac.tag(b)
                assert ac.permits_write(b) == (t == RW), (b, t)
                assert ac.permits_read(b) == (t != INV), (b, t)
                assert ac.permits(b, True) == ac.permits_write(b)
                assert ac.permits(b, False) == ac.permits_read(b)

    def test_tag_names(self):
        assert tag_name(INV) == "INV"
        assert tag_name(RO) == "RO"
        assert tag_name(RW) == "RW"


class TestNodeStore:
    def test_blocks_materialize_zeroed(self):
        store = NodeStore(64)
        assert not store.has_block(3)
        blk = store.block(3)
        assert len(blk) == 64
        assert bytes(blk) == bytes(64)
        assert store.has_block(3)

    def test_install_and_snapshot_independent(self):
        store = NodeStore(64)
        data = np.arange(64, dtype=np.uint8)
        store.install(0, data)
        snap = store.snapshot(0)
        store.block(0)[0] = 255
        assert snap[0] == 0

    def test_install_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            NodeStore(64).install(0, np.zeros(32, dtype=np.uint8))

    def test_region_roundtrip_across_blocks(self):
        store = NodeStore(64)
        data = np.arange(200, dtype=np.uint8)
        store.write_region(30, data)
        out = store.read_region(30, 200)
        assert np.array_equal(out, data)

    @given(
        addr=st.integers(min_value=0, max_value=1000),
        size=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_region_roundtrip_property(self, addr, size):
        store = NodeStore(256)
        data = np.random.default_rng(addr * 1000 + size).integers(
            0, 256, size, dtype=np.uint8
        )
        store.write_region(addr, data)
        assert np.array_equal(store.read_region(addr, size), data)

    def test_drop_frees_block(self):
        store = NodeStore(64)
        store.block(1)
        store.drop(1)
        assert not store.has_block(1)


class TestHomeTable:
    def test_static_home_round_robin_by_page(self):
        ht = HomeTable(4, 1024)
        # 4 blocks per page; all blocks of page p have static home p%4.
        for blk in range(16):
            page = blk // 4
            assert ht.static_home(blk) == page % 4

    def test_first_touch_claims_once(self):
        ht = HomeTable(4, 1024)
        assert ht.claim_first_touch(5, 2)
        assert not ht.claim_first_touch(5, 3)
        assert ht.home(5) == 2

    def test_migration_counted_only_when_moving(self):
        ht = HomeTable(4, 4096)
        static = ht.static_home(7)
        ht.claim_first_touch(7, static)
        assert ht.migrations == 0
        other = (static + 1) % 4
        ht.claim_first_touch(8, other) if ht.static_home(8) != other else None

    def test_place_region(self):
        ht = HomeTable(4, 1024)
        ht.place_region(0, 4096, 3)
        for blk in range(4):
            assert ht.home(blk) == 3

    def test_route_target_uses_cache(self):
        ht = HomeTable(4, 4096)
        blk = 9
        assert ht.route_target(0, blk) == ht.static_home(blk)
        ht.learn(0, blk, 2)
        assert ht.route_target(0, blk) == 2

    def test_home_or_static(self):
        ht = HomeTable(4, 4096)
        assert ht.home(3) is None
        assert ht.home_or_static(3) == ht.static_home(3)
        ht.place(3, 1)
        assert ht.home_or_static(3) == 1

    def test_place_bad_node_rejected(self):
        with pytest.raises(ValueError):
            HomeTable(4, 4096).place(0, 7)
