"""Oracle tests for the simulator's byte-plane kernels: the access-tag
table (``memory.access_control``), twin/diff run extraction
(``core.diff``), block buffers (``memory.storage``), typed views and
packing (``runtime.shared_array``) and the resequencing ring
(``net.reliable``).

Each kernel is driven through seeded inputs side by side with a plain
reference model -- a byte loop, a dense byte scan, a list of ints, or
numpy -- and must agree with it exactly: same values, same iteration
order, same diff runs down to the byte.  The unit-level counterpart of
the stats-sha pins, which hold the same contract for whole cells.
"""

import json
import random
import subprocess
import sys
from array import array
from pathlib import Path
from typing import List, Tuple

import numpy as np
import pytest

from repro.core.diff import diff_runs
from repro.core.timestamps import VectorClock
from repro.memory.access_control import AccessControl as TagArray
from repro.memory.blocks import BlockSpace
from repro.memory.storage import NodeStore, as_payload
from repro.net.reliable import SeqRing
from repro.runtime.shared_array import dtype, pack_scalar, pack_values, typed_view

SEEDS = [0, 1, 2, 7, 1997]


# ----------------------------------------------------------------------
# tag arrays
# ----------------------------------------------------------------------
#: block-id spans: a paper-scale table, and the ids of a 1024-node
#: machine (64 blocks a node) that grow the table far past its capacity
TAG_SPANS = [200, 1024 * 64]


def _dense_scan(ta):
    """The reference audit: an ascending scan of the dense byte array."""
    return [(b, t) for b, t in enumerate(ta._tags) if t]


def _drive_tags(ta, rng: random.Random, trace: list, span: int) -> None:
    """One seeded op sequence; every observable return lands in trace,
    and every 50 ops the bulk audit is checked against a dense scan."""
    for step in range(400):
        op = rng.randrange(6)
        block = rng.randrange(span)
        if op == 0:
            ta.set_tag(block, rng.choice([0, 1, 2]))
        elif op == 1:
            trace.append(("inv", ta.invalidate(block)))
        elif op == 2:
            trace.append(("down", ta.downgrade(block)))
        elif op == 3:
            trace.append(("tag", ta.tag(block)))
        elif op == 4:
            trace.append(("perm", ta.permits(block, rng.random() < 0.5)))
        else:
            trace.append(("read", ta.permits_read(block)))
        if step % 50 == 49:
            assert list(ta.blocks_with_access()) == _dense_scan(ta), step
    trace.append(("len", len(ta)))
    trace.append(("bulk", list(ta.blocks_with_access())))


@pytest.mark.parametrize("seed", SEEDS)
def test_tag_arrays_identical(seed):
    """After set_tag/invalidate/downgrade traces that grow the table
    past its capacity, the audit equals an ascending dense byte scan and
    the readable set holds exactly the non-zero tags."""
    for span in TAG_SPANS:
        ta = TagArray(capacity=16)
        trace = []
        _drive_tags(ta, random.Random(seed), trace, span)
        scan = _dense_scan(ta)
        assert ta.capacity > 16
        assert trace[-1] == ("bulk", scan)
        assert trace[-2] == ("len", len(scan))
        assert ta._readable == {b for b, _ in scan}


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_tags_match_dict_model(seed):
    ta = TagArray()
    model = {}
    rng = random.Random(seed)
    for _ in range(400):
        block = rng.randrange(200)
        tag = rng.choice([0, 1, 2])
        ta.set_tag(block, tag)
        if tag:
            model[block] = tag
        else:
            model.pop(block, None)
        probe = rng.randrange(200)
        assert ta.tag(probe) == model.get(probe, 0)
        assert ta.permits_read(probe) == (probe in model)
    assert list(ta.blocks_with_access()) == sorted(model.items())


# ----------------------------------------------------------------------
# vector clocks -- narrow and wide, against list-of-ints oracles
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n", [4, 16, 63, 64, 128])
def test_vector_clock_kernels_identical(seed, n):
    rng = random.Random(seed * 1000 + n)
    start = array("q", (rng.randrange(100) for _ in range(n)))
    vc = VectorClock(n)
    vc.merge(start)
    expect = list(start)
    for _ in range(50):
        other = array("q", (rng.randrange(120) for _ in range(n)))
        vc.merge(other)
        expect = [max(a, b) for a, b in zip(expect, other)]
        assert list(vc.v) == expect
        probe = array("q", (rng.randrange(130) for _ in range(n)))
        assert vc.dominates(probe) == all(a >= b for a, b in zip(expect, probe))


def test_fallback_vc_matches_builtin_max():
    rng = random.Random(3)
    v = [rng.randrange(50) for _ in range(32)]
    other = [rng.randrange(50) for _ in range(32)]
    vc = VectorClock(32)
    vc.merge(v)
    vc.merge(other)
    assert vc.as_tuple() == tuple(max(a, b) for a, b in zip(v, other))
    assert vc.dominates(other)
    assert vc.dominates(vc)


# ----------------------------------------------------------------------
# twin/diff run extraction
# ----------------------------------------------------------------------
def _reference_diff_runs(dirty, twin) -> List[Tuple[int, bytes]]:
    """Changed-byte runs of ``dirty`` vs ``twin``: maximal groups of
    consecutive differing byte offsets, as (offset, copied data).

    Strategy: one memcmp rules out the no-change case; then a word scan
    over 8-byte views locates the changed words and only those words are
    refined byte-by-byte.  For the sparse-write patterns twin/diff
    exists to exploit, the python-level loop touches a small fraction
    of the block.
    """
    # Normalize foreign buffer types (numpy arrays) to byte-compare
    # cleanly.
    if not isinstance(dirty, (bytes, bytearray)):
        dirty = memoryview(dirty).cast("B")
    if not isinstance(twin, (bytes, bytearray)):
        twin = memoryview(twin).cast("B")
    if dirty == twin:
        return []
    idx: List[int] = []
    n = len(dirty)
    words = n >> 3
    if words:
        end = words << 3
        dw = memoryview(dirty)[:end].cast("Q")
        tw = memoryview(twin)[:end].cast("Q")
        for w in range(words):
            if dw[w] != tw[w]:
                base = w << 3
                for o in range(base, base + 8):
                    if dirty[o] != twin[o]:
                        idx.append(o)
    for o in range(words << 3, n):
        if dirty[o] != twin[o]:
            idx.append(o)
    runs: List[Tuple[int, bytes]] = []
    start = prev = idx[0]
    for o in idx[1:]:
        if o != prev + 1:
            runs.append((start, bytes(dirty[start : prev + 1])))
            start = o
        prev = o
    runs.append((start, bytes(dirty[start : prev + 1])))
    return runs


def _mutate(rng: random.Random, base: bytearray) -> bytearray:
    """One of the real-world dirty-block shapes, randomized."""
    dirty = bytearray(base)
    shape = rng.randrange(5)
    n = len(dirty)
    if shape == 0:
        pass  # unchanged
    elif shape == 1:  # one contiguous run
        start = rng.randrange(n)
        stop = min(n, start + rng.randrange(1, 64))
        for i in range(start, stop):
            dirty[i] ^= 0x5A
    elif shape == 2:  # scattered single bytes
        for _ in range(rng.randrange(1, 20)):
            dirty[rng.randrange(n)] ^= 0xFF
    elif shape == 3:  # word-aligned strided writes
        for i in range(0, n, 8 * rng.randrange(1, 5)):
            dirty[i] = (dirty[i] + 1) & 0xFF
    else:  # tail bytes (exercises the residual-byte scan)
        for i in range(max(0, n - rng.randrange(1, 9)), n):
            dirty[i] ^= 0x01
    return dirty


def _patterns(rng: random.Random, twin: bytearray):
    """The fixed block shapes: all changed, sparse, striped, last byte
    only, unchanged."""
    n = len(twin)
    full = bytearray(b ^ (1 + rng.randrange(255)) for b in twin)
    sparse = bytearray(twin)
    for i in rng.sample(range(n), max(1, n // 37)):
        sparse[i] ^= 0x80
    striped = bytearray(twin)
    for i in range(n):
        if i % 16 < 8:
            striped[i] ^= 0x11
    last = bytearray(twin)
    last[-1] ^= 0x01
    return [full, sparse, striped, last, bytearray(twin)]


#: how a caller may hand a block to the kernel
_INPUT_TYPES = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda b: memoryview(bytearray(b)),
    "numpy": lambda b: np.frombuffer(bytes(b), dtype=np.uint8).copy(),
}


def _norm(runs):
    return [(off, bytes(data)) for off, data in runs]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("size", [1, 7, 8, 9, 63, 64, 65, 1024, 4096])
def test_diff_runs_identical(seed, size):
    """The XOR/regex kernel extracts exactly the byte loop's runs, for
    every block shape and every input type."""
    rng = random.Random(seed * 10 + size)
    twin = bytearray(rng.randrange(256) for _ in range(size))
    dirties = _patterns(rng, twin) + [_mutate(rng, twin) for _ in range(20)]
    for dirty in dirties:
        want = _reference_diff_runs(bytes(dirty), bytes(twin))
        for kind, make in _INPUT_TYPES.items():
            got = diff_runs(make(dirty), make(twin))
            assert all(type(data) is bytes for _, data in got), kind
            assert _norm(got) == want, kind


@pytest.mark.parametrize("seed", SEEDS)
def test_fallback_diff_runs_roundtrip_and_shape(seed):
    rng = random.Random(seed)
    for size in (1, 9, 64, 1000):
        twin = bytearray(rng.randrange(256) for _ in range(size))
        for _ in range(10):
            dirty = _mutate(rng, twin)
            runs = diff_runs(bytes(dirty), bytes(twin))
            # runs reconstruct the dirty copy from the twin
            rebuilt = bytearray(twin)
            for off, data in runs:
                rebuilt[off : off + len(data)] = data
            assert rebuilt == dirty
            # runs are ascending, non-empty, non-adjacent (maximal)
            prev_end = -2
            for off, data in runs:
                assert len(data) > 0
                assert off > prev_end + 1
                prev_end = off + len(data) - 1


# ----------------------------------------------------------------------
# block buffers, packing, typed views
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_buffer_kernels_identical(seed):
    """A node's block store against a bytes model -- region writes and
    reads across block boundaries, the pattern fill ``touch_write``
    does, independent snapshots -- and ``as_payload`` over every buffer
    type a caller hands in."""
    rng = random.Random(seed)
    for _ in range(50):
        g = rng.choice([8, 64, 1024])
        store = NodeStore(g)
        n = rng.randrange(1, 300)
        raw = bytes(rng.randrange(256) for _ in range(n))
        addr = rng.randrange(3 * g)
        store.write_region(addr, raw)
        start = rng.randrange(n)
        stop = rng.randrange(start, n + 1)
        value = rng.randrange(256)
        slices = BlockSpace(g).block_slices(addr + start, stop - start)
        for block, off, _, length in slices:
            store.block(block)[off : off + length] = bytes((value,)) * length
        want = raw[:start] + bytes([value]) * (stop - start) + raw[stop:]
        got = store.read_region(addr, n)
        assert type(got) is bytearray and bytes(got) == want
        block = addr // g
        twin = store.snapshot(block)
        assert twin == store.block(block) and twin is not store.block(block)
        for payload in (raw, bytearray(raw), memoryview(raw),
                        np.frombuffer(raw, dtype=np.uint8), list(raw)):
            assert bytes(as_payload(payload)) == raw


@pytest.mark.parametrize("spec", ["float64", "int64", "int32", "uint8"])
def test_pack_and_typed_view_identical(spec):
    """Packing and typed views agree with numpy's byte layout."""
    dt = dtype(spec)
    values = [0, 1, 17, 100]
    assert bytes(pack_values(values, (4,), dt)) == np.array(values, dtype=spec).tobytes()
    assert bytes(pack_scalar(42, dt)) == np.array([42], dtype=spec).tobytes()
    raw = pack_values(values, (4,), dt)
    view = typed_view(bytearray(raw), dt)
    assert list(view) == np.frombuffer(raw, dtype=spec).tolist() == values
    assert view.sum() == sum(values)
    assert np.array_equal(np.asarray(view), np.array(values, dtype=spec))


def test_pack_values_shape_checked():
    dt = dtype("float64")
    with pytest.raises(ValueError):
        pack_values([1.0, 2.0], (3,), dt)


# ----------------------------------------------------------------------
# sequence ring vs a dict reference model
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_seq_ring_matches_dict_model(seed):
    rng = random.Random(seed)
    ring, model = SeqRing(4), {}
    cursor = 0
    for _ in range(500):
        op = rng.randrange(3)
        if op == 0:  # out-of-order arrival inside a window above cursor
            seq = cursor + rng.randrange(64)
            assert ring.put(seq, ("msg", seq)) == (seq not in model)
            model.setdefault(seq, ("msg", seq))
        elif op == 1 and model:  # drain one held sequence
            seq = rng.choice(list(model))
            assert ring.pop(seq) == model.pop(seq)
            cursor = max(cursor, seq + 1)
        else:
            probe = cursor + rng.randrange(64)
            assert (probe in ring) == (probe in model)
        assert len(ring) == len(model)
    assert list(ring.items()) == sorted(model.items())


def test_seq_ring_pop_missing_raises():
    ring = SeqRing()
    ring.put(5, "x")
    with pytest.raises(KeyError):
        ring.pop(6)


def test_seq_ring_grows_past_collisions():
    ring = SeqRing(2)
    # 0 and 1024 collide at every small power of two; the ring must
    # keep both live.
    assert ring.put(0, "a") and ring.put(1024, "b") and ring.put(2048, "c")
    assert ring.pop(1024) == "b"
    assert 0 in ring and 2048 in ring and 1024 not in ring


# ----------------------------------------------------------------------
# the runtime without numpy
# ----------------------------------------------------------------------
_NO_NUMPY_RUN = """
import json, sys
from repro import simcore
from repro.harness.experiment import RunConfig, run_experiment
from repro.mc.explore import explore
from repro.mc.litmus import get_litmus
from repro.perf.micros import _stats_sha, calibration_spin
result = run_experiment(RunConfig(app="lu", protocol="hlrc", granularity=1024,
                                  nprocs=16, scale="tiny"))
mc = explore(get_litmus("mp"), "sc")
print(json.dumps({
    "sha": _stats_sha(result),
    "mc": [mc.schedules, mc.transitions, mc.complete, mc.ok],
    "numpy": "numpy" in sys.modules,
    "backend": simcore.BACKEND,
}))
"""


def test_runtime_runs_without_numpy():
    """A cell and an exploration import and run without numpy, the
    cell's stats-sha is its pin in tests/golden_shas.json, and what the
    cell benchmark imports still imports: ``repro.perf.micros``'s two
    helpers, and ``BACKEND``, which names the stdlib kernels."""
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_RUN],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["numpy"] is False
    assert got["backend"] == "python"
    golden = json.loads((Path(__file__).parent / "golden_shas.json").read_text())
    assert got["sha"] == golden["lu/hlrc-1024/polling/p16"]
    assert got["mc"] == [142, 6314, True, True]
