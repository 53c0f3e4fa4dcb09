"""The simcore block-plane kernels: bytearray/memoryview/struct/re only.

No third-party imports: the simulator runs on a bare python install.
Each kernel leans on a C-speed bulk primitive of the stdlib --
``bytearray`` slice copy and compare (memcpy/memcmp), ``memoryview.cast``
typed views, ``struct`` packing, big-int XOR plus a ``re`` scan for
diff runs -- so the per-byte work runs in C.
"""

from __future__ import annotations

import re
import struct
from typing import Any, List, Tuple

from repro.simcore.dtypes import DType


# ----------------------------------------------------------------------
# block buffers
# ----------------------------------------------------------------------
def alloc_block(n: int) -> bytearray:
    """A zero-filled mutable byte buffer of ``n`` bytes."""
    return bytearray(n)


def empty_block(n: int) -> bytearray:
    """An uninitialized buffer (zero-filled here; callers overwrite)."""
    return bytearray(n)


def frombytes(data) -> bytearray:
    """An independent mutable buffer holding a copy of ``data``."""
    return bytearray(data)


def copy_of(buf) -> bytearray:
    return bytearray(buf)


def buf_eq(a, b) -> bool:
    """Whole-buffer equality: bytearray compare is a single C memcmp."""
    return a == b


def tobytes(buf) -> bytes:
    return bytes(buf)


def fill(buf: bytearray, start: int, stop: int, value: int) -> None:
    if stop > start:
        buf[start:stop] = bytes([value]) * (stop - start)


def as_payload(data):
    """Coerce external bytes-like input to a sliceable byte buffer."""
    if isinstance(data, (bytes, bytearray)):
        return data
    if isinstance(data, memoryview):
        return data.cast("B") if data.format != "B" else data
    # numpy arrays (tests hand them over), lists of ints, anything
    # buffer-like
    try:
        return bytes(memoryview(data).cast("B"))
    except TypeError:
        return bytes(data)


# ----------------------------------------------------------------------
# typed views and packing
# ----------------------------------------------------------------------
class TypedView:
    """A typed vector view over a byte buffer.

    Supports what callers of shared-array slices actually use:
    indexing, item assignment, iteration, ``len``, ``sum``, ``tolist``,
    ``copy``, equality, and ``__array__`` so numpy consumers (the test
    suite's oracles) can convert it.
    """

    __slots__ = ("_mv",)

    def __init__(self, mv: memoryview):
        self._mv = mv

    def __len__(self) -> int:
        return len(self._mv)

    def __getitem__(self, i):
        r = self._mv[i]
        return TypedView(r) if isinstance(r, memoryview) else r

    def __setitem__(self, i, value) -> None:
        self._mv[i] = value

    def __iter__(self):
        return iter(self._mv)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TypedView):
            return self._mv == other._mv
        if isinstance(other, (memoryview, bytes, bytearray)):
            return self._mv == other
        return NotImplemented  # type: ignore[return-value]

    __hash__ = None  # type: ignore[assignment]

    def sum(self):
        return sum(self._mv)

    def tolist(self) -> list:
        return self._mv.tolist()

    def copy(self) -> "TypedView":
        return TypedView(memoryview(bytearray(self._mv.tobytes())).cast(self._mv.format))

    def __array__(self, dtype=None, copy=None):
        import numpy  # only reachable from a caller that has numpy

        a = numpy.asarray(self._mv)
        return a if dtype is None else a.astype(dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TypedView({self._mv.format}, {self.tolist()!r})"


def typed_view(buf, dt: DType) -> TypedView:
    """View a byte buffer as elements of ``dt`` (zero copy)."""
    mv = memoryview(buf)
    if mv.format != "B":
        mv = mv.cast("B")
    return TypedView(mv.cast(dt.code))


def pack_scalar(value: Any, dt: DType) -> bytes:
    """One value as its byte representation."""
    return struct.pack(dt.code, value)


def pack_values(values: Any, shape, dt: DType) -> bytes:
    """A sequence (or nested sequence) as bytes; shape-checked."""
    flat: List[Any] = []
    _flatten_into(values, tuple(shape), flat, shape)
    return struct.pack(f"{len(flat)}{dt.code}", *flat)


def _flatten_into(values, shape, out: List[Any], full_shape) -> None:
    if not shape:
        out.append(values)
        return
    vals = list(values)
    if len(vals) != shape[0]:
        raise ValueError(f"value shape mismatch != expected {tuple(full_shape)}")
    for v in vals:
        _flatten_into(v, shape[1:], out, full_shape)


# ----------------------------------------------------------------------
# twin/diff run extraction
# ----------------------------------------------------------------------
#: one maximal run of non-zero bytes
_CHANGED_RUN = re.compile(rb"[^\x00]+")


def diff_runs(dirty, twin) -> List[Tuple[int, bytes]]:
    """Changed-byte runs of ``dirty`` vs ``twin``: maximal groups of
    consecutive differing byte offsets, as (offset, copied data).

    One memcmp rules out the no-change case.  Otherwise the two blocks
    are XORed as big integers, so every changed byte is a non-zero byte
    of the XOR at the same offset, and one regex scan over it yields
    each maximal changed run; all of it runs in C.
    """
    # Normalize foreign buffer types (numpy arrays, typed memoryviews)
    # to flat byte views so compares and lengths count bytes.
    if not isinstance(dirty, (bytes, bytearray)):
        dirty = memoryview(dirty).cast("B")
    if not isinstance(twin, (bytes, bytearray)):
        twin = memoryview(twin).cast("B")
    if dirty == twin:
        return []
    n = len(dirty)
    x = (int.from_bytes(dirty, "big") ^ int.from_bytes(twin, "big")).to_bytes(n, "big")
    runs: List[Tuple[int, bytes]] = []
    for m in _CHANGED_RUN.finditer(x):
        start, stop = m.span()
        runs.append((start, bytes(dirty[start:stop])))
    return runs
