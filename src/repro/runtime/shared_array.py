"""Typed shared arrays over the DSM address space.

These provide the convenience layer the correctness tests and example
programs use: real values move through the protocols, so a value
written on one node under proper synchronization is exactly the value
read on another.

Element types are described by a :class:`DType` (built by
:func:`dtype`, which accepts numpy dtypes, python ``float``/``int``,
and string names), and values are packed with ``struct`` and read back
through zero-copy ``memoryview.cast`` views (:class:`TypedView`).

All accessors are generators (they may fault) and must be driven with
``yield from`` inside an application process.
"""

from __future__ import annotations

import struct
from typing import Any, Generator, List, Tuple

from repro.memory.address_space import Segment
from repro.runtime.dsm import Dsm

# ----------------------------------------------------------------------
# element types
# ----------------------------------------------------------------------
#: canonical name -> (struct/memoryview format code, itemsize)
_TABLE = {
    "float64": ("d", 8),
    "float32": ("f", 4),
    "int64": ("q", 8),
    "uint64": ("Q", 8),
    "int32": ("i", 4),
    "uint32": ("I", 4),
    "int16": ("h", 2),
    "uint16": ("H", 2),
    "int8": ("b", 1),
    "uint8": ("B", 1),
}

_ALIASES = {
    "f8": "float64",
    "f4": "float32",
    "i8": "int64",
    "u8": "uint64",
    "i4": "int32",
    "u4": "uint32",
    "i2": "int16",
    "u2": "uint16",
    "i1": "int8",
    "u1": "uint8",
    "float": "float64",
    "int": "int64",
}
# struct codes name themselves too ("d" -> float64)
_ALIASES.update({code: name for name, (code, _) in _TABLE.items()})


class DType:
    """One element type: a struct format code plus its byte width."""

    __slots__ = ("name", "code", "itemsize")

    def __init__(self, name: str, code: str, itemsize: int):
        self.name = name
        self.code = code
        self.itemsize = itemsize

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DType({self.name})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DType) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)


_CACHE: dict = {name: DType(name, code, size) for name, (code, size) in _TABLE.items()}


def dtype(spec: Any) -> DType:
    """Resolve a dtype spec (numpy dtype/type, python type, or name)."""
    if isinstance(spec, DType):
        return spec
    if spec is float:
        return _CACHE["float64"]
    if spec is int:
        return _CACHE["int64"]
    if isinstance(spec, str):
        key = spec
    else:
        # numpy dtypes have .name ("float64"); numpy scalar types have
        # __name__ ("float64"); anything else falls through to str().
        key = getattr(spec, "name", None) or getattr(spec, "__name__", None) or str(spec)
    key = _ALIASES.get(key, key)
    dt = _CACHE.get(key)
    if dt is None:
        raise TypeError(f"unsupported dtype {spec!r}")
    return dt


#: :func:`dtype` under a name the constructors' ``dtype`` argument
#: does not shadow
_dtype = dtype


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
# shared arrays
# ----------------------------------------------------------------------
class SharedArray:
    """A 1-D typed array in shared memory.

    Create one per machine (the segment is shared); access it through a
    node's :class:`Dsm` handle passed per call.
    """

    def __init__(self, machine, name: str, length: int, dtype="float64"):
        self.dtype = _dtype(dtype)
        self.length = length
        self.itemsize = self.dtype.itemsize
        self.segment: Segment = machine.alloc(length * self.itemsize, name)
        self.machine = machine

    def addr(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(f"index {index} out of range [0, {self.length})")
        return self.segment.base + index * self.itemsize

    # ------------------------------------------------------------------
    # element access
    # ------------------------------------------------------------------
    def get(self, dsm: Dsm, index: int) -> Generator:
        raw = yield from dsm.read(self.addr(index), self.itemsize)
        return typed_view(raw, self.dtype)[0]

    def set(self, dsm: Dsm, index: int, value) -> Generator:
        yield from dsm.write(self.addr(index), pack_scalar(value, self.dtype))

    # ------------------------------------------------------------------
    # slice access
    # ------------------------------------------------------------------
    def get_slice(self, dsm: Dsm, start: int, stop: int) -> Generator:
        if not 0 <= start <= stop <= self.length:
            raise IndexError(f"slice [{start}:{stop}] out of range")
        raw = yield from dsm.read(self.addr(start) if stop > start else self.segment.base,
                                  (stop - start) * self.itemsize)
        return typed_view(raw, self.dtype)

    def set_slice(self, dsm: Dsm, start: int, values) -> Generator:
        stop = start + len(values)
        if not 0 <= start <= stop <= self.length:
            raise IndexError(f"slice [{start}:{stop}] out of range")
        if len(values) == 0:
            return
        raw = pack_values(values, (len(values),), self.dtype)
        yield from dsm.write(self.addr(start), raw)

    # ------------------------------------------------------------------
    # initialization (pre-parallel, no simulated cost)
    # ------------------------------------------------------------------
    def init(self, values) -> None:
        if len(values) != self.length:
            raise ValueError("init length mismatch")
        self.machine.init_data(
            self.segment.base, pack_values(values, (self.length,), self.dtype)
        )

    def place(self, start: int, stop: int, node: int) -> None:
        """Declarative home placement of an index range."""
        if stop <= start:
            return
        self.machine.place(
            self.addr(start), (stop - start) * self.itemsize, node
        )


class SharedMatrix:
    """A row-major 2-D typed matrix in shared memory."""

    def __init__(self, machine, name: str, shape: Tuple[int, int], dtype="float64"):
        self.rows, self.cols = shape
        self.dtype = _dtype(dtype)
        self.itemsize = self.dtype.itemsize
        self.row_bytes = self.cols * self.itemsize
        self.segment: Segment = machine.alloc(self.rows * self.row_bytes, name)
        self.machine = machine

    def addr(self, r: int, c: int = 0) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError(f"({r},{c}) out of range {self.rows}x{self.cols}")
        return self.segment.base + r * self.row_bytes + c * self.itemsize

    def get(self, dsm: Dsm, r: int, c: int) -> Generator:
        raw = yield from dsm.read(self.addr(r, c), self.itemsize)
        return typed_view(raw, self.dtype)[0]

    def set(self, dsm: Dsm, r: int, c: int, value) -> Generator:
        yield from dsm.write(self.addr(r, c), pack_scalar(value, self.dtype))

    def get_row(self, dsm: Dsm, r: int) -> Generator:
        raw = yield from dsm.read(self.addr(r, 0), self.row_bytes)
        return typed_view(raw, self.dtype)

    def set_row(self, dsm: Dsm, r: int, values) -> Generator:
        if len(values) != self.cols:
            raise ValueError("row length mismatch")
        raw = pack_values(values, (self.cols,), self.dtype)
        yield from dsm.write(self.addr(r, 0), raw)

    def init(self, values) -> None:
        raw = pack_values(values, (self.rows, self.cols), self.dtype)
        self.machine.init_data(self.segment.base, raw)
