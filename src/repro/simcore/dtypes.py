"""Element-type descriptors for typed shared arrays.

The runtime's typed shared arrays describe their element type with a
:class:`DType` instead of a ``numpy.dtype`` so the simcore kernels can
serve them through ``memoryview.cast``/``struct``.  The
:func:`dtype` constructor accepts everything callers historically
passed: numpy dtypes and scalar types (when numpy is installed), the
python builtins ``float``/``int``, and string names in either numpy
(``"float64"``/``"f8"``) or struct (``"d"``) spelling.
"""

from __future__ import annotations

from typing import Any

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
        raise TypeError(f"unsupported simcore dtype {spec!r}")
    return dt
