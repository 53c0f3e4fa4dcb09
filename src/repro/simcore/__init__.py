"""The simulator-core kernel layer, on the python standard library alone.

Every byte-plane operation the simulator's hot paths need -- block
buffers, access-tag tables, twin/diff run extraction, sequence-indexed
link buffers -- is defined once here, on the C-speed bulk primitives
the stdlib already has: ``bytearray`` slices and compares
(memcpy/memcmp), ``memoryview.cast`` typed views, ``struct`` packing,
big-int XOR plus one ``re`` scan for diff runs, and ``set`` membership
for tags.  The runtime imports no third-party module.

:data:`BACKEND` names the implementation (always ``"python"``); the
cell benchmark records it with its measurements.
"""

from __future__ import annotations

from repro.simcore.dtypes import DType, dtype
from repro.simcore.pycore import (
    alloc_block,
    as_payload,
    buf_eq,
    copy_of,
    diff_runs,
    empty_block,
    fill,
    frombytes,
    pack_scalar,
    pack_values,
    tobytes,
    typed_view,
)
from repro.simcore.ring import SeqRing
from repro.simcore.tags import TagArray

#: the kernel implementation's name
BACKEND = "python"

__all__ = [
    "BACKEND",
    "alloc_block",
    "empty_block",
    "frombytes",
    "copy_of",
    "buf_eq",
    "tobytes",
    "fill",
    "as_payload",
    "typed_view",
    "pack_scalar",
    "pack_values",
    "TagArray",
    "diff_runs",
    "DType",
    "dtype",
    "SeqRing",
]
