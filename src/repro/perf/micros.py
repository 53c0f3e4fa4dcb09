"""The two measurement helpers the cell benchmark imports.

``benchmarks/cells/cells.py`` imports both from this module path;
moving them means changing that import in the same change.

* :func:`_stats_sha` -- the stats fingerprint the cell pins are
  written in: ``tests/golden_shas.json`` (``tools/golden_shas.py``),
  the cell pins of ``benchmarks/cells/expected.json``, and the
  determinism checks of the chaos tests.
* :func:`calibration_spin` -- a fixed interpreter-speed probe;
  ``compare.py`` reads its timing to tell a host that changed speed
  between two sides from a slower change.
"""

from __future__ import annotations

import hashlib
import json


def _stats_sha(result) -> str:
    """First 16 hex digits of the sha256 of ``result.stats`` as sorted JSON."""
    blob = json.dumps(result.stats.to_dict(), sort_keys=True, default=float)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def calibration_spin(n: int = 400_000) -> int:
    """A pure-Python interpreter-speed probe.

    The loop touches only arithmetic and list indexing -- the same mix
    the simulator's hot loops are made of -- so its time tracks how
    fast the host runs the simulator.
    """
    acc = 0
    buf = [0] * 64
    for i in range(n):
        acc = (acc + i * 2654435761) & 0xFFFFFFFF
        buf[i & 63] = acc
    return acc
