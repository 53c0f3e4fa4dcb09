"""Measurement infrastructure: counters, time breakdowns, speedups,
relative-efficiency statistics, and the sharing-pattern classifier.
"""

from repro.stats.counters import NodeStats, Stats
from repro.stats.classify import (
    AccessTrace,
    Classification,
    classify,
    classify_app,
    install_trace,
)
from repro.stats.relative_efficiency import (
    harmonic_mean,
    hm_table,
    relative_efficiency,
)

__all__ = [
    "Stats",
    "NodeStats",
    "relative_efficiency",
    "harmonic_mean",
    "hm_table",
    "AccessTrace",
    "Classification",
    "classify",
    "classify_app",
    "install_trace",
]
