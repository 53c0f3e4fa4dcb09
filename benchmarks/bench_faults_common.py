"""Shared machinery for the per-application fault-table benches
(Tables 3-13): run the app across the protocol x granularity matrix,
print measured fault counts next to the paper's, assert the shape
claims that are scale-independent.
"""

from __future__ import annotations

from typing import Dict, Optional

from conftest import emit
from repro.cluster.config import GRANULARITIES
from repro.harness.experiment import RunConfig
from repro.harness.matrix import PROTOCOLS, cached_run
from repro.harness.tables import fmt_table

from paperdata import fault_rows_for


def collect_faults(app: str, scale: str) -> Dict:
    """measured[(kind, protocol)] = [counts per granularity]."""
    measured: Dict = {}
    for proto in PROTOCOLS:
        reads, writes = [], []
        for g in GRANULARITIES:
            r = cached_run(RunConfig(app=app, protocol=proto, granularity=g,
                                     scale=scale))
            reads.append(r.stats.read_faults)
            writes.append(r.stats.write_faults)
        measured[("read", proto)] = reads
        measured[("write", proto)] = writes
    return measured


def emit_fault_table(app: str, measured: Dict, paper_table: Optional[dict],
                     title: str) -> None:
    rows = fault_rows_for(paper_table, measured)
    emit(
        title,
        fmt_table(
            ["Fault", "Protocol"] + [f"{g}" for g in GRANULARITIES],
            rows,
            "measured (paper value in parentheses; paper counts are at "
            "full problem size)",
        ),
    )


def assert_read_faults_decrease_with_granularity(measured, protocols=PROTOCOLS,
                                                 factor=1.5):
    """Coarser blocks mean fewer read faults (prefetching) for
    contiguous-access applications."""
    for proto in protocols:
        reads = measured[("read", proto)]
        assert reads[0] > factor * reads[-1], (proto, reads)


def bench_one_run(benchmark, app: str, scale: str, protocol="hlrc",
                  granularity=4096):
    """Benchmark a single representative simulation run."""
    from repro.harness.experiment import run_experiment

    benchmark.pedantic(
        lambda: run_experiment(
            RunConfig(app=app, protocol=protocol, granularity=granularity,
                      scale=scale)
        ),
        rounds=3,
        iterations=1,
    )
