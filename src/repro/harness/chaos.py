"""Chaos sweep: degradation curves under seeded interconnect faults.

The question this harness answers is the one the paper's perfect-wire
evaluation cannot: *how gracefully does each protocol / granularity
combination degrade when the interconnect starts dropping, duplicating
and reordering messages?*  Every cell runs with a seeded
:class:`~repro.net.faultplan.FaultSpec` -- same seed, same faults,
bit-identical stats -- and the reliable transport
(:mod:`repro.net.reliable`) recovers losses by retransmission, so the
cost of unreliability shows up as *time* (speedup degradation), not as
wrong answers.

Cells are ordinary matrix cells: they go through
:func:`repro.exec.pool.execute_many`, hit the same disk cache (the
fault spec is part of the config, hence of the cache key), and may be
run under the :mod:`repro.check` race detector / invariant sanitizer --
a protocol that only survives chaos by violating its own invariants
fails loudly here.

A cell whose retransmit budget runs dry dies with ``TransportError``;
the degradation table renders it as ``FAIL`` and
:func:`failure_rows` lists the reason, so a sweep never hides a
protocol collapse inside an average.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import GRANULARITIES
from repro.exec.pool import execute_many
from repro.harness.experiment import RunConfig
from repro.harness.matrix import PROTOCOLS
from repro.harness.tables import PROTO_LABEL, fmt_table
from repro.net.faultplan import FaultSpec

#: default drop-probability axis for the degradation curve; 0.0 is the
#: fault-free baseline (no fault plan, no transport -- the trusted wire)
DEFAULT_RATES = (0.0, 0.01, 0.02, 0.05)


def chaos_spec(
    rate: float,
    seed: int = 0,
    dup_prob: float = 0.01,
    reorder_prob: float = 0.02,
) -> Optional[FaultSpec]:
    """The fault spec for one drop-rate point of the curve.

    ``rate == 0.0`` returns ``None``: the baseline column is the
    *trusted* wire (no transport at all), so the curve's first point is
    exactly the number the paper's tables report and the delta at
    higher rates includes the transport's own overhead.
    """
    if rate == 0.0:
        return None
    return FaultSpec(
        seed=seed, drop_prob=rate, dup_prob=dup_prob, reorder_prob=reorder_prob
    )


def chaos_configs(
    apps: Sequence[str],
    protocols: Sequence[str] = PROTOCOLS,
    granularities: Sequence[int] = GRANULARITIES,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    dup_prob: float = 0.01,
    reorder_prob: float = 0.02,
    mechanism: str = "polling",
    scale: str = "default",
    nprocs: int = 16,
) -> List[RunConfig]:
    """The full (app x protocol x granularity x drop-rate) cell list."""
    return [
        RunConfig(
            app=app,
            protocol=proto,
            granularity=g,
            mechanism=mechanism,
            nprocs=nprocs,
            scale=scale,
            faults=chaos_spec(rate, seed, dup_prob, reorder_prob),
        )
        for app in apps
        for proto in protocols
        for g in granularities
        for rate in rates
    ]


def chaos_sweep(
    apps: Sequence[str],
    protocols: Sequence[str] = PROTOCOLS,
    granularities: Sequence[int] = GRANULARITIES,
    rates: Sequence[float] = DEFAULT_RATES,
    seed: int = 0,
    dup_prob: float = 0.01,
    reorder_prob: float = 0.02,
    mechanism: str = "polling",
    scale: str = "default",
    nprocs: int = 16,
    **run,
) -> Dict[RunConfig, "object"]:
    """Run (or fetch) every cell of the chaos matrix; ``run`` holds the
    :func:`~repro.exec.pool.execute_many` knobs (jobs, cache, events,
    timeout, check, progress)."""
    configs = chaos_configs(
        apps, protocols, granularities, rates, seed, dup_prob, reorder_prob,
        mechanism, scale, nprocs,
    )
    return execute_many(configs, **run)


def _rate_of(cfg: RunConfig) -> float:
    return 0.0 if cfg.faults is None else cfg.faults.drop_prob


def degradation_table(
    results: Dict,
    apps: Sequence[str],
    protocols: Sequence[str] = PROTOCOLS,
    granularities: Sequence[int] = GRANULARITIES,
    rates: Sequence[float] = DEFAULT_RATES,
    title: str = "Chaos degradation: speedup vs drop rate",
) -> str:
    """Speedup grid, one row per (app, protocol, granularity), one
    column per drop rate.  Failed cells render as ``FAIL``."""
    index: Dict[Tuple, object] = {
        (c.app, c.protocol, c.granularity, _rate_of(c)): r
        for c, r in results.items()
    }
    rows = []
    for app in apps:
        for proto in protocols:
            for g in granularities:
                row = [app, PROTO_LABEL.get(proto, proto), g]
                for rate in rates:
                    r = index.get((app, proto, g, rate))
                    if r is None:
                        row.append("-")
                    elif r.stats is None:
                        row.append("FAIL")
                    else:
                        row.append(f"{r.speedup:.2f}")
                rows.append(row)
    headers = ["Application", "Protocol", "Gran"] + [
        "base" if rate == 0.0 else f"{rate:g}" for rate in rates
    ]
    return fmt_table(headers, rows, title)


def transport_table(
    results: Dict,
    title: str = "Transport activity (chaos cells)",
) -> str:
    """Per-cell drop/retransmit/dedup counters; chaos cells only."""
    rows = []
    for cfg, rec in results.items():
        if cfg.faults is None:
            continue
        if rec.stats is None:
            rows.append([cfg.label(), "FAIL", "-", "-", "-", "-"])
            continue
        t = getattr(rec.stats, "transport", None)
        if t is None:
            continue
        rows.append(
            [
                cfg.label(),
                t.data_sent,
                t.drops,
                t.retransmits,
                t.dup_suppressed,
                t.reorder_buffered,
            ]
        )
    return fmt_table(
        ["Cell", "Sent", "Drops", "Retransmits", "DupSuppr", "Resequenced"],
        rows,
        title,
    )


def failure_rows(results: Dict) -> List[Tuple[str, str, str]]:
    """(label, error_type, error) for every failed cell."""
    return [
        (cfg.label(), rec.error_type or "?", rec.error or "")
        for cfg, rec in results.items()
        if not rec.ok
    ]


def chaos_section(
    results: Dict,
    apps: Sequence[str],
    protocols: Sequence[str] = PROTOCOLS,
    granularities: Sequence[int] = GRANULARITIES,
    rates: Sequence[float] = DEFAULT_RATES,
) -> str:
    """Markdown-ish chaos report: degradation grid, transport counters,
    and an explicit failure list (never silently dropped)."""
    parts = [
        degradation_table(results, apps, protocols, granularities, rates),
        "",
        transport_table(results),
    ]
    failures = failure_rows(results)
    if failures:
        parts += [
            "",
            fmt_table(
                ["Failed cell", "Error", "Detail"],
                [(label, etype, err[:60]) for label, etype, err in failures],
                f"{len(failures)} cell(s) failed",
            ),
        ]
    else:
        parts += ["", "all cells completed"]
    return "\n".join(parts)
