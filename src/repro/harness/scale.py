"""Node-count scaling sweep: speedup and per-block metadata bytes vs N.

The paper stops at 16 nodes; ROADMAP's first open item asks what the
protocols do on bigger machines.  Two things change with N:

* **Performance** -- speedup curves bend as home distance, recall
  fan-out, and barrier fan-in grow.
* **Metadata** -- the classic representations carry O(N) state per
  block (directory bitmaps, vector clocks), which is exactly what
  caps real DSM installs.  Sparse copysets (bytes per registered
  sharer, not per node) and the tardis timestamp protocol (O(1) per
  block by construction) are the countermeasures;
  the LRC protocols keep dense vector clocks, which barriers fill.
  This sweep turns the O(N)-vs-O(1) separation into a measured curve.

Cells run like every other sweep's, through
:func:`repro.exec.pool.execute_many` (process pool, per-cell timeout,
failed-cell capture, disk cache).  The metadata counter needs the live
:class:`~repro.cluster.machine.Machine`, so the exec layer measures it
before the machine is dropped and keeps it on
:attr:`RunRecord.metadata <repro.exec.serialize.RunRecord.metadata>`.
A failed cell is a ``FAIL`` in the report, not the end of the sweep.

``repro-dsm scale`` is the CLI face; :func:`scale_sweep` +
:func:`render_scale_report` are the library face used by CI's
scale-smoke job and the nightly artifact upload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.registry import scaling_protocols
from repro.exec.pool import execute_many
from repro.exec.serialize import RunRecord
from repro.harness.experiment import RunConfig

#: node counts the scaling study sweeps (the paper's 16 plus the
#: 128-1024 range the tardis/sparse-copyset work targets)
NODE_COUNTS = (16, 64, 128, 512, 1024)

#: the two granularities spanning the paper's fine/coarse regimes
SCALE_GRANULARITIES = (1024, 4096)

#: default application pair: one regular (lu) and one with migratory
#: rows and heavier sharing (ocean)
SCALE_APPS = ("lu", "ocean-rowwise")


@dataclass
class ScaleReport:
    """Everything one scaling sweep produced: config -> record, in
    sweep order."""

    records: Dict[RunConfig, RunRecord]

    def cell(
        self, app: str, protocol: str, granularity: int, n_nodes: int
    ) -> RunRecord:
        for cfg, rec in self.records.items():
            if (cfg.app, cfg.protocol, cfg.granularity, cfg.nprocs) == (
                app, protocol, granularity, n_nodes
            ):
                return rec
        raise KeyError((app, protocol, granularity, n_nodes))

    @property
    def failed(self) -> List[RunRecord]:
        """Cells that produced no result (checker findings included)."""
        return [r for r in self.records.values() if not r.ok]

    def axes(self) -> Tuple[List[str], List[str], List[int], List[int]]:
        """(apps, protocols, granularities, node counts) actually swept,
        in first-seen order."""
        axes: Tuple[List, List, List, List] = ([], [], [], [])
        for c in self.records:
            for axis, v in zip(axes, (c.app, c.protocol, c.granularity, c.nprocs)):
                if v not in axis:
                    axis.append(v)
        return axes

    def to_dict(self) -> Dict:
        return {
            "cells": [
                {
                    "app": c.app,
                    "protocol": c.protocol,
                    "granularity": c.granularity,
                    "n_nodes": c.nprocs,
                    "status": "ok" if r.ok else "FAIL",
                    "error_type": r.error_type,
                    "speedup": r.speedup if r.ok else None,
                    "parallel_time_us": (
                        r.stats.parallel_time_us if r.ok else None
                    ),
                    "metadata": r.metadata,
                    "check": r.check,
                }
                for c, r in self.records.items()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def scale_sweep(
    apps: Sequence[str] = SCALE_APPS,
    protocols: Optional[Sequence[str]] = None,
    granularities: Sequence[int] = SCALE_GRANULARITIES,
    node_counts: Sequence[int] = NODE_COUNTS,
    scale: str = "tiny",
    mechanism: str = "polling",
    **run,
) -> ScaleReport:
    """Run the scaling matrix; every successful record carries its
    metadata.

    ``protocols`` defaults to the registry's scaling set -- the paper
    trio plus tardis when registered.  ``scale='tiny'`` keeps the
    1024-node cells tractable; the curves of interest (metadata bytes,
    relative speedup trend) are insensitive to problem size.  ``run``
    holds the :func:`~repro.exec.pool.execute_many` knobs (jobs, cache,
    events, timeout, check, progress).
    """
    configs = [
        RunConfig(app=app, protocol=proto, granularity=g,
                  mechanism=mechanism, nprocs=n, scale=scale)
        for app in apps
        for proto in (scaling_protocols() if protocols is None else protocols)
        for g in granularities
        for n in node_counts
    ]
    return ScaleReport(execute_many(configs, **run))


def _fmt_bytes(v: float) -> str:
    if v >= 1024 * 1024:
        return f"{v / (1024 * 1024):.1f}M"
    if v >= 1024:
        return f"{v / 1024:.1f}K"
    return f"{v:.0f}"


def render_scale_report(report: ScaleReport) -> str:
    """Markdown scaling report: one speedup table and one per-block
    metadata table (actual | dense-equivalent) per (app, granularity)."""
    apps, protos, grans, nodes = report.axes()
    lines: List[str] = ["# Node-count scaling report", ""]
    lines.append(
        "Speedup and per-block coherence-metadata bytes vs node count. "
        "`meta` is the representation the run actually stored; `dense` "
        "is the classic dense representation at that N (bitmap "
        "copysets, 8-byte-per-component vector clocks)."
    )
    lines.append("")
    failed = report.failed
    if failed:
        lines.append(
            f"**FAILED: {len(failed)} cell(s)** -- "
            + ", ".join(f"{r.label()} ({r.error_type})" for r in failed)
        )
        lines.append("")
    elif any(r.check is not None for r in report.records.values()):
        lines.append(
            "All cells ran under the race/invariant checkers with "
            "zero findings."
        )
        lines.append("")

    def row(app: str, g: int, n: int, fmt) -> str:
        out = [str(n)]
        for proto in protos:
            try:
                r = report.cell(app, proto, g, n)
            except KeyError:
                out.append("-")
                continue
            out.append(fmt(r) if r.ok else f"FAIL ({r.error_type})")
        return "| " + " | ".join(out) + " |"

    def meta(r: RunRecord) -> str:
        m = r.metadata
        return f"{_fmt_bytes(m['per_block'])} / {_fmt_bytes(m['per_block_dense'])}"

    header = "| N | " + " | ".join(protos) + " |"
    rule = "|" + "---|" * (len(protos) + 1)
    for app in apps:
        for g in grans:
            lines += [f"## {app} @ {g} B blocks", "", "### Speedup", "",
                      header, rule]
            lines += [row(app, g, n, lambda r: f"{r.speedup:.2f}")
                      for n in nodes]
            lines += ["", "### Metadata bytes per block (meta / dense)", "",
                      header, rule]
            lines += [row(app, g, n, meta) for n in nodes]
            lines.append("")
    return "\n".join(lines)
