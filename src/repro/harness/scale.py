"""Node-count scaling sweep: speedup and per-block metadata bytes vs N.

The paper stops at 16 nodes; ROADMAP's first open item asks what the
protocols do on bigger machines.  Two things change with N:

* **Performance** -- speedup curves bend as home distance, recall
  fan-out, and barrier fan-in grow.
* **Metadata** -- the classic representations carry O(N) state per
  block (directory bitmaps, vector clocks), which is exactly what
  caps real DSM installs.  Sharded copysets and the tardis timestamp
  protocol (O(1) per block by construction) are the countermeasures;
  the LRC protocols keep dense vector clocks, which barriers fill.
  This sweep turns the O(N)-vs-O(1) separation into a measured curve.

Cells run in-process (not through :mod:`repro.exec`) because the
metadata counter needs the live :class:`~repro.cluster.machine.Machine`
after the run -- a serialized :class:`~repro.exec.serialize.RunRecord`
has no protocol state left to measure.

``repro-dsm scale`` is the CLI face; :func:`scale_sweep` +
:func:`render_scale_report` are the library face used by CI's
scale-smoke job and the nightly artifact upload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.registry import scaling_protocols
from repro.harness.experiment import RunConfig, run_experiment
from repro.stats.counters import MetadataStats, protocol_metadata

#: node counts the scaling study sweeps (the paper's 16 plus the
#: 128-1024 range the tardis/sharded-copyset work targets)
NODE_COUNTS = (16, 64, 128, 512, 1024)

#: the two granularities spanning the paper's fine/coarse regimes
SCALE_GRANULARITIES = (1024, 4096)

#: default application pair: one regular (lu) and one with migratory
#: rows and heavier sharing (ocean)
SCALE_APPS = ("lu", "ocean-rowwise")


@dataclass
class ScaleCell:
    """One (app, protocol, granularity, n_nodes) point of the sweep."""

    app: str
    protocol: str
    granularity: int
    n_nodes: int
    speedup: float
    parallel_time_us: float
    metadata: MetadataStats
    #: checker verdict when run with check=True; None = not checked
    check_ok: Optional[bool] = None
    check_findings: int = 0

    def to_dict(self) -> Dict:
        return {
            "app": self.app,
            "protocol": self.protocol,
            "granularity": self.granularity,
            "n_nodes": self.n_nodes,
            "speedup": self.speedup,
            "parallel_time_us": self.parallel_time_us,
            "metadata": self.metadata.to_dict(),
            "check_ok": self.check_ok,
            "check_findings": self.check_findings,
        }


@dataclass
class ScaleReport:
    """Everything one scaling sweep produced."""

    cells: List[ScaleCell] = field(default_factory=list)

    def cell(
        self, app: str, protocol: str, granularity: int, n_nodes: int
    ) -> ScaleCell:
        for c in self.cells:
            if (c.app, c.protocol, c.granularity, c.n_nodes) == (
                app, protocol, granularity, n_nodes
            ):
                return c
        raise KeyError((app, protocol, granularity, n_nodes))

    @property
    def ok(self) -> bool:
        """True when no checked cell produced findings."""
        return all(c.check_ok is not False for c in self.cells)

    def axes(self) -> Tuple[List[str], List[str], List[int], List[int]]:
        """(apps, protocols, granularities, node counts) actually swept,
        in first-seen order."""
        apps: List[str] = []
        protos: List[str] = []
        grans: List[int] = []
        nodes: List[int] = []
        for c in self.cells:
            if c.app not in apps:
                apps.append(c.app)
            if c.protocol not in protos:
                protos.append(c.protocol)
            if c.granularity not in grans:
                grans.append(c.granularity)
            if c.n_nodes not in nodes:
                nodes.append(c.n_nodes)
        return apps, protos, grans, nodes

    def to_dict(self) -> Dict:
        return {"cells": [c.to_dict() for c in self.cells]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def scale_sweep(
    apps: Sequence[str] = SCALE_APPS,
    protocols: Optional[Sequence[str]] = None,
    granularities: Sequence[int] = SCALE_GRANULARITIES,
    node_counts: Sequence[int] = NODE_COUNTS,
    scale: str = "tiny",
    mechanism: str = "polling",
    check: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> ScaleReport:
    """Run the scaling matrix and measure each cell's metadata.

    ``protocols`` defaults to the registry's scaling set -- the paper
    trio plus tardis when registered.  ``scale='tiny'`` keeps the
    1024-node cells tractable; the curves of interest (metadata bytes,
    relative speedup trend) are insensitive to problem size.

    ``check`` installs the race/invariant checkers per cell; findings
    are recorded on the cell (``check_ok``/``check_findings``) rather
    than raising, so one bad cell does not vaporize the sweep.
    """
    if protocols is None:
        protocols = scaling_protocols()
    report = ScaleReport()
    for app in apps:
        for proto in protocols:
            for g in granularities:
                for n in node_counts:
                    cfg = RunConfig(
                        app=app,
                        protocol=proto,
                        granularity=g,
                        mechanism=mechanism,
                        nprocs=n,
                        scale=scale,
                    )
                    if progress:
                        progress(f"scale {cfg.label()}")
                    result = run_experiment(cfg, check=check)
                    meta = protocol_metadata(result.machine)
                    findings = 0
                    ok: Optional[bool] = None
                    if result.check is not None:
                        ok = result.check.ok
                        findings = (
                            result.check.violations_total
                            + result.check.races_total
                        )
                    report.cells.append(
                        ScaleCell(
                            app=app,
                            protocol=proto,
                            granularity=g,
                            n_nodes=n,
                            speedup=result.stats.speedup,
                            parallel_time_us=result.stats.parallel_time_us,
                            metadata=meta,
                            check_ok=ok,
                            check_findings=findings,
                        )
                    )
    return report


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
    checked = any(c.check_ok is not None for c in report.cells)
    if checked:
        bad = [c for c in report.cells if c.check_ok is False]
        if bad:
            lines.append(
                f"**CHECK FAILURES: {len(bad)} cell(s)** -- "
                + ", ".join(
                    f"{c.app}/{c.protocol}/{c.granularity}@N={c.n_nodes}"
                    f" ({c.check_findings})"
                    for c in bad
                )
            )
        else:
            lines.append(
                "All cells ran under the race/invariant checkers with "
                "zero findings."
            )
        lines.append("")

    for app in apps:
        for g in grans:
            lines.append(f"## {app} @ {g} B blocks")
            lines.append("")
            lines.append("### Speedup")
            lines.append("")
            header = "| N | " + " | ".join(protos) + " |"
            lines.append(header)
            lines.append("|" + "---|" * (len(protos) + 1))
            for n in nodes:
                row = [str(n)]
                for proto in protos:
                    try:
                        c = report.cell(app, proto, g, n)
                        row.append(f"{c.speedup:.2f}")
                    except KeyError:
                        row.append("-")
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
            lines.append("### Metadata bytes per block (meta / dense)")
            lines.append("")
            lines.append(header)
            lines.append("|" + "---|" * (len(protos) + 1))
            for n in nodes:
                row = [str(n)]
                for proto in protos:
                    try:
                        c = report.cell(app, proto, g, n)
                        m = c.metadata
                        row.append(
                            f"{_fmt_bytes(m.per_block)} / "
                            f"{_fmt_bytes(m.per_block_dense)}"
                        )
                    except KeyError:
                        row.append("-")
                lines.append("| " + " | ".join(row) + " |")
            lines.append("")
    return "\n".join(lines)
