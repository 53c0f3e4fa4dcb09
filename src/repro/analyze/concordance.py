"""Static vs dynamic checker concordance.

The static analyzer and the PR 2 dynamic checkers look for the same
bug class from opposite directions: the analyzer proves labeling over
*all* schedules of a small-scope run, the race detector observes *one*
simulated schedule of the real protocol.  Concordance mode runs both
over the same cells and cross-tabulates:

* **static_miss** -- the dynamic detector saw a true race at sites the
  analyzer did not flag.  This is the discord that matters: it would
  mean the static criterion is unsound for that program.
* **static_extra** -- the analyzer flagged sites but the dynamic run
  was clean.  Expected occasionally (the analyzer is conservative and
  the dynamic run sees only one schedule); reported, not fatal.
* **concordant** -- both clean, or both implicate the same sites.

The acceptance bar for this repo's corpus: every dynamically
true-race-free cell is also statically clean.

False sharing gets an informational cross-tab of its own: predicted
bytes at the cell's coherence granularity vs the block-granularity
detector's observed false-sharing pair count.

Each cell runs the dynamic checkers twice, both times as an ordinary
checked cell of :func:`repro.exec.pool.execute_many` (process pool,
per-cell timeout, disk cache): once at **word**
detection units for the race verdict (the repo's authoritative gate
-- block units merge a node's exempt and non-exempt ranges that land
in one straddling block into a single conservatively-reportable
epoch, manufacturing "races" ``assume_disjoint`` was written to
exempt), and once at **block** units, which is the only place false
sharing is observable.  A cell whose dynamic run fails for any reason
other than checker findings (timeout, event budget) is judged
**failed**, which fails the concordance like a static miss.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set

from repro.analyze.api import AppAnalysis, analyze_app

#: finding codes that implicate a concrete unordered access pair
_PAIR_CODES = ("ANA101", "ANA103")


def _static_sites(analysis: AppAnalysis) -> Set[str]:
    """``basename:line`` of every statically implicated access site."""
    out: Set[str] = set()
    for f in analysis.findings:
        if f.code not in _PAIR_CODES:
            continue
        for s in f.extra.get("sites", ()):
            out.add(f"{s['file'].rsplit('/', 1)[-1]}:{s['line']}")
    return out


@dataclass
class CellConcordance:
    """One app x protocol x granularity cross-tab row."""

    app: str
    protocol: str
    granularity: int
    static_findings: int
    static_sites: Set[str]
    dynamic_races: int
    dynamic_race_sites: Set[str]
    dynamic_false_sharing: int
    predicted_fs_bytes: int
    verdict: str = "concordant"  # concordant | static_miss | static_extra | failed
    missed_sites: Set[str] = field(default_factory=set)
    #: why the dynamic run failed (verdict "failed"), else None
    error_type: Optional[str] = None

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "protocol": self.protocol,
            "granularity": self.granularity,
            "static": {
                "findings": self.static_findings,
                "sites": sorted(self.static_sites),
                "predicted_fs_bytes": self.predicted_fs_bytes,
            },
            "dynamic": {
                "races": self.dynamic_races,
                "race_sites": sorted(self.dynamic_race_sites),
                "false_sharing_pairs": self.dynamic_false_sharing,
            },
            "verdict": self.verdict,
            "missed_sites": sorted(self.missed_sites),
            "error_type": self.error_type,
        }


@dataclass
class ConcordanceResult:
    cells: List[CellConcordance]

    @property
    def ok(self) -> bool:
        """Every cell ran, and in none did the dynamic detector
        out-found the analyzer."""
        return all(c.verdict in ("concordant", "static_extra")
                   for c in self.cells)

    def to_dict(self) -> dict:
        verdicts = {}
        for c in self.cells:
            verdicts[c.verdict] = verdicts.get(c.verdict, 0) + 1
        return {
            "ok": self.ok,
            "cells": [c.to_dict() for c in self.cells],
            "verdicts": verdicts,
        }

    def describe(self) -> str:
        lines = ["concordance (static analyzer vs dynamic checkers):"]
        for c in self.cells:
            fs = ""
            if c.predicted_fs_bytes or c.dynamic_false_sharing:
                fs = (f"  fs: predicted {c.predicted_fs_bytes} B / "
                      f"observed {c.dynamic_false_sharing} pair(s)")
            if c.error_type:
                fs += f"  dynamic run failed: {c.error_type}"
            lines.append(
                f"  {c.verdict:12s} {c.app:20s} {c.protocol}-"
                f"{c.granularity:<5d} static={c.static_findings} "
                f"dynamic-races={c.dynamic_races}{fs}"
            )
            for s in sorted(c.missed_sites):
                lines.append(f"      dynamic race at {s} not statically "
                             "flagged")
        n_bad = sum(1 for c in self.cells
                    if c.verdict in ("static_miss", "failed"))
        if n_bad:
            lines.append(f"{n_bad} cell(s) with static misses or failed "
                         "dynamic runs")
        else:
            lines.append(
                "every dynamically race-free cell is statically clean; "
                "no dynamic race escaped the analyzer")
        return "\n".join(lines)


def _judge(cell: CellConcordance) -> None:
    if cell.error_type:
        cell.verdict = "failed"
    elif cell.dynamic_races > 0:
        uncovered = cell.dynamic_race_sites - cell.static_sites
        if cell.static_findings == 0 or uncovered == cell.dynamic_race_sites:
            cell.verdict = "static_miss"
            cell.missed_sites = uncovered or set(cell.dynamic_race_sites)
        else:
            cell.verdict = "concordant"
            cell.missed_sites = uncovered
    elif cell.static_findings > 0:
        cell.verdict = "static_extra"
    else:
        cell.verdict = "concordant"


def run_concordance(
    apps: Optional[Sequence[str]] = None,
    *,
    protocols: Sequence[str] = ("hlrc",),
    granularities: Sequence[int] = (1024,),
    nprocs: int = 4,
    scale: str = "tiny",
    progress=None,
    **run,
) -> ConcordanceResult:
    """Analyze statically and run the dynamic checkers per cell;
    ``run`` holds the :func:`~repro.exec.pool.execute_many` knobs
    (jobs, cache, events, timeout)."""
    from repro.apps import APP_NAMES
    from repro.exec.pool import execute_many
    from repro.harness.experiment import RunConfig

    names = list(apps or APP_NAMES)
    static: dict = {}
    for name in names:
        if progress:
            progress(f"analyzing {name}")
        static[name] = analyze_app(name, nprocs=nprocs, scale=scale)

    configs = [
        RunConfig(app=name, protocol=proto, granularity=g,
                  nprocs=nprocs, scale=scale)
        for name in names
        for proto in protocols
        for g in granularities
    ]
    word = execute_many(configs, check="word", progress=progress, **run)
    block = execute_many(configs, check="block", progress=progress, **run)

    cells: List[CellConcordance] = []
    for cfg in configs:
        analysis = static[cfg.app]
        races, fs = word[cfg].check or {}, block[cfg].check or {}
        cell = CellConcordance(
            app=cfg.app,
            protocol=cfg.protocol,
            granularity=cfg.granularity,
            static_findings=len(analysis.findings),
            static_sites=_static_sites(analysis),
            dynamic_races=races.get("races", 0),
            dynamic_race_sites=set(races.get("race_sites", ())),
            dynamic_false_sharing=fs.get("false_sharing", 0),
            predicted_fs_bytes=int(
                analysis.false_sharing.get(cfg.granularity, {}).get("bytes", 0)),
            # a run without a checker summary crashed or timed out
            error_type=next((r.error_type for r in (word[cfg], block[cfg])
                             if r.check is None), None),
        )
        _judge(cell)
        cells.append(cell)
    return ConcordanceResult(cells=cells)
