"""One-shot reproduction report.

Assembles calibration, the speedup matrix, fault tables, HM statistics
and the measured classification into a single markdown document --
``repro-dsm report`` writes the file an artifact-evaluation reviewer
would want.
"""

from __future__ import annotations

import io
from typing import Optional, Sequence

from repro.apps import APP_NAMES, ORIGINAL_8, VERSION_GROUPS
from repro.cluster.config import GRANULARITIES
from repro.harness.calibration import microbenchmark_rows, table1_rows
from repro.harness.matrix import PROTOCOLS, SpeedupMatrix, sweep
from repro.harness.tables import (
    fault_table,
    fmt_table,
    hm_table_text,
    speedup_table,
)
from repro.stats.relative_efficiency import best_version_speedups, hm_table


def generate_report(
    scale: str = "default",
    nprocs: int = 16,
    apps: Optional[Sequence[str]] = None,
    fault_apps: Sequence[str] = ("lu", "ocean-rowwise", "volrend-original"),
    progress=None,
    **run,
) -> str:
    """Run the matrix and return the report as markdown text.

    ``run`` (jobs, cache, events, timeout, check) goes straight to
    :func:`repro.harness.matrix.sweep`: the matrix fans out over worker
    processes and previously computed cells come from the disk cache.
    """
    apps = list(apps) if apps else list(APP_NAMES)
    out = io.StringIO()
    w = out.write

    w("# Reproduction report\n\n")
    w(f"Scale: `{scale}`, nodes: {nprocs}, mechanism: polling.\n\n")

    # ---- calibration --------------------------------------------------
    w("## Calibration\n\n```\n")
    rows = [(a, s, f"{p:.2f}", f"{m:.2f}", f"{r:.3f}")
            for a, s, p, m, r in table1_rows()]
    w(fmt_table(["Benchmark", "Size", "Paper (s)", "Model (s)", "ratio"],
                rows, "Table 1: sequential times"))
    w("\n\n")
    rows = [(f"{sz}B", f"{p:.0f}", f"{m:.1f}", f"{r:.3f}")
            for sz, p, m, r in microbenchmark_rows()]
    w(fmt_table(["Message", "Paper RT", "Model RT", "ratio"],
                rows, "Section 3 microbenchmark"))
    w("\n```\n\n")

    # ---- the matrix ----------------------------------------------------
    results = sweep(apps, scale=scale, nprocs=nprocs, progress=progress, **run)
    failed = [r for r in results.values() if r.stats is None]
    if failed:
        w("## Failed cells\n\n")
        for r in failed:
            w(f"* `{r.config.label()}`: {r.error_type}: {r.error}\n")
        w("\n")
    w("## Figure 1: speedups\n\n```\n")
    w(speedup_table(results, apps, ""))
    w("\n```\n\n")

    # ---- fault tables ---------------------------------------------------
    w("## Fault tables\n\n")
    for app in fault_apps:
        if app not in apps:
            continue
        w("```\n")
        w(fault_table(results, app, f"{app}"))
        w("\n```\n\n")

    # ---- HM statistics ---------------------------------------------------
    matrix = SpeedupMatrix(results)
    present_original = [a for a in ORIGINAL_8 if a in apps]
    if len(present_original) >= 2:
        hm = hm_table(matrix.speedups(), present_original, PROTOCOLS,
                      list(GRANULARITIES))
        w("## Table 16: HM of relative efficiency (original versions)\n\n```\n")
        w(hm_table_text(hm, ""))
        w("\n```\n\n")
    if set(apps) == set(APP_NAMES):
        best = best_version_speedups(matrix.speedups(), VERSION_GROUPS,
                                     PROTOCOLS, list(GRANULARITIES))
        hm = hm_table(best, list(VERSION_GROUPS), PROTOCOLS,
                      list(GRANULARITIES))
        w("## Table 17: HM of relative efficiency (best versions)\n\n```\n")
        w(hm_table_text(hm, ""))
        w("\n```\n\n")

    # ---- headline claims --------------------------------------------------
    w("## Headline claims\n\n")
    cells = matrix.speedups()

    def sp(app, proto, g):
        return cells[(app, proto, g)]

    def have(app):
        # The claim needs every cell of the app present (none failed).
        return app in apps and all(
            (app, p, g) in cells for p in PROTOCOLS for g in GRANULARITIES
        )

    if have("barnes-original"):
        sc = max(sp("barnes-original", "sc", 64),
                 sp("barnes-original", "sc", 256))
        hl = sp("barnes-original", "hlrc", 4096)
        w(f"* Barnes-Original: SC fine-grain {sc:.2f} vs HLRC-4096 {hl:.2f} "
          f"-> relaxed protocols {'never worthwhile' if sc > hl else 'worthwhile'} "
          "(paper: never worthwhile).\n")
    if have("volrend-original"):
        s4 = sp("volrend-original", "sc", 4096)
        h4 = sp("volrend-original", "hlrc", 4096)
        w(f"* Volrend-Original at 4096: SC {s4:.2f} vs HLRC {h4:.2f} "
          f"({h4 / s4:.1f}x; paper: 2-4x).\n")
    comparable = [
        a for a in apps
        if (a, "hlrc", 4096) in cells and (a, "swlrc", 4096) in cells
    ]
    hl_wins = sum(
        1 for a in comparable
        if sp(a, "hlrc", 4096) >= sp(a, "swlrc", 4096)
    )
    w(f"* HLRC >= SW-LRC at 4096 bytes for {hl_wins}/{len(comparable)} "
      "applications (paper: all).\n")
    return out.getvalue()
