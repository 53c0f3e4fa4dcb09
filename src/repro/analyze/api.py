"""Entry points: analyze one app or the whole corpus.

``analyze_app`` accepts a registry name, an Application subclass, or
an instance.  Names and classes get a **fresh instance per analyzed
mode** (apps carry task-queue state across a program run, so an
instance is only good for one exploration); a pre-built instance is
analyzed in a single mode.

Apps whose source branches on ``protocol.uses_notices`` (the barnes
family adds locking under LRC) are analyzed in both modes and the
results merged: a finding in either mode is a finding, an annotation
needed in either mode is necessary.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.analyze import drf
from repro.analyze.cfg import CfgBuilder
from repro.analyze.core import Finding, filter_noqa
from repro.analyze.dataflow import SiteContext, compute_contexts
from repro.analyze.falseshare import (
    FS_GRANULARITIES,
    FalseSharingAccum,
    merge_summaries,
    rank_cells,
)
from repro.analyze.footprint import explore
from repro.apps.base import Application, make_app

DEFAULT_NPROCS = 4
DEFAULT_SCALE = "tiny"


@dataclass
class ModeAnalysis:
    """One exploration mode (lrc_mode False = SC-family, True = LRC)."""

    lrc_mode: bool
    findings: List[Finding]
    sweep: drf.SweepResult
    fs_summary: Dict[int, dict]
    n_segments: int
    n_ops: int
    #: (file, line) -> (reason, exempted pair count) for entered scopes
    exempts: Dict[Tuple[str, int], Tuple[str, int]]
    scope_sites: Dict[Tuple[str, int], Set[drf.Site]]
    participants: Set[drf.Site]


@dataclass
class AppAnalysis:
    """Merged analysis of one app across its modes."""

    name: str
    nprocs: int
    scale: str
    modes: List[ModeAnalysis]
    findings: List[Finding]  # merged + noqa-filtered, sorted
    suppressed: List[Finding]  # what noqa removed (visible in reports)
    false_sharing: Dict[int, dict]
    lock_protected_pairs: int = 0
    exempted_pairs: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "app": self.name,
            "nprocs": self.nprocs,
            "scale": self.scale,
            "modes": [
                {"lrc_mode": m.lrc_mode, "segments": m.n_segments,
                 "ops": m.n_ops, "findings": len(m.findings)}
                for m in self.modes
            ],
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "lock_protected_pairs": self.lock_protected_pairs,
            "exempted_pairs": self.exempted_pairs,
            "false_sharing": {str(g): v for g, v in self.false_sharing.items()},
        }


@dataclass
class CorpusAnalysis:
    apps: List[AppAnalysis]
    ranking: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(a.ok for a in self.apps)

    @property
    def findings(self) -> List[Finding]:
        return [f for a in self.apps for f in a.findings]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "apps": [a.to_dict() for a in self.apps],
            "false_sharing_ranking": self.ranking,
        }


def _wants_both_modes(app_cls: type) -> bool:
    """True when the app's source branches on protocol.uses_notices."""
    for cls in app_cls.__mro__:
        mod = sys.modules.get(cls.__module__)
        file = getattr(mod, "__file__", None)
        if not file:
            continue
        try:
            if "uses_notices" in Path(file).read_text():
                return True
        except OSError:
            continue
    return False


def _finding_key(f: Finding) -> tuple:
    sites = tuple(
        (s["file"], s["line"], s["kind"]) for s in f.extra.get("sites", ())
    )
    return (f.code, str(f.path), f.line, sites or f.message)


def _merge_findings(per_mode: List[List[Finding]]) -> List[Finding]:
    seen: Dict[tuple, Finding] = {}
    for findings in per_mode:
        for f in findings:
            seen.setdefault(_finding_key(f), f)
    return sorted(seen.values(), key=Finding.sort_key)


def _apply_noqa(findings: List[Finding]) -> Tuple[List[Finding], List[Finding]]:
    """Split into (kept, suppressed) using each file's # noqa lines."""
    sources: Dict[str, str] = {}
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    for f in findings:
        path = str(f.path)
        if path not in sources:
            try:
                sources[path] = Path(path).read_text()
            except OSError:
                sources[path] = ""
        if filter_noqa([f], sources[path]):
            kept.append(f)
        else:
            suppressed.append(f)
    return kept, suppressed


def analyze_app(
    app: Union[str, type, Application],
    *,
    nprocs: int = DEFAULT_NPROCS,
    scale: str = DEFAULT_SCALE,
    granularities: Sequence[int] = FS_GRANULARITIES,
    modes: Optional[Sequence[bool]] = None,
    overrides: Optional[dict] = None,
) -> AppAnalysis:
    """Statically verify one app's labeling and predict false sharing."""
    if isinstance(app, str):
        name = app

        def fresh() -> Application:
            return make_app(name, scale, **(overrides or {}))
    elif isinstance(app, type):
        app_cls = app

        def fresh() -> Application:
            return app_cls(scale=scale, **(overrides or {}))
    else:
        instance = app
        uses = [instance]

        def fresh() -> Application:
            if not uses:
                raise ValueError(
                    "an Application instance supports a single exploration; "
                    "pass the registry name or the class for multi-mode "
                    "analysis")
            return uses.pop()

    probe = fresh() if not isinstance(app, Application) else app
    app_cls = type(probe)
    app_name = getattr(probe, "name", app_cls.__name__)
    if modes is None:
        if isinstance(app, Application):
            modes = [False]
        else:
            modes = [False, True] if _wants_both_modes(app_cls) else [False]

    # AST side: CFG + dataflow contexts (mode-independent)
    cfg = CfgBuilder(app_cls).build()
    contexts: Dict[Tuple[str, int], SiteContext] = compute_contexts(cfg)
    cfg_findings = _merge_findings([cfg.findings])

    mode_results: List[ModeAnalysis] = []
    consumed_probe = False
    for lrc_mode in modes:
        if isinstance(app, Application) and not consumed_probe:
            inst = probe
            consumed_probe = True
        else:
            inst = fresh()
        expl = explore(inst, nprocs, lrc_mode=lrc_mode)
        fs = FalseSharingAccum(granularities)
        sweep_res = drf.sweep(expl, fs)
        findings = (drf.conflict_findings(sweep_res, contexts)
                    + drf.structural_findings(expl))
        exempts: Dict[Tuple[str, int], Tuple[str, int]] = {}
        scope_sites: Dict[Tuple[str, int], Set[drf.Site]] = {}
        for did, (file, line, reason) in enumerate(expl.disjoint_sites):
            key = (file, line)
            prev = exempts.get(key, (reason, 0))
            exempts[key] = (reason, prev[1] + sweep_res.exempt_by_site.get(did, 0))
            scope_sites.setdefault(key, set()).update(
                sweep_res.scope_sites.get(did, set()))
        mode_results.append(ModeAnalysis(
            lrc_mode=lrc_mode,
            findings=findings,
            sweep=sweep_res,
            fs_summary=fs.summary(),
            n_segments=len(expl.segments),
            n_ops=expl.n_ops,
            exempts=exempts,
            scope_sites=scope_sites,
            participants=set(sweep_res.exempt_participants),
        ))

    # merge the assume_disjoint audit across modes
    merged_exempts: Dict[Tuple[str, int], Tuple[str, int]] = {}
    merged_scopes: Dict[Tuple[str, int], Set[drf.Site]] = {}
    merged_participants: Set[drf.Site] = set()
    for m in mode_results:
        for key, (reason, n) in m.exempts.items():
            prev = merged_exempts.get(key, (reason, 0))
            merged_exempts[key] = (reason, prev[1] + n)
        for key, sites in m.scope_sites.items():
            merged_scopes.setdefault(key, set()).update(sites)
        merged_participants |= m.participants
    audit = drf.audit_findings(
        merged_exempts, merged_scopes, merged_participants,
        _dedup_ast_sites(cfg.disjoint_sites))

    all_findings = _merge_findings(
        [m.findings for m in mode_results] + [cfg_findings, audit])
    kept, suppressed = _apply_noqa(all_findings)
    return AppAnalysis(
        name=app_name,
        nprocs=nprocs,
        scale=scale,
        modes=mode_results,
        findings=kept,
        suppressed=suppressed,
        false_sharing=merge_summaries([m.fs_summary for m in mode_results]),
        lock_protected_pairs=max(
            (m.sweep.lock_protected_pairs for m in mode_results), default=0),
        exempted_pairs=max(
            (m.sweep.exempted_pairs for m in mode_results), default=0),
    )


def _dedup_ast_sites(sites) -> list:
    seen = set()
    out = []
    for file, line, reason, conditional in sites:
        if (file, line) in seen:
            continue
        seen.add((file, line))
        out.append((file, line, reason, conditional))
    return out


def analyze_corpus(
    names: Optional[Sequence[str]] = None,
    *,
    nprocs: int = DEFAULT_NPROCS,
    scale: str = DEFAULT_SCALE,
    granularities: Sequence[int] = FS_GRANULARITIES,
) -> CorpusAnalysis:
    """Analyze every app in ``names`` (default: the full 12-app corpus)."""
    from repro.apps import APP_NAMES

    apps = [
        analyze_app(n, nprocs=nprocs, scale=scale, granularities=granularities)
        for n in (names or APP_NAMES)
    ]
    ranking = rank_cells({a.name: a.false_sharing for a in apps})
    return CorpusAnalysis(apps=apps, ranking=ranking)
