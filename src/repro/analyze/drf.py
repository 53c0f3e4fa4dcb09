"""The labeling checker: static data-race-freedom verification.

A program is *properly labeled* (Gharachorloo) when every conflicting
access pair -- two ranks touching overlapping bytes, at least one
writing -- is ordered by synchronization.  LRC protocols only promise
SC results for properly labeled programs, so an unlabeled conflict
makes every relaxed-consistency number for that app invalid.

The static criterion, applied to the concrete footprints from
:mod:`repro.analyze.footprint`, is deliberately schedule-independent:
a cross-rank conflicting pair is OK iff

* the two segments are **barrier-ordered** (barrier-only vector
  clocks), or
* their concrete **locksets intersect** (a common lock serializes and
  orders the pair under release consistency regardless of grant
  order), or
* either side is under a justified ``assume_disjoint`` scope.

Lock *acquisition-order* happens-before edges (lock A released by
rank 0, later acquired by rank 1, ordering unrelated accesses) are
deliberately **not** used: they exist on one schedule and not
another, which is exactly the hole a dynamic happens-before detector
(PR 2) cannot see past.  This is where the static checker is
stronger than the dynamic one, and the difference is what concordance
mode measures.

Rule catalog (see docs/ANALYSIS_STATIC.md):

* **ANA101** -- conflicting access pair with no ordering and no lock
  on at least one side: a data race / labeling violation.
* **ANA102** -- barrier phase skew: a rank parks forever at a
  barrier.
* **ANA103** -- both sides hold locks but no *common* lock: a lock
  protects the wrong block range.
* **ANA104** -- ``assume_disjoint`` that exempts no conflicting pair:
  provably unnecessary (or, unconditional in source, never entered).
* **ANA105** -- ``assume_disjoint`` covering accesses that never
  conflict with anyone: overbroad scope.
* **ANA106** -- lock discipline: release without hold, lock held at
  program end, rank parked forever on a lock.
* **ANA107** -- analysis incomplete: app exception, event-budget
  overrun.  Never a verdict, always a confession.
"""

from __future__ import annotations

import ast
import linecache
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.core import Finding
from repro.analyze.falseshare import FalseSharingAccum
from repro.analyze.footprint import Exploration, ordered

Site = Tuple[str, int, str]  # (file, line, function)


@dataclass
class Conflict:
    """One deduplicated unordered conflicting site pair."""

    code: str  # ANA101 | ANA103
    site_a: Site
    site_b: Site
    write_a: bool
    write_b: bool
    ranks: Tuple[int, int]
    sample: Tuple[int, int]  # example overlapping byte interval
    total_bytes: int
    locks_a: frozenset
    locks_b: frozenset
    #: the barriers bracketing each side in the run, e.g.
    #: 'between [barrier(0)@47] and [barrier(2)@58]'
    region_a: str
    region_b: str
    occurrences: int = 1


@dataclass
class SweepResult:
    """Everything one pairwise sweep over an exploration produces."""

    conflicts: Dict[Tuple, Conflict] = field(default_factory=dict)
    lock_protected_pairs: int = 0
    exempted_pairs: int = 0
    #: disjoint site id -> exempted pair count
    exempt_by_site: Dict[int, int] = field(default_factory=dict)
    #: access sites that participated in >=1 exempted pair
    exempt_participants: Set[Site] = field(default_factory=set)
    #: disjoint site id -> access sites recorded under that scope
    scope_sites: Dict[int, Set[Site]] = field(default_factory=dict)


def sweep(expl: Exploration,
          fs: Optional[FalseSharingAccum] = None) -> SweepResult:
    """Pairwise sweep over all unordered cross-rank segment pairs.

    Feeds both the conflict detector and (optionally) the
    false-sharing accumulator so the footprints are only walked once.
    """
    res = SweepResult()
    by_rank = expl.segments_by_rank()
    # scope coverage for the overbroad audit (independent of pairing)
    for seg in expl.segments:
        if seg.disjoint:
            did = seg.disjoint[-1]
            bucket = res.scope_sites.setdefault(did, set())
            for (sid, _w) in seg.accesses:
                bucket.add(expl.sites[sid])
    gmax = max(fs.granularities) if fs is not None else None
    for r1 in range(expl.nprocs):
        for r2 in range(r1 + 1, expl.nprocs):
            for s1 in by_rank[r1]:
                if not s1.accesses:
                    continue
                for s2 in by_rank[r2]:
                    if not s2.accesses or ordered(s1, s2):
                        continue
                    _sweep_pair(expl, res, fs, gmax, s1, s2)
    return res


def _sweep_pair(expl, res, fs, gmax, s1, s2) -> None:
    common_lock = bool(s1.lockset & s2.lockset)
    exempt = bool(s1.disjoint or s2.disjoint)
    for (sid_a, w_a), iv_a in s1.accesses.items():
        for (sid_b, w_b), iv_b in s2.accesses.items():
            if not (w_a or w_b):
                continue
            # bbox reject: no byte overlap and no shared block at any
            # granularity of interest
            max_lo = max(iv_a.lo, iv_b.lo)
            min_hi = min(iv_a.hi, iv_b.hi)
            if max_lo >= min_hi:
                if gmax is None or (min_hi - 1) // gmax != max_lo // gmax:
                    continue
            inter = iv_a.intersect(iv_b)
            site_a, site_b = expl.sites[sid_a], expl.sites[sid_b]
            if inter:
                n_bytes = sum(hi - lo for lo, hi in inter)
                if common_lock:
                    res.lock_protected_pairs += 1
                elif exempt:
                    res.exempted_pairs += 1
                    for seg, site in ((s1, site_a), (s2, site_b)):
                        if seg.disjoint:
                            did = seg.disjoint[-1]
                            res.exempt_by_site[did] = (
                                res.exempt_by_site.get(did, 0) + 1)
                            res.exempt_participants.add(site)
                else:
                    _record_conflict(expl, res, s1, s2, site_a, site_b,
                                     w_a, w_b, inter[0], n_bytes)
            if fs is not None and not common_lock and not exempt:
                fs.add_pair(site_a, iv_a, site_b, iv_b, inter)


def _record_conflict(expl, res, s1, s2, site_a, site_b, w_a, w_b, sample,
                     n_bytes) -> None:
    code = "ANA103" if (s1.lockset and s2.lockset) else "ANA101"
    # canonical orientation so (a, b) and (b, a) dedup together
    if (site_b, w_b) < (site_a, w_a):
        site_a, site_b = site_b, site_a
        w_a, w_b = w_b, w_a
        s1, s2 = s2, s1
    key = (code, site_a, w_a, site_b, w_b)
    hit = res.conflicts.get(key)
    if hit is None:
        res.conflicts[key] = Conflict(
            code=code, site_a=site_a, site_b=site_b, write_a=w_a,
            write_b=w_b, ranks=(s1.rank, s2.rank), sample=sample,
            total_bytes=n_bytes, locks_a=s1.lockset, locks_b=s2.lockset,
            region_a=expl.region(s1), region_b=expl.region(s2))
    else:
        hit.total_bytes += n_bytes
        hit.occurrences += 1


# -- findings ----------------------------------------------------------


def _rel(path: str) -> str:
    try:
        return os.path.relpath(path)
    except ValueError:
        return path


def _statement(file: str, line: int) -> str:
    """The whole source statement at ``file:line``, on one line."""
    tree = ast.parse("".join(linecache.getlines(file)))
    stmt = None
    for node in ast.walk(tree):  # breadth first: each hit nests deeper
        if isinstance(node, ast.stmt) and node.lineno <= line <= node.end_lineno:
            stmt = node
    if stmt is None or hasattr(stmt, "body"):  # a compound header line
        return linecache.getline(file, line).strip()
    return ast.unparse(stmt)


def _side_line(kind: str, site: Site, region: str, locks: frozenset) -> str:
    file, line, func = site
    return (f"{kind:5s} {_rel(file)}:{line} in {func}"
            f" | `{_statement(file, line)}` | region {region}"
            f" | locks held {sorted(locks) if locks else 'none'}")


def conflict_findings(sweep_res: SweepResult) -> List[Finding]:
    out: List[Finding] = []
    for c in sweep_res.conflicts.values():
        kind_a = "write" if c.write_a else "read"
        kind_b = "write" if c.write_b else "read"
        if c.code == "ANA103":
            headline = (
                "conflicting accesses protected by DIFFERENT locks "
                f"({sorted(c.locks_a)} vs {sorted(c.locks_b)}): the lock "
                "does not cover this range")
        else:
            headline = (
                f"unordered conflicting accesses ({kind_a} vs {kind_b}): "
                "no barrier, no common lock, no assume_disjoint")
        detail = [
            _side_line(kind_a, c.site_a, c.region_a, c.locks_a),
            _side_line(kind_b, c.site_b, c.region_b, c.locks_b),
            (f"overlap e.g. bytes [0x{c.sample[0]:x}, 0x{c.sample[1]:x}) "
             f"between ranks {c.ranks[0]} and {c.ranks[1]}; "
             f"{c.total_bytes} byte(s) over {c.occurrences} segment pair(s)"),
        ]
        out.append(Finding(
            c.site_a[0], c.site_a[1], c.code, headline, detail=detail,
            extra={
                "sites": [
                    {"file": _rel(c.site_a[0]), "line": c.site_a[1],
                     "function": c.site_a[2], "kind": kind_a},
                    {"file": _rel(c.site_b[0]), "line": c.site_b[1],
                     "function": c.site_b[2], "kind": kind_b},
                ],
                "ranks": list(c.ranks),
                "bytes": c.total_bytes,
            }))
    return out


def structural_findings(expl: Exploration) -> List[Finding]:
    """ANA102/ANA106/ANA107 from exploration outcomes."""
    out: List[Finding] = []
    for stall in expl.stalls:
        file, line, func = stall.site
        if stall.kind == "barrier":
            out.append(Finding(
                file, line, "ANA102",
                f"barrier phase skew: rank {stall.rank} {stall.detail}",
                detail=[f"parked at {_rel(file)}:{line} in {func}"],
                extra={"rank": stall.rank}))
        else:
            out.append(Finding(
                file, line, "ANA106",
                f"lock never released: rank {stall.rank} {stall.detail}",
                detail=[f"parked at {_rel(file)}:{line} in {func}"],
                extra={"rank": stall.rank}))
    for err in expl.lock_errors:
        file, line, func = err.site
        out.append(Finding(
            file, line, "ANA106", err.message,
            extra={"rank": err.rank, "lock": err.lock}))
    for rank, msg in expl.crashes:
        out.append(Finding(
            "<exploration>", 0, "ANA107",
            f"rank {rank} crashed during footprint exploration: {msg}"))
    return out


def audit_findings(
    merged_exempts: Dict[Tuple[str, int], Tuple[str, int]],
    merged_scope_sites: Dict[Tuple[str, int], Set[Site]],
    merged_participants: Set[Site],
    ast_sites: List[Tuple[str, int, str, bool]],
) -> List[Finding]:
    """ANA104/ANA105 across all analyzed modes.

    ``merged_exempts``: (file, line) of each *entered* annotation ->
    (reason, total exempted pairs).  ``merged_scope_sites``: access
    sites recorded under each annotation.  ``merged_participants``:
    access sites that needed an exemption at least once.
    ``ast_sites``: annotations found in source (covers scopes that
    never executed in any mode).
    """
    out: List[Finding] = []
    seen: Set[Tuple[str, int]] = set()
    for (file, line), (reason, n_exempt) in sorted(merged_exempts.items()):
        seen.add((file, line))
        if n_exempt == 0:
            out.append(Finding(
                file, line, "ANA104",
                f'assume_disjoint("{reason}") exempts no conflicting pair: '
                "every access under it is already sync-ordered or "
                "non-overlapping -- the annotation is unnecessary",
                extra={"reason": reason}))
            continue
        idle = sorted(
            s for s in merged_scope_sites.get((file, line), set())
            if s not in merged_participants)
        if idle:
            out.append(Finding(
                file, line, "ANA105",
                f'assume_disjoint("{reason}") is overbroad: '
                f"{len(idle)} access site(s) under its scope never "
                "conflict with any other rank",
                detail=[f"{_rel(f)}:{ln} in {fn}" for f, ln, fn in idle],
                extra={"reason": reason}))
    for file, line, reason, conditional in ast_sites:
        if (file, line) in seen:
            continue
        # never entered in any analyzed mode: not an error by itself
        # (a mode-gated scope is legitimate), but if it *can't* be
        # entered it exempts nothing -> fold into ANA104 only when
        # unconditional
        if not conditional:
            out.append(Finding(
                file, line, "ANA104",
                f'assume_disjoint("{reason}") was never entered in any '
                "analyzed mode and exempts no conflicting pair",
                extra={"reason": reason}))
    return out


def _disjoint_call(node: ast.AST) -> Optional[ast.Call]:
    """``node`` itself when it is an ``<x>.assume_disjoint(...)`` call."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "assume_disjoint"):
        return node
    return None


def _methods(file: str, cls_name: str) -> List[ast.FunctionDef]:
    """The methods of class ``cls_name`` as parsed from ``file``."""
    try:
        tree = ast.parse(Path(file).read_text())
    except OSError:
        return []
    body = next((st.body for st in ast.walk(tree)
                 if isinstance(st, ast.ClassDef) and st.name == cls_name), [])
    return [st for st in body if isinstance(st, ast.FunctionDef)]


def source_scopes(app_cls: type) -> List[Tuple[str, int, str, bool]]:
    """``(file, with line, reason, conditional)`` of every
    ``assume_disjoint`` scope in the methods ``app_cls`` runs.

    Methods resolve through the MRO, first definition wins.  A ``with``
    enters a scope directly (``with dsm.assume_disjoint(...)``) or
    through a name assigned from an expression that calls it (barnes'
    ``ctx = nullcontext() if locked else dsm.assume_disjoint(...)``);
    the latter is conditional.  Each scope is keyed by its ``with``
    line, the line the run reports when it enters the scope.
    """
    seen: Set[str] = set()
    out: Dict[Tuple[str, int], Tuple[str, int, str, bool]] = {}
    for cls in app_cls.__mro__:
        file = getattr(sys.modules.get(cls.__module__), "__file__", None)
        for fn in _methods(file, cls.__name__) if file else ():
            if fn.name in seen:
                continue
            seen.add(fn.name)
            bound: Dict[str, ast.Call] = {}
            for st in ast.walk(fn):
                if isinstance(st, ast.Assign):
                    call = next(filter(None, map(_disjoint_call,
                                                 ast.walk(st.value))), None)
                    for t in st.targets:
                        if call is not None and isinstance(t, ast.Name):
                            bound[t.id] = call
            for st in ast.walk(fn):
                if not isinstance(st, ast.With):
                    continue
                for item in st.items:
                    expr = item.context_expr
                    call = _disjoint_call(expr)
                    conditional = call is None
                    if conditional and isinstance(expr, ast.Name):
                        call = bound.get(expr.id)
                    if call is None:
                        continue
                    arg = call.args[0] if call.args else None
                    reason = (str(arg.value) if isinstance(arg, ast.Constant)
                              else ast.unparse(call))
                    out.setdefault((file, st.lineno),
                                   (file, st.lineno, reason, conditional))
    return list(out.values())
