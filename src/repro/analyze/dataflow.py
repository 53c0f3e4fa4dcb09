"""Lockset + barrier-region dataflow over the app CFG.

Computes, for every shared access site, its *synchronization context*:

* the **must-lockset** -- lock-id expressions held on every path to
  the access (forward analysis, meet = intersection).  Lock ids are
  compared as normalized source expressions (``100 + owner``), which
  is exactly the right granularity for the SPLASH-style lock families
  the apps use: within one loop iteration the same expression denotes
  the same concrete lock.
* the **barrier region** -- the set of barrier sites reaching the
  access without an intervening barrier (backward-looking), and the
  set of next barriers (forward-looking).  Rendered as "between
  barrier(a) and barrier(b)" in findings so a reader can see which
  phase an access sits in.
* the active ``assume_disjoint`` scopes and the inline chain, carried
  over from the CFG build.

The results are *contexts for reporting and audit*; the authoritative
conflict decisions use the concrete per-rank locksets and barrier
clocks from :mod:`repro.analyze.footprint` (a must-lockset can lose a
conditionally held lock that the concrete exploration tracks
precisely, e.g. barnes' ``if locked: acquire``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analyze.cfg import Cfg, OpNode

#: sentinel region names for program start / end
START = "program start"
END = "program end"


@dataclass
class SiteContext:
    """Merged synchronization context of one source site.

    One source line can be reached through several inline paths (e.g.
    a task helper inlined under both the own-queue drain and the steal
    path); contexts are merged per (file, line): locks by
    intersection (must across all paths), regions and scopes by union.
    """

    file: str
    line: int
    end_line: int
    kind: str  # 'r' | 'w' | 'barrier' | 'acquire' | 'release'
    addr_src: str
    size_src: str
    locks: FrozenSet[str] = frozenset()
    regions: Set[str] = field(default_factory=set)
    disjoint: Set[str] = field(default_factory=set)
    chains: Set[Tuple[str, ...]] = field(default_factory=set)

    def region_text(self) -> str:
        return " | ".join(sorted(self.regions)) or "?"


def _barrier_label(op: OpNode) -> str:
    return f"barrier({op.args_src[0] if op.args_src else '?'})@{op.line}"


def _must_locksets(cfg: Cfg) -> Dict[int, FrozenSet[str]]:
    """Lockset *entering* each node (None = unreached TOP)."""
    n = len(cfg.nodes)
    out: List[Optional[FrozenSet[str]]] = [None] * n
    in_: List[Optional[FrozenSet[str]]] = [None] * n
    in_[cfg.entry] = frozenset()
    work = [cfg.entry]
    while work:
        nid = work.pop()
        node = cfg.nodes[nid]
        cur = in_[nid] if in_[nid] is not None else frozenset()
        op = node.op
        if op is not None and op.kind == "acquire" and op.args_src:
            cur = cur | {op.args_src[0]}
        elif op is not None and op.kind == "release" and op.args_src:
            cur = cur - {op.args_src[0]}
        if out[nid] is not None and out[nid] == cur:
            continue
        out[nid] = cur
        for s in node.succs:
            new = cur if in_[s] is None else (in_[s] & cur)
            if in_[s] is None or new != in_[s]:
                in_[s] = new
                work.append(s)
    return {i: (v if v is not None else frozenset()) for i, v in enumerate(in_)}


def _reaching_barriers(cfg: Cfg, forward: bool) -> Dict[int, FrozenSet[str]]:
    """Per node: barrier labels reaching it with no barrier between.

    ``forward=True`` answers "which barrier most recently preceded
    this node"; ``forward=False`` runs on the reversed graph and
    answers "which barrier comes next".
    """
    n = len(cfg.nodes)
    if forward:
        edges = [cfg.nodes[i].succs for i in range(n)]
        roots = [cfg.entry]
        root_val = frozenset({START if forward else END})
    else:
        edges = [cfg.nodes[i].preds for i in range(n)]
        roots = [i for i in range(n) if not cfg.nodes[i].succs]
        root_val = frozenset({END})
    val: List[Optional[FrozenSet[str]]] = [None] * n
    work: List[int] = []
    for r in roots:
        val[r] = root_val
        work.append(r)
    out: List[Optional[FrozenSet[str]]] = [None] * n
    while work:
        nid = work.pop()
        node = cfg.nodes[nid]
        cur = val[nid] or frozenset()
        op = node.op
        if op is not None and op.kind == "barrier":
            cur = frozenset({_barrier_label(op)})
        if out[nid] is not None and out[nid] == cur:
            continue
        out[nid] = cur
        for s in edges[nid]:
            new = cur if val[s] is None else (val[s] | cur)
            if val[s] is None or new != val[s]:
                val[s] = new
                work.append(s)
    return {i: (v if v is not None else frozenset()) for i, v in enumerate(val)}


def compute_contexts(cfg: Cfg) -> Dict[Tuple[str, int], SiteContext]:
    """Site contexts for every access and sync op, keyed by every
    source line the op's statement spans (so footprint records that
    land mid-statement still join)."""
    locks = _must_locksets(cfg)
    prev_bar = _reaching_barriers(cfg, forward=True)
    next_bar = _reaching_barriers(cfg, forward=False)
    sites: Dict[Tuple[str, int], SiteContext] = {}
    for node in cfg.nodes:
        op = node.op
        if op is None or op.kind in ("compute", "unknown"):
            continue
        region = (
            f"between [{' | '.join(sorted(prev_bar[node.id])) or START}] "
            f"and [{' | '.join(sorted(next_bar[node.id])) or END}]"
        )
        for line in range(op.line, op.end_line + 1):
            key = (op.file, line)
            ctx = sites.get(key)
            if ctx is None:
                sites[key] = SiteContext(
                    file=op.file,
                    line=op.line,
                    end_line=op.end_line,
                    kind=op.kind,
                    addr_src=op.addr_src,
                    size_src=op.size_src,
                    locks=locks[node.id],
                    regions={region},
                    disjoint=set(op.disjoint),
                    chains={op.chain},
                )
            else:
                ctx.locks = ctx.locks & locks[node.id]
                ctx.regions.add(region)
                ctx.disjoint |= set(op.disjoint)
                ctx.chains.add(op.chain)
    return sites
