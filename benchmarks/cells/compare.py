"""Compare cell-benchmark runs of two commits.

Usage (from the repository root)::

    python benchmarks/cells/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the JSON files ``run.py --out`` wrote for one
commit, with identical benchmark settings on both sides (ten runs per
side, alternating sides, is the intended use).  Runs pair up by file
name order.  For every workload x end-to-end metric the tool prints
each side's median and quartiles, the pairs the change won, and a
verdict against the bound in ``BENCHMARK.json``, the first that applies:

* ``failed``     -- the change's runs failed more operations than the
  parent's (a time saved by crashing early is no gain);
* ``unresolved`` -- for a host time (unit ``s``), the two sides' median
  calibration spin differs by more than the bound: the host itself
  changed speed between the sides;
* ``improved``   -- the change won >= 9/10 of the pairs and the medians
  differ by more than the parent's interquartile range;
* ``unresolved`` -- either side's spread (IQR / median) exceeds the bound;
* ``regressed``  -- the change's median is worse by more than the bound;
* ``no worse``   -- otherwise.

When both sides include traced runs (``--trace``) it also prints the
largest per-layer ``*self_s`` median deltas per workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

SPEC = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
TOP_LAYERS = 5


def load(directory: Path) -> Dict[str, List[dict]]:
    """workload -> per-run results (``run.py``'s per-workload record:
    metrics, ``failed`` and host ``context``), in file name order."""
    runs: Dict[str, List[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        for name, res in json.loads(path.read_text())["workloads"].items():
            runs[name].append(res)
    return runs


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str,
            bound: float, failed: Tuple[int, int] = (0, 0),
            spin: Optional[Tuple[float, float]] = None) -> Tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs) for one metric.

    ``failed`` is each side's failed operations over all its runs;
    ``spin`` is each side's median calibration spin, given for host
    times only.
    """
    sign = 1.0 if better == "lower" else -1.0
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if sign * (p - c) > 0)
    if failed[1] > failed[0]:
        return "failed", won, len(pairs)
    if spin is not None and abs(spin[1] / spin[0] - 1.0) > bound:
        return "unresolved", won, len(pairs)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    gap = sign * (pm - cm)  # > 0: the change is better
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    if pairs and won >= 0.9 * len(pairs) and gap > p3 - p1:
        return "improved", won, len(pairs)
    if spread > bound:
        return "unresolved", won, len(pairs)
    if -gap > bound * abs(pm):
        return "regressed", won, len(pairs)
    return "no worse", won, len(pairs)


def _fmt(values: Sequence[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.5g}, {q3:.5g}]"


def compare(parent: Dict[str, List[dict]], change: Dict[str, List[dict]],
            spec: dict) -> List[str]:
    lines = [f"{'workload':10s} {'metric':12s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'won':>6s}  verdict"]
    for w in spec["workloads"]:
        name = w["name"]
        if not parent.get(name) or not change.get(name):
            continue
        failed = (sum(r["failed"] for r in parent[name]),
                  sum(r["failed"] for r in change[name]))
        spin = tuple(statistics.median(r["context"]["calibration_spin_s"] for r in side[name])
                     for side in (parent, change))
        for m in spec["end_to_end"]:
            pv = [r["end_to_end"][m["name"]] for r in parent[name]]
            cv = [r["end_to_end"][m["name"]] for r in change[name]]
            v, won, n = verdict(pv, cv, m["better"], m["bound"], failed,
                                spin if m["unit"] == "s" else None)
            lines.append(f"{name:10s} {m['name']:12s} {_fmt(pv):>34s} {_fmt(cv):>34s} "
                         f"{won:>3d}/{n:<2d}  {v}")
        lines.append(f"{name:10s} failed ops {failed[0]} -> {failed[1]}, calibration "
                     f"spin {spin[0]:.4f} s -> {spin[1]:.4f} s")
    for w in spec["workloads"]:
        name = w["name"]
        pl = [r["per_layer"] for r in parent.get(name, []) if r.get("per_layer")]
        cl = [r["per_layer"] for r in change.get(name, []) if r.get("per_layer")]
        if not pl or not cl:
            continue
        deltas = []
        for key in pl[0]:
            if key.endswith("self_s"):
                p = statistics.median(r[key] for r in pl)
                c = statistics.median(r[key] for r in cl)
                deltas.append((c - p, key, p, c))
        deltas.sort(key=lambda d: -abs(d[0]))
        lines.append(f"{name}: largest per-layer self-time changes")
        for d, key, p, c in deltas[:TOP_LAYERS]:
            lines.append(f"  {key:24s} {p:9.4f} s -> {c:9.4f} s ({d:+.4f} s)")
    return lines


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    if not parent or not change:
        print("error: both directories need run JSONs from run.py --out", file=sys.stderr)
        return 2
    print("\n".join(compare(parent, change, json.loads(SPEC.read_text()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
