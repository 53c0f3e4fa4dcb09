"""Diff (or re-pin) tests/golden_shas.json, the one stats-sha pin file.

The file maps ``RunConfig.label()`` to the 16-hex ``_stats_sha`` of
every cell of :func:`golden_configs` (all at the ``tiny`` scale).

    python tools/golden_shas.py            # print `label: pinned -> observed`
                                           # per moved sha; exit 1 if any
    python tools/golden_shas.py --write    # re-pin after a deliberate change

It runs the sources of the checkout it sits in.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.cluster.config import GRANULARITIES  # noqa: E402
from repro.core.registry import scaling_protocols  # noqa: E402
from repro.exec import execute_many  # noqa: E402
from repro.harness.experiment import RunConfig  # noqa: E402
from repro.perf.micros import _stats_sha  # noqa: E402

GOLDEN_FILE = ROOT / "tests" / "golden_shas.json"


def golden_configs() -> List[RunConfig]:
    """16 nodes: four apps x every scaling protocol x every granularity;
    4 nodes: lu, ocean-rowwise x the same x polling/interrupt (the cells
    the DefaultPolicy check re-runs); 128 and 1024 nodes at 1 KB blocks,
    above the wide-copyset (sorted fan-out, group headers) and
    tiered-fabric switch points; 4 nodes again for the two extension
    protocols erc and dc, with barnes-original's fine-grain locks added
    to lu and ocean-rowwise."""
    protos = scaling_protocols()
    return [
        RunConfig(app=app, protocol=p, granularity=g, nprocs=16, scale="tiny")
        for app in ("lu", "fft", "ocean-rowwise", "water-nsquared")
        for p in protos
        for g in GRANULARITIES
    ] + [
        RunConfig(app=app, protocol=p, granularity=g, mechanism=mech,
                  nprocs=4, scale="tiny")
        for app in ("lu", "ocean-rowwise")
        for p in protos
        for g in GRANULARITIES
        for mech in ("polling", "interrupt")
    ] + [
        RunConfig(app=app, protocol=p, granularity=1024, nprocs=n, scale="tiny")
        for n in (128, 1024)
        for app in ("lu", "ocean-rowwise")
        for p in protos
    ] + [
        RunConfig(app=app, protocol=p, granularity=g, mechanism=mech,
                  nprocs=4, scale="tiny")
        for app in ("lu", "ocean-rowwise", "barnes-original")
        for p in ("erc", "dc")
        for g in GRANULARITIES
        for mech in ("polling", "interrupt")
    ]


def observed_shas(configs: List[RunConfig]) -> Dict[str, str]:
    """label -> stats-sha (or ``FAIL <error type>``): one process, no
    cache."""
    return {
        cfg.label(): _stats_sha(rec) if rec.ok else f"FAIL {rec.error_type}"
        for cfg, rec in execute_many(configs).items()
    }


def load_pinned() -> Dict[str, str]:
    return json.loads(GOLDEN_FILE.read_text())


def diff(pinned: Dict[str, str], observed: Dict[str, str]) -> List[str]:
    """``label: pinned -> observed`` per differing cell (``missing``
    for a side without the label)."""
    labels = list(pinned) + [k for k in observed if k not in pinned]
    return [
        f"{k}: {pinned.get(k, 'missing')} -> {observed.get(k, 'missing')}"
        for k in labels
        if pinned.get(k) != observed.get(k)
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="re-pin the golden file from this tree")
    args = ap.parse_args(argv)
    observed = observed_shas(golden_configs())
    failed = [f"{k}: {v}" for k, v in observed.items() if v.startswith("FAIL")]
    if args.write and not failed:
        GOLDEN_FILE.write_text(json.dumps(observed, indent=1) + "\n")
        print(f"wrote {len(observed)} shas to {GOLDEN_FILE}")
        return 0
    lines = failed if args.write else diff(load_pinned(), observed)
    print("\n".join(lines) or f"all {len(observed)} golden cells match")
    return 1 if lines else 0


if __name__ == "__main__":
    raise SystemExit(main())
