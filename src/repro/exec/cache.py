"""Content-addressed on-disk result store.

Each matrix cell is stored as one JSON file named by the SHA-256 of its
``RunConfig`` plus a *fingerprint* of the simulator itself -- the hash
of every ``repro`` source file and the calibrated machine constants.
Touch a protocol handler, a cost constant, or an application model and
every previously cached result silently stops matching; nothing stale
can ever be served.

Default location: ``~/.cache/repro-dsm`` (``$REPRO_DSM_CACHE`` or the
``--cache-dir`` CLI flag override it).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

from repro.exec.serialize import RunRecord, config_to_dict

if TYPE_CHECKING:  # imported lazily at runtime: harness imports exec
    from repro.harness.experiment import RunConfig

_FINGERPRINT: Optional[str] = None

#: failures worth caching: deterministic simulation outcomes.  Timeouts
#: and pool breakage depend on the host and must be retried next time.
#: TransportError (retransmit budget exhausted under a fault plan) is
#: deterministic -- the fault plan is seeded and part of the config.
_CACHEABLE_FAILURES = ("SimulationError", "TransportError")

#: Sub-packages that can never change a simulation outcome: they only
#: *measure* (``perf``: the stats-sha and calibration helpers the cell
#: benchmark imports) or inspect source without running it (the
#: ``analyze`` static checker) -- editing them must not invalidate the
#: result cache.
_FINGERPRINT_EXCLUDE_DIRS = ("perf", "analyze")

#: Presentation/orchestration modules inside otherwise-semantic
#: packages: report/table/figure renderers and the CLI read finished
#: Stats, they never touch the simulation, and the cost-model
#: sensitivity sweep only builds RunConfigs, every field of which is in
#: the cache key.  harness/experiment.py and harness/matrix.py stay IN
#: the fingerprint (they build the Machine and define cell parameters).
_FINGERPRINT_EXCLUDE_FILES = frozenset(
    {
        "harness/report.py",
        "harness/tables.py",
        "harness/figures.py",
        "harness/cli.py",
        "harness/sensitivity.py",
    }
)


def _fingerprint_relevant(rel_posix: str) -> bool:
    """Whether a ``repro``-relative source path feeds the fingerprint."""
    top = rel_posix.split("/", 1)[0]
    if top in _FINGERPRINT_EXCLUDE_DIRS:
        return False
    return rel_posix not in _FINGERPRINT_EXCLUDE_FILES


def default_cache_dir() -> str:
    env = os.environ.get("REPRO_DSM_CACHE")
    if env:
        return env
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-dsm")


def code_fingerprint() -> str:
    """SHA-256 over the *simulation-semantics* ``repro`` sources plus
    the default machine cost constants.  Memoized per process.

    Scoped deliberately: measurement, presentation, and static-analysis
    code (``repro/perf``, ``repro/analyze``, the harness
    report/table/figure/CLI/sensitivity modules -- see
    ``_FINGERPRINT_EXCLUDE_*``) is hashed
    *out*, so tuning a benchmark threshold or a table format does not
    stampede-invalidate every cached simulation result.  Everything
    that can influence a :class:`~repro.stats.counters.Stats` -- apps,
    cluster, core, memory, net, runtime, sim, sync, check, exec --
    stays in.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        import repro

        _FINGERPRINT = _fingerprint_tree(Path(repro.__file__).parent)
    return _FINGERPRINT


def _fingerprint_tree(pkg_root: Path) -> str:
    """The fingerprint of one source tree (unmemoized; tests hash
    scratch copies of the package through this)."""
    import repro
    from repro.cluster.config import MachineParams

    h = hashlib.sha256()
    h.update(repro.__version__.encode())
    h.update(repr(sorted(dataclasses.asdict(MachineParams()).items())).encode())
    for path in sorted(pkg_root.rglob("*.py")):
        rel = path.relative_to(pkg_root).as_posix()
        if not _fingerprint_relevant(rel):
            continue
        h.update(rel.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class ResultCache:
    """Dictionary-shaped view over the cache directory.

    ``get`` returns a :class:`RunRecord` (flagged ``cached=True``) or
    ``None``; ``put`` writes atomically (temp file + rename) so
    concurrent sweeps sharing a directory never read torn JSON.
    """

    def __init__(
        self, cache_dir: Optional[str] = None, fingerprint: Optional[str] = None
    ):
        self.cache_dir = Path(cache_dir or default_cache_dir())
        self.fingerprint = fingerprint or code_fingerprint()
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def key(self, cfg: "RunConfig", extra: Optional[Dict] = None) -> str:
        """``extra`` captures execution knobs that change the outcome
        (e.g. a non-default event budget) so they address distinct
        entries."""
        payload = json.dumps(
            {
                "config": config_to_dict(cfg),
                "fingerprint": self.fingerprint,
                "extra": extra or None,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _path(self, cfg: "RunConfig", extra: Optional[Dict] = None) -> Path:
        return self.cache_dir / f"{self.key(cfg, extra)}.json"

    # ------------------------------------------------------------------
    def get(self, cfg: "RunConfig", extra: Optional[Dict] = None) -> Optional[RunRecord]:
        path = self._path(cfg, extra)
        try:
            with open(path) as fh:
                envelope = json.load(fh)
        except (OSError, json.JSONDecodeError):
            return None
        if envelope.get("fingerprint") != self.fingerprint:
            return None
        try:
            rec = RunRecord.from_json_dict(envelope["record"])
        except (KeyError, TypeError):
            return None
        rec.cached = True
        return rec

    def put(self, rec: RunRecord, extra: Optional[Dict] = None) -> bool:
        """Store a record; returns False for uncacheable failures."""
        if not rec.ok and rec.error_type not in _CACHEABLE_FAILURES:
            return False
        envelope = {
            "fingerprint": self.fingerprint,
            "label": rec.config.label(),
            "record": rec.to_json_dict(),
        }
        path = self._path(rec.config, extra)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(envelope, fh, sort_keys=True)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        return True

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.cache_dir.glob("*.json"))

    def clear(self) -> int:
        """Delete every stored record; returns how many were removed."""
        n = 0
        for path in self.cache_dir.glob("*.json"):
            try:
                path.unlink()
                n += 1
            except OSError:
                pass
        return n

    def stats(self) -> Dict[str, float]:
        files = list(self.cache_dir.glob("*.json"))
        return {
            "entries": len(files),
            "bytes": float(sum(p.stat().st_size for p in files)),
        }
