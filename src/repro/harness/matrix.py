"""Sweep helpers: run (app x protocol x granularity) matrices and
collect speedups/fault counts.

The actual execution -- parallel fan-out, the on-disk result cache,
per-cell failure capture, the JSONL event log -- lives in
:mod:`repro.exec`; this module builds the config list, keeps a small
in-process memo so benchmarks sharing cells within one interpreter do
not recompute them, and provides the :class:`SpeedupMatrix` view the
table emitters consume.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.cluster.config import GRANULARITIES
from repro.core.registry import evaluated_protocols
from repro.exec.cache import ResultCache
from repro.exec.events import EventLog
from repro.exec.pool import Check, execute_many
from repro.exec.serialize import RunRecord
from repro.harness.experiment import RunConfig

#: the paper's evaluated trio, in paper order (from the registry -- the
#: single source of truth for which protocols exist)
PROTOCOLS = evaluated_protocols()

#: in-process memo keyed by RunConfig (records, not Machines)
_CACHE: Dict[RunConfig, RunRecord] = {}

#: session defaults installed by e.g. benchmarks/conftest.py so every
#: sweep in the process picks up parallelism and the disk cache without
#: each call site threading them through
_DEFAULT_JOBS: int = 1
_DEFAULT_DISK_CACHE: Optional[ResultCache] = None


def configure(jobs: Optional[int] = None, cache: Optional[ResultCache] = None) -> None:
    """Install process-wide execution defaults for :func:`sweep`."""
    global _DEFAULT_JOBS, _DEFAULT_DISK_CACHE
    if jobs is not None:
        _DEFAULT_JOBS = jobs
    _DEFAULT_DISK_CACHE = cache


def session_knobs(
    jobs: Optional[int] = None, cache: Optional[ResultCache] = None
) -> Dict[str, Any]:
    """``execute_many``'s ``jobs`` and ``cache``, each defaulting to the
    process-wide setting installed by :func:`configure`."""
    return {
        "jobs": _DEFAULT_JOBS if jobs is None else jobs,
        "cache": _DEFAULT_DISK_CACHE if cache is None else cache,
    }


def run_cells(
    configs: Sequence[RunConfig],
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    **run,
) -> Dict[RunConfig, RunRecord]:
    """Run ``configs`` through the in-process memo: the cells it lacks
    go to one :func:`~repro.exec.pool.execute_many` call with the
    session's knobs (:func:`session_knobs`) and ``run``'s."""
    fresh = [c for c in configs if c not in _CACHE]
    if fresh:
        _CACHE.update(execute_many(fresh, **session_knobs(jobs, cache), **run))
    return {c: _CACHE[c] for c in configs}


def cached_run(cfg: RunConfig) -> RunRecord:
    """One cell through the in-process memo, simulated in-process."""
    return run_cells([cfg], jobs=1)[cfg]


def clear_cache() -> None:
    """Drop the in-process memo (the disk cache is unaffected)."""
    _CACHE.clear()


def matrix_configs(
    apps: Sequence[str],
    protocols: Sequence[str] = PROTOCOLS,
    granularities: Sequence[int] = GRANULARITIES,
    mechanism: str = "polling",
    scale: str = "default",
    nprocs: int = 16,
) -> List[RunConfig]:
    """The config list for one (apps x protocols x granularities) sweep."""
    return [
        RunConfig(
            app=app,
            protocol=proto,
            granularity=g,
            mechanism=mechanism,
            nprocs=nprocs,
            scale=scale,
        )
        for app in apps
        for proto in protocols
        for g in granularities
    ]


def sweep(
    apps: Sequence[str],
    protocols: Sequence[str] = PROTOCOLS,
    granularities: Sequence[int] = GRANULARITIES,
    mechanism: str = "polling",
    scale: str = "default",
    nprocs: int = 16,
    progress: Optional[Callable[[str], None]] = None,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    events: Optional[EventLog] = None,
    timeout: Optional[float] = None,
    max_events: Optional[int] = None,
    check: Check = False,
) -> Dict[RunConfig, RunRecord]:
    """Run the full matrix; returns config -> record.

    ``jobs`` > 1 fans cells out over worker processes; ``cache`` serves
    and persists cells on disk; both default to the process-wide
    settings installed by :func:`configure`.  Failed cells (event
    budget, timeout) come back as records with ``ok=False`` rather than
    aborting the sweep.

    ``check`` runs every cell under the :mod:`repro.check` race
    detector and invariant sanitizer (cells with findings fail with
    ``error_type='CheckFailure'``).  Checked records bypass the
    in-process memo entirely -- they must neither serve nor shadow the
    unchecked matrix cells -- and carry their own disk-cache key.
    """
    configs = matrix_configs(apps, protocols, granularities, mechanism, scale, nprocs)
    run = dict(events=events, timeout=timeout, max_events=max_events,
               progress=progress)
    if check:
        return execute_many(configs, check=check, **session_knobs(jobs, cache),
                            **run)
    return run_cells(configs, jobs=jobs, cache=cache, **run)


class SpeedupMatrix:
    """Convenience view over sweep results for the HM statistics.

    Indexes are built once here so the per-cell accessors are O(1)
    instead of scanning every result per lookup.  Failed records are
    excluded -- they have no speedup -- so lookups on them raise
    ``KeyError`` like any other missing cell.
    """

    def __init__(self, results: Dict[RunConfig, RunRecord]):
        self.results = results
        self._index: Dict[Tuple[str, str, int], RunRecord] = {}
        self._by_app: Dict[str, List[Tuple[RunConfig, RunRecord]]] = {}
        for c, r in results.items():
            if r.stats is None:
                continue
            self._index[(c.app, c.protocol, c.granularity)] = r
            self._by_app.setdefault(c.app, []).append((c, r))

    def speedups(self) -> Dict[Tuple[str, str, int], float]:
        return {key: r.speedup for key, r in self._index.items()}

    def best_combination(self, app: str) -> Tuple[str, int, float]:
        cells = self._by_app.get(app)
        if not cells:
            raise KeyError(app)
        c, r = max(cells, key=lambda cr: cr[1].speedup)
        return (c.protocol, c.granularity, r.speedup)

    def speedup(self, app: str, protocol: str, granularity: int) -> float:
        try:
            return self._index[(app, protocol, granularity)].speedup
        except KeyError:
            raise KeyError((app, protocol, granularity)) from None

    def failed(self) -> List[RunRecord]:
        """Records that did not produce stats (budget/timeout/crash)."""
        return [r for r in self.results.values() if r.stats is None]
