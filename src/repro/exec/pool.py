"""Parallel, fault-tolerant scheduler for matrix cells.

Every cell of the evaluation matrix is an independent simulation, so
the sweep is embarrassingly parallel: ``execute_many`` fans cells out
over a ``ProcessPoolExecutor``, serves repeats from the on-disk cache,
and isolates failures -- a cell that exhausts its event budget or its
wall-clock timeout becomes a failed :class:`RunRecord` instead of
killing the sweep.  Because the simulation engine is deterministic
(bit-identical event ordering per ``sim/engine.py``), a parallel sweep
returns exactly the summaries a serial sweep would.

Fault model:

* ``SimulationError`` (event-budget exhaustion, deadlock) is a
  deterministic outcome: recorded as failed, cached, never retried.
* ``CellTimeout`` (per-run wall-clock limit, enforced by ``SIGALRM``
  inside the worker) is host-dependent: recorded as failed, not cached.
* A broken pool (worker killed, e.g. by the OOM killer) is transient:
  the affected cells are resubmitted to a fresh pool up to ``retries``
  times before being recorded as failed.
"""

from __future__ import annotations

import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Union

from repro.exec.cache import ResultCache
from repro.exec.events import EventLog
from repro.exec.serialize import RunRecord, config_to_dict
from repro.sim import engine as sim_engine
from repro.stats.counters import protocol_metadata

if TYPE_CHECKING:  # imported lazily at runtime: harness imports exec
    from repro.harness.experiment import RunConfig


#: the ``check`` knob: False (unchecked), True (word units) or a
#: race-detection unit ("byte" | "word" | "block" | byte count)
Check = Union[bool, str, int]


class CellTimeout(Exception):
    """A single cell exceeded its wall-clock budget."""


#: Set by the SIGALRM handler, checked by ``_simulate_cell`` after the
#: run returns: a timeout whose interruption could not be delivered as
#: an exception still fails the cell.
_TIMED_OUT = False


def _alarm_handler(signum, frame):
    # Never raise from here.  The signal lands at an arbitrary bytecode
    # boundary: inside a GC callback or a __del__ the raise is silently
    # discarded, and inside exception-reporting machinery (the
    # unraisable hook formatting a traceback) it escapes through code
    # that has nothing to do with the cell.  Flag the timeout and
    # poison the running engine instead -- its dispatch loop raises
    # CellTimeout from a frame that always propagates to
    # _simulate_cell.  When no engine is dispatching (cell setup or
    # teardown), the flag alone fails the cell once the run returns.
    global _TIMED_OUT
    _TIMED_OUT = True
    active = sim_engine._ACTIVE
    if active is not None:
        active.interrupt(CellTimeout("per-run timeout expired"))


#: Cleanup hooks run inside a (pool-worker or serial) process after a
#: cell times out.  A timeout cuts the run off at an arbitrary point,
#: so any *process-level* memo being built at that instant may be left
#: half-populated -- and pool workers are warm: the next cell they run
#: would consult the poisoned memo.  Modules that keep process-level
#: memo state register a reset here.
_WORKER_RESETS: List[Callable[[], None]] = []


def register_worker_reset(fn: Callable[[], None]) -> Callable[[], None]:
    """Register a zero-arg callable that restores a process-level memo
    to its pristine state (returns ``fn`` so it can be used bare or as
    a decorator)."""
    _WORKER_RESETS.append(fn)
    return fn


def _reset_worker_state() -> None:
    """Drop every process-level memo after a CellTimeout.

    Known memos are reset directly (imported lazily: they may simply
    not be loaded yet in this worker); extension memos go through
    :func:`register_worker_reset`.
    """
    import sys

    import repro.exec.cache as _cache

    _cache._FINGERPRINT = None
    matrix = sys.modules.get("repro.harness.matrix")
    if matrix is not None:
        matrix._CACHE.clear()
    for fn in _WORKER_RESETS:
        fn()


def _simulate_cell(
    cfg: "RunConfig",
    max_events: Optional[int] = None,
    timeout_s: Optional[float] = None,
    attempt: int = 1,
    check: Check = False,
) -> RunRecord:
    """Run one cell to a RunRecord; never raises.

    Top-level so it pickles into pool workers.  The timeout uses
    ``SIGALRM``, which works both serially and in workers (pool workers
    execute jobs on their main thread) but is skipped when called from
    a non-main thread.

    A successful record carries the run's coherence-metadata accounting
    (:func:`~repro.stats.counters.protocol_metadata`) in
    ``record.metadata``: the live machine is gone once the record
    leaves this function.

    ``check`` (True, or a race-detection unit: ``"byte"``, ``"word"``,
    ``"block"`` or a byte count; True means ``"word"``) runs the cell
    under the :mod:`repro.check` race detector and invariant sanitizer:
    a cell with findings becomes a *failed* record (error_type
    ``CheckFailure``).  Clean or not, a checked record carries the
    checker summary in ``record.check``.
    """
    global _TIMED_OUT
    start = time.monotonic()
    use_alarm = (
        timeout_s is not None
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    old_handler = None
    if use_alarm:
        _TIMED_OUT = False
        old_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        # Armed with a repeat interval, not one-shot: the handler only
        # flags and poisons, so a fire that lands before the engine
        # starts dispatching (cell setup) would otherwise be inert --
        # the re-fire delivers the poison once the event loop is live.
        signal.setitimer(signal.ITIMER_REAL, timeout_s, min(timeout_s, 0.05))
    try:
        from repro.harness.experiment import run_experiment

        result = run_experiment(cfg, max_events=max_events, check=check)
        if use_alarm and _TIMED_OUT:
            # Every fire landed outside the event loop and the run
            # still completed; over budget is over budget.
            raise CellTimeout("per-run timeout expired")
        report = result.check
        if report is not None and not report.ok:
            from repro.check import CheckFailure

            rec = RunRecord.from_failure(cfg, CheckFailure(report, cfg.label()))
        else:
            rec = RunRecord.from_stats(cfg, result.stats)
            rec.metadata = protocol_metadata(result.machine).to_dict()
        if report is not None:
            rec.check = report.summary()
        rec.duration_s = time.monotonic() - start
        rec.attempts = attempt
        return rec
    except Exception as exc:
        if isinstance(exc, CellTimeout):
            # The poison cut the run off at an arbitrary event: assume
            # nothing about half-built process-level memo state.
            _reset_worker_state()
        return RunRecord.from_failure(
            cfg, exc, duration_s=time.monotonic() - start, attempts=attempt
        )
    finally:
        if use_alarm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
            _TIMED_OUT = False


def _cache_extra(max_events, check: Check = False):
    """Non-default execution knobs that must partition the cache.

    An unchecked sweep's extra dict (and hence its cache keys) is
    byte-for-byte what it was before checking existed; a checked one
    gains its detection unit (``True`` for the default word unit), so
    checked records never shadow unchecked ones or each other."""
    extra = {}
    if max_events is not None:
        extra["max_events"] = max_events
    if check:
        extra["check"] = True if check == "word" else check
    return extra or None


def _finish(
    rec: RunRecord,
    cache: Optional[ResultCache],
    log: EventLog,
    extra: Optional[Dict] = None,
) -> None:
    """Emit the terminal event for a record and cache it."""
    cfg_d = config_to_dict(rec.config)
    if rec.ok:
        log.emit(
            "run_finished",
            config=cfg_d,
            duration_s=rec.duration_s,
            speedup=rec.speedup,
        )
    else:
        log.emit(
            "run_failed",
            config=cfg_d,
            error=rec.error,
            error_type=rec.error_type,
            duration_s=rec.duration_s,
        )
    if cache is not None:
        cache.put(rec, extra)


def execute_many(
    configs: Sequence["RunConfig"],
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    events: Optional[EventLog] = None,
    max_events: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 1,
    progress=None,
    check: Check = False,
) -> Dict["RunConfig", RunRecord]:
    """Execute a batch of cells, ``jobs`` at a time.

    Returns config -> record in the order given (duplicates collapse to
    one execution).  ``retries`` bounds how many times a cell is
    resubmitted after transient pool failures.
    """
    t0 = time.monotonic()
    log = events if events is not None else EventLog()
    ordered: List["RunConfig"] = []
    for cfg in configs:
        if cfg not in ordered:
            ordered.append(cfg)
    log.emit(
        "sweep_started",
        cells=len(ordered),
        jobs=jobs,
        cache_backend=str(cache.cache_dir) if cache is not None else None,
    )

    out: Dict["RunConfig", RunRecord] = {}
    pending: List["RunConfig"] = []
    extra = _cache_extra(max_events, check)
    for cfg in ordered:
        if progress:
            progress(cfg.label())
        hit = cache.get(cfg, extra) if cache is not None else None
        if hit is not None:
            log.emit("cache_hit", config=config_to_dict(cfg))
            out[cfg] = hit
        else:
            pending.append(cfg)

    if pending:
        if jobs <= 1:
            for cfg in pending:
                log.emit("run_started", config=config_to_dict(cfg), attempt=1)
                rec = _simulate_cell(
                    cfg, max_events=max_events, timeout_s=timeout, check=check
                )
                _finish(rec, cache, log, extra)
                out[cfg] = rec
        else:
            _execute_pool(
                pending, out, jobs, cache, log, max_events, timeout, retries,
                check,
            )

    results = {cfg: out[cfg] for cfg in ordered}
    n_ok = sum(1 for r in results.values() if r.ok)
    log.emit(
        "sweep_finished",
        ok=n_ok,
        failed=len(results) - n_ok,
        cache_hits=sum(1 for r in results.values() if r.cached),
        duration_s=time.monotonic() - t0,
    )
    return results


def _execute_pool(
    pending: List["RunConfig"],
    out: Dict["RunConfig", RunRecord],
    jobs: int,
    cache: Optional[ResultCache],
    log: EventLog,
    max_events: Optional[int],
    timeout: Optional[float],
    retries: int,
    check: Check = False,
) -> None:
    """Fan ``pending`` out over worker processes, retrying cells whose
    worker died (broken pool) up to ``retries`` extra attempts."""
    attempt = 1
    extra = _cache_extra(max_events, check)
    while pending:
        retry: List["RunConfig"] = []
        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            futures = {}
            for cfg in pending:
                log.emit("run_started", config=config_to_dict(cfg), attempt=attempt)
                futures[
                    pool.submit(
                        _simulate_cell, cfg, max_events, timeout, attempt, check
                    )
                ] = cfg
            for fut in as_completed(futures):
                cfg = futures[fut]
                try:
                    rec = fut.result()
                except BrokenProcessPool:
                    retry.append(cfg)
                    continue
                except Exception as exc:  # e.g. result failed to unpickle
                    rec = RunRecord.from_failure(cfg, exc, attempts=attempt)
                _finish(rec, cache, log, extra)
                out[cfg] = rec
        if retry and attempt > retries:
            for cfg in retry:
                rec = RunRecord.from_failure(
                    cfg,
                    BrokenProcessPool("worker died; retries exhausted"),
                    attempts=attempt,
                )
                _finish(rec, cache, log, extra)
                out[cfg] = rec
            retry = []
        pending = retry
        attempt += 1
