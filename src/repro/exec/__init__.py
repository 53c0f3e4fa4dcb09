"""repro.exec: the experiment execution engine.

Turns the evaluation matrix -- (12 apps x 3 protocols x 4
granularities x 2 mechanisms) independent simulations -- into an
embarrassingly parallel, disk-cached, fault-tolerant batch job:

* :mod:`repro.exec.serialize` -- slim picklable/JSONable ``RunRecord``
  results that cross process boundaries without the ``Machine``;
* :mod:`repro.exec.cache` -- content-addressed on-disk store keyed by
  ``RunConfig`` + a source/calibration fingerprint, so results survive
  interpreter restarts and auto-invalidate when the simulator changes;
* :mod:`repro.exec.pool` -- ``execute_many``, the one path every sweep
  runs its cells through: a ``ProcessPoolExecutor`` scheduler with
  per-run timeouts, bounded retry of transient failures, and per-cell
  error capture;
* :mod:`repro.exec.events` -- a structured JSONL event log of every
  run/cache/failure.

See ``docs/EXECUTION.md`` for the full story.
"""

from repro.exec.cache import ResultCache, code_fingerprint, default_cache_dir
from repro.exec.events import EventLog, read_events
from repro.exec.pool import CellTimeout, execute_many
from repro.exec.serialize import RunRecord, config_from_dict, config_to_dict

__all__ = [
    "RunRecord",
    "ResultCache",
    "EventLog",
    "CellTimeout",
    "execute_many",
    "code_fingerprint",
    "default_cache_dir",
    "read_events",
    "config_to_dict",
    "config_from_dict",
]
