"""Slim, process-boundary-safe result records.

``run_experiment`` returns a ``RunResult`` that drags the whole
``Machine`` and ``Application`` along -- perfect for interactive
inspection, useless for a process pool or a disk cache.  ``RunRecord``
keeps exactly what the paper's tables need: the configuration, the
summary dictionary, the full :class:`~repro.stats.counters.Stats`
(per-node counters and message counters included), and the failure
information when a cell blew its event budget or timed out.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from repro.stats.counters import Stats

if TYPE_CHECKING:  # imported lazily at runtime: harness imports exec
    from repro.harness.experiment import RunConfig


def config_to_dict(cfg: "RunConfig") -> Dict:
    # ``faults`` is omitted entirely when None so that fault-free
    # configs serialize exactly as they did before the chaos layer
    # existed -- pre-existing cache keys and result files stay valid.
    d = dataclasses.asdict(cfg)
    if d.get("faults") is None:
        d.pop("faults", None)
    return d


def config_from_dict(d: Dict) -> "RunConfig":
    from repro.harness.experiment import RunConfig
    from repro.net.faultplan import FaultSpec

    d = dict(d)
    faults = d.get("faults")
    if faults is not None and not isinstance(faults, FaultSpec):
        d["faults"] = FaultSpec.from_dict(faults)
    return RunConfig(**d)


@dataclass
class RunRecord:
    """Outcome of one matrix cell, successful or failed.

    Quacks like ``RunResult`` for the table/figure renderers (``stats``,
    ``speedup``, ``config``) while staying picklable and
    JSON-serializable.
    """

    config: "RunConfig"
    ok: bool
    stats: Optional[Stats] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    #: wall-clock seconds the simulation took (0.0 for cache hits)
    duration_s: float = 0.0
    #: how many executions it took (>1 after transient-failure retries)
    attempts: int = 1
    #: True when this record came from the on-disk cache
    cached: bool = False
    #: checker summary of a checked run, clean or failed
    #: (:meth:`~repro.check.api.CheckReport.summary`: race, false-sharing
    #: and violation counts plus the ``basename:line`` sites of true
    #: races); None for unchecked runs
    check: Optional[Dict] = None
    #: the run's coherence-metadata accounting
    #: (:meth:`~repro.stats.counters.MetadataStats.to_dict`); None for
    #: failed runs.  Kept off ``stats`` so stats-shas never move.
    metadata: Optional[Dict] = None

    @property
    def speedup(self) -> float:
        return self.stats.speedup if self.stats is not None else 0.0

    def summary(self) -> Dict[str, float]:
        return self.stats.summary() if self.stats is not None else {}

    def label(self) -> str:
        return self.config.label()

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_stats(
        cls, cfg: RunConfig, stats: Stats, duration_s: float = 0.0, attempts: int = 1
    ) -> "RunRecord":
        return cls(
            config=cfg, ok=True, stats=stats, duration_s=duration_s, attempts=attempts
        )

    @classmethod
    def from_failure(
        cls,
        cfg: RunConfig,
        exc: BaseException,
        duration_s: float = 0.0,
        attempts: int = 1,
    ) -> "RunRecord":
        return cls(
            config=cfg,
            ok=False,
            error=str(exc),
            error_type=type(exc).__name__,
            duration_s=duration_s,
            attempts=attempts,
        )

    # ------------------------------------------------------------------
    # JSON round trip (the disk-cache format)
    # ------------------------------------------------------------------
    def to_json_dict(self) -> Dict:
        return {
            "config": config_to_dict(self.config),
            "ok": self.ok,
            "stats": None if self.stats is None else self.stats.to_dict(),
            "error": self.error,
            "error_type": self.error_type,
            "duration_s": self.duration_s,
            "attempts": self.attempts,
            "check": self.check,
            "metadata": self.metadata,
        }

    @classmethod
    def from_json_dict(cls, d: Dict) -> "RunRecord":
        return cls(
            config=config_from_dict(d["config"]),
            ok=d["ok"],
            stats=None if d["stats"] is None else Stats.from_dict(d["stats"]),
            error=d.get("error"),
            error_type=d.get("error_type"),
            duration_s=d.get("duration_s", 0.0),
            attempts=d.get("attempts", 1),
            check=d.get("check"),
            metadata=d.get("metadata"),
        )
