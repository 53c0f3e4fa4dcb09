"""Cost-model sensitivity sweeps.

The paper's conclusions ("SC-256 best on average for original versions,
HLRC-4096 once restructured versions are allowed") are statements about
one platform's cost ratios.  This module re-runs configurations with a
scaled cost constant and reports how the protocol/granularity
preference moves -- the robustness check a reviewer would ask for, and
the mechanism behind the paper's own prediction that "all these
performance differences would be larger on real SVM systems".

A sweep point is an ordinary matrix cell with one ``RunConfig.params``
cost override, so the whole sweep is one
:func:`~repro.exec.pool.execute_many` call: it takes the same pool,
cache and timeout knobs as every other sweep, and the x1 point *is*
the plain matrix cell.

Example::

    from repro.harness.sensitivity import sweep_parameter

    points = sweep_parameter(
        app="ocean-original", field="fault_exception_us",
        multipliers=[1, 4, 16], protocol="sc",
        granularities=[64, 4096],
    )

Every sweep point carries the modified parameter value and the speedups
measured at each granularity, plus which granularity won.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.cluster.config import MachineParams
from repro.exec.cache import ResultCache
from repro.exec.pool import execute_many
from repro.harness.experiment import RunConfig
from repro.harness.matrix import session_knobs


@dataclass
class SweepPoint:
    """One (parameter value) -> (speedup per granularity) observation."""

    field_name: str
    multiplier: float
    value: float
    speedups: Dict[int, float] = field(default_factory=dict)

    @property
    def best_granularity(self) -> int:
        return max(self.speedups, key=self.speedups.get)

    def ratio(self, g_a: int, g_b: int) -> float:
        """speedup(g_a) / speedup(g_b) at this point."""
        return self.speedups[g_a] / self.speedups[g_b]


def sweep_parameter(
    app: str,
    field: str,
    multipliers: Sequence[float],
    protocol: str = "sc",
    granularities: Sequence[int] = (64, 4096),
    scale: str = "default",
    nprocs: int = 16,
    *,
    jobs: Optional[int] = None,
    cache: Optional[ResultCache] = None,
    **run,
) -> List[SweepPoint]:
    """Scale one MachineParams cost field and measure speedups.

    ``jobs``, ``cache`` and ``run`` are the
    :func:`~repro.exec.pool.execute_many` knobs (``run``: events,
    timeout, max_events, progress); ``jobs`` and ``cache`` default to
    the session's, like :func:`~repro.harness.matrix.sweep`'s.  A failed
    cell raises, naming its label: a sweep point never carries a
    made-up speedup.
    """
    base = getattr(MachineParams(), field)
    if not isinstance(base, (int, float)):
        raise TypeError(f"{field!r} is not a numeric cost parameter")
    configs = {
        (mult, g): RunConfig(app, protocol, g, nprocs=nprocs, scale=scale,
                             params=((field, base * mult),))
        for mult in multipliers
        for g in granularities
    }
    records = execute_many(list(configs.values()),
                           **session_knobs(jobs, cache), **run)
    for cfg, rec in records.items():
        if not rec.ok:
            raise RuntimeError(
                f"{cfg.label()}: {rec.error_type}: {rec.error}"
            )
    return [
        SweepPoint(
            field_name=field, multiplier=mult, value=base * mult,
            speedups={g: records[configs[(mult, g)]].speedup
                      for g in granularities},
        )
        for mult in multipliers
    ]


def granularity_preference(points: Sequence[SweepPoint], fine: int,
                           coarse: int) -> List[float]:
    """The coarse/fine speedup ratio along the sweep: >1 means coarse
    granularity wins at that cost point.  A monotonic trend shows the
    conclusion's sensitivity to the swept cost."""
    return [p.ratio(coarse, fine) for p in points]
