"""Cost-model sensitivity sweeps.

The paper's conclusions ("SC-256 best on average for original versions,
HLRC-4096 once restructured versions are allowed") are statements about
one platform's cost ratios.  This module re-runs configurations with a
scaled cost constant and reports how the protocol/granularity
preference moves -- the robustness check a reviewer would ask for, and
the mechanism behind the paper's own prediction that "all these
performance differences would be larger on real SVM systems".

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
from typing import Dict, List, Sequence

from repro.apps import make_app
from repro.cluster.config import MachineParams
from repro.cluster.machine import Machine
from repro.runtime.program import run_program


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


def _run_one(app_name: str, scale: str, protocol: str, params: MachineParams,
             poll_dilation_override=None):
    app = make_app(app_name, scale=scale)
    dil = (app.poll_dilation if poll_dilation_override is None
           else poll_dilation_override)
    machine = Machine(params, protocol=protocol, poll_dilation=dil)
    app.setup(machine)
    result = run_program(machine, app.program, nprocs=params.n_nodes,
                         sequential_time_us=app.sequential_time_us())
    return result.stats


def sweep_parameter(
    app: str,
    field: str,
    multipliers: Sequence[float],
    protocol: str = "sc",
    granularities: Sequence[int] = (64, 4096),
    scale: str = "default",
    nprocs: int = 16,
) -> List[SweepPoint]:
    """Scale one MachineParams cost field and measure speedups."""
    base = getattr(MachineParams(), field)
    if not isinstance(base, (int, float)):
        raise TypeError(f"{field!r} is not a numeric cost parameter")
    points: List[SweepPoint] = []
    for mult in multipliers:
        point = SweepPoint(field_name=field, multiplier=mult,
                           value=base * mult)
        for g in granularities:
            params = MachineParams(n_nodes=nprocs, granularity=g)
            setattr(params, field, base * mult)
            stats = _run_one(app, scale, protocol, params)
            point.speedups[g] = stats.speedup
        points.append(point)
    return points


def granularity_preference(points: Sequence[SweepPoint], fine: int,
                           coarse: int) -> List[float]:
    """The coarse/fine speedup ratio along the sweep: >1 means coarse
    granularity wins at that cost point.  A monotonic trend shows the
    conclusion's sensitivity to the swept cost."""
    return [p.ratio(coarse, fine) for p in points]
