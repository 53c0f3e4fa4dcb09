"""One experiment = one (application, protocol, granularity,
mechanism) run of the simulated cluster."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.apps import make_app
from repro.apps.base import Application
from repro.cluster.config import MachineParams, NotificationMechanism
from repro.cluster.machine import Machine
from repro.net.faultplan import FaultSpec
from repro.runtime.program import run_program
from repro.stats.counters import Stats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.check import CheckReport

#: the MachineParams cost constants ``RunConfig.params`` may override,
#: with their defaults; topology and notification have RunConfig
#: fields of their own
COST_DEFAULTS = {
    f.name: f.default
    for f in fields(MachineParams)
    if f.name not in ("n_nodes", "granularity", "mechanism")
}


@dataclass(frozen=True)
class RunConfig:
    """Identifies one cell of the evaluation matrix."""

    app: str
    protocol: str          # a registered protocol: 'sc', 'swlrc', 'hlrc', 'tardis', 'erc', 'dc'
    granularity: int       # 64 | 256 | 1024 | 4096
    mechanism: str = "polling"   # 'polling' | 'interrupt'
    nprocs: int = 16
    scale: str = "default"
    #: unreliable-interconnect description; None = the trusted legacy
    #: wire.  Part of the config (and so of every result-cache key):
    #: a chaos cell is a different experiment, never a stale shadow of
    #: the fault-free one.
    faults: Optional[FaultSpec] = None
    #: ``(field, value)`` overrides of MachineParams cost constants,
    #: sorted by field; an override equal to the default is dropped, so
    #: a config that changes no cost is the plain matrix cell
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.params == ():
            return
        # any iterable of pairs (e.g. JSON lists) becomes sorted tuples
        overrides = dict(self.params)
        for name, value in overrides.items():
            if name not in COST_DEFAULTS:
                raise ValueError(
                    f"{name!r} is not a MachineParams cost constant "
                    "(n_nodes, granularity and mechanism are RunConfig fields)"
                )
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise TypeError(f"{name}={value!r} is not a number")
        kept = ((n, v) for n, v in overrides.items() if v != COST_DEFAULTS[n])
        object.__setattr__(self, "params", tuple(sorted(kept)))

    def label(self) -> str:
        base = (
            f"{self.app}/{self.protocol}-{self.granularity}"
            f"/{self.mechanism}/p{self.nprocs}"
        )
        if self.faults is not None:
            base += f"/{self.faults.label()}"
        for name, value in self.params:
            base += f"/{name}={value:g}"
        return base


@dataclass
class RunResult:
    config: RunConfig
    stats: Stats
    app: Application
    machine: Machine
    #: checker findings when run with check=True, else None
    check: Optional["CheckReport"] = None

    @property
    def speedup(self) -> float:
        return self.stats.speedup


def run_experiment(
    cfg: RunConfig,
    max_events: Optional[int] = None,
    check: Union[bool, str, int] = False,
) -> RunResult:
    """Build the machine, set the application up, run it, return stats.

    ``check`` installs the :mod:`repro.check` race detector and
    protocol-invariant sanitizer for this run and attaches their
    findings as ``result.check``.  It is True (word detection units)
    or the race-detection unit itself ("byte" | "word" | "block" |
    byte count).  The checkers only observe, so a checked run produces
    bit-identical stats; ``check`` is an execution knob, *not* part of
    :class:`RunConfig` (the exec layer keys checked records apart).
    """
    app = make_app(cfg.app, scale=cfg.scale)
    params = MachineParams(
        n_nodes=cfg.nprocs,
        granularity=cfg.granularity,
        mechanism=NotificationMechanism(cfg.mechanism),
        **dict(cfg.params),
    )
    machine = Machine(
        params,
        protocol=cfg.protocol,
        poll_dilation=app.poll_dilation,
        max_events=max_events,
        faults=cfg.faults,
    )
    checkers = None
    if check:
        from repro.check import install_checkers

        checkers = install_checkers(
            machine, race_granularity="word" if check is True else check
        )
    app.setup(machine)
    result = run_program(
        machine,
        app.program,
        nprocs=cfg.nprocs,
        sequential_time_us=app.sequential_time_us(),
    )
    return RunResult(
        config=cfg,
        stats=result.stats,
        app=app,
        machine=machine,
        check=checkers.report() if checkers is not None else None,
    )
