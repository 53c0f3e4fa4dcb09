"""Discrete-event simulation engine.

This package is the bottom layer of the reproduction: a small,
deterministic, generator-based discrete-event engine in the style of
SimPy, specialized for the DSM cluster simulation.

Time is a float measured in **microseconds**, matching the units the
paper uses for all of its cost figures (message round trips, fault
exception cost, interrupt cost, synchronization handling time).

Public API:

* :class:`~repro.sim.engine.Engine` -- the event loop.
* :class:`~repro.sim.process.Process` -- a generator-based process.
* :class:`~repro.sim.process.Future` -- a one-shot completion token.
* :class:`~repro.sim.process.CountdownLatch` -- resolves after *n* hits
  (used to collect invalidation acknowledgements and diff acks).
* :class:`~repro.sim.engine.SchedulerPolicy` /
  :class:`~repro.sim.engine.DefaultPolicy` -- pluggable choice of which
  ready event dispatches next (the model-checking hook).
"""

from repro.sim.engine import (
    DefaultPolicy,
    Engine,
    ScheduledEvent,
    SchedulerPolicy,
    SimulationError,
)
from repro.sim.process import (
    CountdownLatch,
    Future,
    Process,
    ProcessCrashed,
)

__all__ = [
    "Engine",
    "ScheduledEvent",
    "SimulationError",
    "SchedulerPolicy",
    "DefaultPolicy",
    "Process",
    "Future",
    "CountdownLatch",
    "ProcessCrashed",
]
