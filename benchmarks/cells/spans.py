"""Per-layer host-time attribution for the cell benchmark.

Spans are installed from outside the simulator, on live objects, so the
program under test is never edited:

* :func:`instrument` wraps the public entry points of one built
  :class:`~repro.cluster.machine.Machine` (after ``Machine(...)``,
  before ``run_program``): the engine loop and every callback it
  dispatches, the network and transport, nodes, the coherence protocol
  and the lock/barrier services.
* :func:`patch_classes` patches, for the length of a ``with`` block, the
  entry points that can only be reached through their class: the
  ``Dsm`` region methods (``Dsm`` uses ``__slots__``), the twin/diff
  functions ``core/hlrc.py`` calls, and -- for model checking, where the
  explorer builds a fresh machine per schedule -- ``Machine.__init__``,
  the mc scheduler/explorer and the checkers.

A span's *self time* is its duration minus the durations of the spans
nested in it.  Every span is nested in the root span, so the self times
of all spans, the root's included, add up to the root span exactly; the
root's own self time is the part no layer claimed (``unattributed``).
Generator entry points (the app program, region ops, faults, locks)
are timed per resumption.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

ROOT = "root"
#: spans whose self time the benchmark reports, one per layer entry point
REPORTED_SPANS = (
    "sim", "net", "net.transport", "cluster", "core.handler", "core.fault",
    "core.sync", "core.diff", "runtime", "sync", "apps", "mc", "check",
)

#: span name of engine callbacks, by defining module
_MODULE_LAYERS = {
    "repro.net.reliable": "net.transport",
}


def layer_of_module(module: str) -> str:
    """Span name for code defined in ``module`` (a ``repro`` package)."""
    if module in _MODULE_LAYERS:
        return _MODULE_LAYERS[module]
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    return "core.handler" if parts[1] == "core" else parts[1]


def self_metric(span: str) -> str:
    """Metric name of a span's self time: ``net`` -> ``net.self_s``,
    ``core.sync`` -> ``core.sync_self_s``."""
    return f"{span}_self_s" if "." in span else f"{span}.self_s"


class Tracer:
    """In-memory span recorder: self time and call counts per name."""

    def __init__(self) -> None:
        #: name -> [self seconds] and name -> [calls]; one-slot lists so
        #: the span closures update them without a dict lookup
        self._self: Dict[str, list] = defaultdict(lambda: [0.0])
        self._calls: Dict[str, list] = defaultdict(lambda: [0])
        #: child-time accumulator of each open span, innermost last; the
        #: bottom slot collects the duration of top-level (root) spans
        self._stack: list = [0.0]
        #: callback code -> dispatcher that runs it inside its layer's
        #: span, or None for callbacks that open their own span
        self._events: Dict[object, Optional[Callable]] = {}
        self._dispatchers: Dict[Tuple[str, Optional[str]], Callable] = {}
        # every span and dispatcher closure shares one code object each
        self._events[self.wrap(ROOT, id).__code__] = None
        self._events[self._dispatcher(ROOT, None).__code__] = None

    @property
    def self_s(self) -> Dict[str, float]:
        return {name: cell[0] for name, cell in self._self.items()}

    @property
    def counts(self) -> Dict[str, int]:
        return {name: cell[0] for name, cell in self._calls.items()}

    @property
    def root_s(self) -> float:
        """Total duration of the root spans."""
        return self._stack[0]

    def _counter(self, count: Optional[str]) -> list:
        # calls without a counter name land in a scratch cell
        return self._calls[count] if count is not None else [0]

    def wrap(self, name: str, fn: Callable, count: Optional[str] = None) -> Callable:
        """``fn`` inside a span; ``count`` names a call counter."""
        stack, acc, calls, clock = self._stack, self._self[name], self._counter(count), perf_counter

        def span(*args, **kwargs):
            calls[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                acc[0] += d - stack.pop()
                stack[-1] += d

        return span

    def wrap_gen(self, name: str, fn: Callable, count: Optional[str] = None) -> Callable:
        """Like :meth:`wrap` for a function returning a generator: each
        resumption of the generator is one span."""
        calls, acc, timed = self._counter(count), self._self[name], self._timed

        def call(*args, **kwargs):
            calls[0] += 1
            return timed(acc, fn(*args, **kwargs))

        return call

    def _timed(self, acc: list, gen):
        stack, clock, send = self._stack, perf_counter, gen.send
        value = None
        while True:
            stack.append(0.0)
            t0 = clock()
            try:
                item = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                d = clock() - t0
                acc[0] += d - stack.pop()
                stack[-1] += d
            value = yield item

    def root(self, fn: Callable) -> Callable:
        return self.wrap(ROOT, fn)

    # ------------------------------------------------------------------
    # engine callbacks
    # ------------------------------------------------------------------
    def _dispatcher(self, name: str, count: Optional[str]) -> Callable:
        stack, acc, calls, clock = self._stack, self._self[name], self._counter(count), perf_counter

        def dispatch(fn, args):
            calls[0] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                fn(*args)
            finally:
                d = clock() - t0
                acc[0] += d - stack.pop()
                stack[-1] += d

        return dispatch

    def event_dispatcher(self, fn) -> Optional[Callable]:
        """Dispatcher for a callback about to be queued: its span is named
        by the module that defines it; None when it opens its own span."""
        f = getattr(fn, "__func__", fn)
        code = getattr(f, "__code__", f)
        if code in self._events:
            return self._events[code]
        from repro.sim.process import Process

        if f is Process._step:
            key = ("sim", "sim.process_steps")
        else:
            key = (layer_of_module(getattr(f, "__module__", "") or ""), None)
        if key not in self._dispatchers:
            self._dispatchers[key] = self._dispatcher(*key)
        disp = self._events[code] = self._dispatchers[key]
        return disp


def _instrument_engine(engine, tracer: Tracer) -> None:
    """Queue every callback behind a span named by its owner's module."""
    events, lookup = tracer._events, tracer.event_dispatcher
    post, schedule, schedule_at = engine.post, engine.schedule, engine.schedule_at

    def traced_post(delay, fn, *args):
        try:
            disp = events[getattr(fn, "__func__", fn).__code__]
        except (KeyError, AttributeError):
            disp = lookup(fn)
        if disp is None:
            post(delay, fn, *args)
        else:
            post(delay, disp, fn, args)

    def traced_schedule(delay, fn, *args):
        disp = lookup(fn)
        if disp is None:
            return schedule(delay, fn, *args)
        return schedule(delay, disp, fn, args)

    def traced_schedule_at(at, fn, *args):
        disp = lookup(fn)
        if disp is None:
            return schedule_at(at, fn, *args)
        return schedule_at(at, disp, fn, args)

    engine.post = traced_post
    engine.schedule = traced_schedule
    engine.schedule_at = traced_schedule_at


def instrument(machine, tracer: Tracer, *, events: bool = True) -> None:
    """Wrap the live objects of one built machine.

    ``events=False`` leaves the queued callbacks themselves alone: the
    mc scheduler classifies events by their bound callable, so under
    model checking only directly called entry points get spans (the
    callbacks' own time then counts as the engine loop's).
    """
    w, g = tracer.wrap, tracer.wrap_gen
    engine = machine.engine
    engine.run = w("sim", engine.run)
    if events:
        _instrument_engine(engine, tracer)

    # Wire arrivals (the callback handed to ``network.set_deliver``) are
    # queued events, so the engine hook above already names them.
    net = machine.network
    net.send = w("net", net.send, "net.sends")
    transport = machine.transport
    if transport is not None:
        transport.send = w("net.transport", transport.send)
        machine.send = transport.send
    else:
        machine.send = net.send

    for node in machine.nodes:
        node.deliver = w("cluster", node.deliver, "cluster.deliveries")
        node.compute = g("cluster", node.compute)

    p = machine.protocol
    p.on_message = w("core.handler", p.on_message, "core.handler_calls")
    p.read_fault = g("core.fault", p.read_fault)
    p.write_fault = g("core.fault", p.write_fault)
    p.release_prepare = g("core.fault", p.release_prepare)
    p.apply_sync = g("core.sync", p.apply_sync)
    p.grant_payload = w("core.sync", p.grant_payload)
    p.barrier_payloads = w("core.sync", p.barrier_payloads)

    locks, barriers = machine.locks, machine.barriers
    locks.acquire = g("sync", locks.acquire)
    locks.release = g("sync", locks.release)
    locks.on_message = w("sync", locks.on_message)
    barriers.barrier = g("sync", barriers.barrier)
    barriers.on_message = w("sync", barriers.on_message)


@contextmanager
def _patching():
    """Collects (owner, attribute) patches and restores them on exit."""
    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    try:
        yield patch
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


@contextmanager
def patch_classes(tracer: Tracer, *, mc: bool = False):
    """Class- and module-level spans, active inside the ``with`` block."""
    import repro.core.hlrc as hlrc
    from repro.runtime.dsm import Dsm

    w, g = tracer.wrap, tracer.wrap_gen
    with _patching() as patch:
        for name in ("read", "write", "touch_read", "touch_write"):
            patch(Dsm, name, g("runtime", Dsm.__dict__[name], "runtime.region_ops"))
        for name in ("create_diff", "apply_diff"):
            patch(hlrc, name, w("core.diff", hlrc.__dict__[name]))
        if mc:
            _patch_mc(tracer, patch)
        yield


def _patch_mc(tracer: Tracer, patch) -> None:
    import importlib
    import types

    from repro.check.api import Checkers
    from repro.check.invariants import InvariantChecker
    from repro.check.race import RaceDetector
    from repro.cluster.machine import Machine
    from repro.mc.scheduler import ControlledScheduler, _FootprintHooks

    # the package re-exports a function named ``explore`` over the module
    explore = importlib.import_module("repro.mc.explore")
    w, g = tracer.wrap, tracer.wrap_gen
    build = w("cluster", Machine.__init__)

    def machine_init(self, *args, **kwargs):
        build(self, *args, **kwargs)
        instrument(self, tracer, events=False)

    patch(Machine, "__init__", machine_init)
    patch(explore.Explorer, "run", w("mc", explore.Explorer.run))
    for name in ("__init__", "choose", "executed"):
        patch(ControlledScheduler, name, w("mc", ControlledScheduler.__dict__[name]))
    for name, fn in list(vars(_FootprintHooks).items()):
        if name.startswith("on_"):
            patch(_FootprintHooks, name, w("mc", fn))

    run_program = explore.run_program

    def traced_run_program(machine, program, *args, **kwargs):
        return run_program(machine, g("apps", program), *args, **kwargs)

    patch(explore, "run_program", w("runtime", traced_run_program))
    patch(explore, "install_checkers", w("check", explore.install_checkers))
    for cls in (InvariantChecker, RaceDetector, Checkers):
        for name, fn in list(vars(cls).items()):
            public = not name.startswith("_") or name == "__init__"
            if public and isinstance(fn, types.FunctionType):
                patch(cls, name, w("check", fn))
