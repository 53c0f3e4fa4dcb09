"""Generator-based processes and waitable primitives.

A :class:`Process` wraps a Python generator.  The generator *yields
effects* to the engine:

* a ``float``/``int`` -- sleep that many microseconds;
* a :class:`Future` -- suspend until it resolves; ``yield`` evaluates to
  the future's value;
* a :class:`CountdownLatch` -- suspend until the latch count reaches 0;
* a :class:`Signal` -- suspend until the next broadcast.

Sub-routines compose with ``yield from``, which is how the DSM runtime
nests "application issues region write" -> "access control faults" ->
"protocol sends request and waits for reply" without callback spaghetti.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Optional

from repro.sim.engine import Engine, SimulationError


class ProcessCrashed(SimulationError):
    """A process generator raised; the original exception is chained
    (``__cause__``) and the crashed :class:`Process` is :attr:`process`."""

    def __init__(self, message: str, process: Optional["Process"] = None):
        super().__init__(message)
        self.process = process


class Future:
    """One-shot completion token.

    A future may be awaited by any number of processes (``yield fut``)
    and by callbacks (:meth:`add_callback`).  Resolving twice is an
    error -- protocol replies must be delivered exactly once.
    """

    __slots__ = ("engine", "value", "done", "_waiters")

    def __init__(self, engine: Engine):
        self.engine = engine
        self.value: Any = None
        self.done = False
        self._waiters: list[Callable[[Any], None]] = []

    def resolve(self, value: Any = None) -> None:
        if self.done:
            raise SimulationError("future resolved twice")
        self.done = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            # Zero-delay schedule keeps resolution ordering FIFO and
            # avoids unbounded recursion through chains of futures.
            self.engine.post(0.0, w, value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        if self.done:
            self.engine.post(0.0, fn, self.value)
        else:
            self._waiters.append(fn)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Future done={self.done}>"


class CountdownLatch:
    """Resolves after :attr:`count` hits; used to gather N acks.

    The latch with ``count == 0`` is already resolved, so code that
    "invalidates all sharers and waits" works unchanged when the sharer
    set is empty.
    """

    __slots__ = ("engine", "count", "done", "_waiters")

    def __init__(self, engine: Engine, count: int):
        if count < 0:
            raise ValueError("latch count must be >= 0")
        self.engine = engine
        self.count = count
        self.done = count == 0
        self._waiters: list[Callable[[Any], None]] = []

    def hit(self) -> None:
        if self.done:
            raise SimulationError("latch hit after completion")
        self.count -= 1
        if self.count == 0:
            self.done = True
            waiters, self._waiters = self._waiters, []
            for w in waiters:
                self.engine.post(0.0, w, None)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        if self.done:
            self.engine.post(0.0, fn, None)
        else:
            self._waiters.append(fn)


class Signal:
    """Broadcast wakeup: every process currently waiting is resumed.

    Unlike :class:`Future`, a signal can fire many times; a waiter only
    observes broadcasts that happen after it started waiting.
    """

    __slots__ = ("engine", "_waiters")

    def __init__(self, engine: Engine):
        self.engine = engine
        self._waiters: list[Callable[[Any], None]] = []

    def broadcast(self, value: Any = None) -> None:
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.engine.post(0.0, w, value)

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        self._waiters.append(fn)


#: Types a process may yield and wait on (besides numeric sleeps).
_WAITABLE_TYPES = (Future, CountdownLatch, Signal)


class Process:
    """A running generator inside the engine.

    The process starts on the next zero-delay tick after construction
    (not synchronously), so a batch of processes created at t=0 all
    begin in creation order.
    """

    __slots__ = ("engine", "name", "_gen", "finished", "result", "_completion")

    def __init__(self, engine: Engine, gen: Generator, name: str = "proc"):
        self.engine = engine
        self.name = name
        self._gen = gen
        self.finished = False
        self.result: Any = None
        self._completion: Optional[Future] = None
        engine.post(0.0, self._step, None)

    @property
    def generator(self) -> Generator:
        """The wrapped generator; while the process is parked, its
        ``gi_yieldfrom`` chain ends at the effect it waits on."""
        return self._gen

    @property
    def completion(self) -> Future:
        """Future resolved (with the generator's return value) at exit."""
        if self._completion is None:
            self._completion = Future(self.engine)
            if self.finished:
                self._completion.resolve(self.result)
        return self._completion

    def _step(self, sendval: Any) -> None:
        # This method runs once per generator resumption -- one of the
        # hottest frames in the simulator -- so the effect dispatch is
        # inlined rather than delegated to a helper call.
        if self.finished:
            return
        try:
            effect = self._gen.send(sendval)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            if self._completion is not None:
                self._completion.resolve(stop.value)
            return
        except Exception as exc:  # noqa: BLE001 - rewrap with process name
            self.finished = True
            raise ProcessCrashed(
                f"process {self.name!r} crashed: {exc!r}", self) from exc
        if type(effect) is float:
            if effect < 0.0:
                raise SimulationError(f"process {self.name!r} slept negative time {effect}")
            self.engine.post(effect, self._step, None)
        elif isinstance(effect, _WAITABLE_TYPES):
            effect.add_callback(self._step)
        else:
            self._dispatch(effect)

    def _dispatch(self, effect: Any) -> None:
        # Slow path: numeric effects that are not exactly ``float``
        # (ints, numpy scalars) and the unsupported-effect error.
        if isinstance(effect, (int, float)):
            if effect < 0:
                raise SimulationError(f"process {self.name!r} slept negative time {effect}")
            self.engine.post(float(effect), self._step, None)
        elif isinstance(effect, _WAITABLE_TYPES):
            effect.add_callback(self._step)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported effect {effect!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process {self.name} finished={self.finished}>"


def all_of(engine: Engine, futures: Iterable[Future]) -> Future:
    """A future that resolves once every input future has resolved.

    Resolves with ``None`` immediately when the input is empty.
    """
    futures = list(futures)
    out = Future(engine)
    latch = CountdownLatch(engine, len(futures))
    if latch.done:
        out.resolve(None)
        return out
    latch.add_callback(lambda _: out.resolve(None))
    for f in futures:
        f.add_callback(lambda _v: latch.hit())
    return out
