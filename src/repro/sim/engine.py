"""The discrete-event loop.

The engine maintains a priority queue of ``(time, sequence, callback)``
entries.  Ties in time are broken by insertion order (the ``sequence``
counter), which makes every simulation fully deterministic: two runs of
the same configuration produce bit-identical event orderings, fault
counts, and timings.  Determinism is essential for the reproduction --
the paper's tables are exact fault counts, and we want our own tables to
be exactly repeatable.

Performance notes
-----------------
The event loop is the hottest code in the repository -- every message,
sleep, and future resolution passes through it -- so it is written for
CPython speed at the cost of some repetition:

* Queue entries are plain ``(time, seq, handle, fn, args)`` tuples
  rather than rich-comparison objects.  Tuple comparison is a single C
  call, and because ``seq`` is unique the comparison never reaches the
  third element, so nothing on the hot path needs ``__lt__``.
* :meth:`post` is :meth:`schedule` without the cancellation handle.
  Only the reliable transport's retransmit timers are ever cancelled
  (futures resolve exactly once, messages always arrive), so every
  other internal caller avoids one object allocation per event; the
  ``handle`` slot of their entries is ``None``.
* Zero-delay events (the overwhelmingly common case: future
  resolutions, process kicks, local deliveries) skip the heap entirely
  and go through a FIFO deque.  Within one call to :meth:`run`,
  simulation time never decreases, so the deque stays sorted by
  ``(time, seq)`` and a two-way tuple compare against the heap head
  merges the two lanes in exactly the order a single heap would have
  produced.  (``schedule``/``post`` still verify the invariant and fall
  back to the heap, so the lanes stay sorted even when time moves
  backward: a native run resuming the leftovers of a policy run that
  dispatched out of timestamp order.)
* :meth:`run` keeps the queues and the event counter in locals and
  writes the counter back once, in a ``finally``.

Controllable scheduling
-----------------------
For model checking (``repro.mc``) the choice of *which* ready event
runs next can be delegated to a :class:`SchedulerPolicy` installed via
:meth:`Engine.set_policy`.  With a policy installed, :meth:`Engine.run`
switches to a loop that keeps the whole ready set in one live list
sorted by ``(time, seq)``: each dispatch moves in only what the last
callback queued in the two lanes, asks the policy to choose from the
list, and deletes the chosen entry -- so a step costs
O(events it queued), not O(ready set).  When that loop stops by
raising, the list's entries go back to the heap.
Without a policy (the default, and every production run) the fast
two-lane merge above is untouched, and :class:`DefaultPolicy` is
written to reproduce that merge order exactly -- one event at a time,
lowest ``(time, seq)`` first -- so installing it changes no schedules.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, insort
from collections import deque
from typing import Any, Callable, Optional, Tuple

#: a queued callback: (time, seq, cancellation handle or None, fn, args)
_Entry = Tuple[float, int, Optional["ScheduledEvent"], Callable[..., Any], tuple]


class SimulationError(RuntimeError):
    """Raised for fatal conditions inside the simulation (deadlock,
    event-budget exhaustion, scheduling into the past)."""


#: The engine currently inside :meth:`Engine.run` in this process
#: (``None`` between runs).  Exists for asynchronous interruption: a
#: signal handler must not raise -- if the signal lands in a frame that
#: discards exceptions (a GC callback, a ``__del__``, the unraisable
#: hook's own formatting code) the raise is silently lost or escapes
#: through unrelated machinery.  A handler instead looks up the active
#: engine and calls :meth:`Engine.interrupt`; the event loop then
#: raises from its own dispatch frame, which always propagates to
#: whoever called ``run()``.
_ACTIVE: Optional["Engine"] = None


class ScheduledEvent:
    """Handle for a scheduled callback; supports cancellation.

    Cancellation is implemented by flagging, not by removing from the
    heap (removal from the middle of a binary heap is O(n)); the event
    loop skips flagged entries when it pops them.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        self.cancelled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledEvent t={self.time:.3f} seq={self.seq} {state} {self.fn!r}>"


def _entry_live(entry: _Entry) -> bool:
    """True unless the entry's cancellation handle has been flagged."""
    ev = entry[2]
    return ev is None or not ev.cancelled


class SchedulerPolicy:
    """Chooses which ready event the engine dispatches next.

    Installed with :meth:`Engine.set_policy`; the engine then calls
    :meth:`choose` once per dispatch with the full ready set (every
    queued, non-cancelled entry, sorted by ``(time, seq)``) and runs
    the returned entry.  ``choose`` must return one of the entries it
    was given.  The list is the engine's own live ready list: a policy
    reads it during the call and neither mutates nor keeps it.  After
    the callback has run, :meth:`executed` is called with the same
    entry -- the window between the two calls brackets everything the
    event did (new events it scheduled carry sequence numbers from the
    :attr:`Engine.next_seq` watermarks around the dispatch), which is
    what replay-based exploration builds on.
    """

    def choose(self, ready: "list[_Entry]") -> _Entry:
        raise NotImplementedError

    def executed(self, entry: _Entry) -> None:
        """Called after the chosen entry's callback has returned."""


class DefaultPolicy(SchedulerPolicy):
    """Reproduces the engine's native order: lowest ``(time, seq)``.

    The ready set is sorted, sequence numbers are unique, and the
    two-lane merge in the policy-free loop also always dispatches the
    globally lowest ``(time, seq)`` entry -- so runs under this policy
    are bit-identical to runs with no policy at all
    (``tests/test_golden.py::test_default_policy_matches_golden`` pins
    this on every four-node golden cell).
    """

    def choose(self, ready: "list[_Entry]") -> _Entry:
        return ready[0]


class Engine:
    """Deterministic discrete-event loop with time in microseconds."""

    def __init__(self, *, max_events: int = 200_000_000):
        self._now: float = 0.0
        self._seq: int = 0
        self._queue: list[_Entry] = []
        self._fifo: deque[_Entry] = deque()
        #: the policy loop's ready set, sorted by (time, seq); empty
        #: whenever that loop is not running (see :meth:`_run_policy`)
        self._ready: list[_Entry] = []
        self._max_events = max_events
        self._events_run = 0
        self._running = False
        self._policy: Optional[SchedulerPolicy] = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in microseconds."""
        return self._now

    @property
    def events_run(self) -> int:
        """Total number of callbacks executed so far (for diagnostics)."""
        return self._events_run

    @property
    def next_seq(self) -> int:
        """Sequence number the next scheduled event will receive.

        Sequence assignment is deterministic given identical dispatch
        choices, so the watermark before/after a dispatch identifies
        exactly the events that dispatch created -- the mc scheduler
        uses this to track event parentage across replays.
        """
        return self._seq

    # ------------------------------------------------------------------
    # controllable scheduling (model checking)
    # ------------------------------------------------------------------
    def set_policy(self, policy: Optional[SchedulerPolicy]) -> None:
        """Install (or, with ``None``, remove) a scheduling policy.

        Not legal while :meth:`run` is executing.
        """
        if self._running:
            raise SimulationError("cannot change policy while running")
        self._policy = policy

    @property
    def policy(self) -> Optional[SchedulerPolicy]:
        return self._policy

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def post(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`schedule` without a cancellation handle.

        The internal fast path: one tuple, no event object.  Use it
        whenever the caller never cancels (everything inside the
        simulator but the reliable transport's retransmit timers).
        Ordering is identical to ``schedule``.
        """
        now = self._now
        seq = self._seq
        if delay == 0.0:
            fifo = self._fifo
            if not fifo or fifo[-1][0] <= now:
                self._seq = seq + 1
                fifo.append((now, seq, None, fn, args))
                return
            time = now
        elif delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        else:
            time = now + delay
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, None, fn, args))

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` to run ``delay`` microseconds from now.

        ``delay`` must be non-negative; a zero delay runs the callback
        after all callbacks already scheduled for the current instant
        (FIFO within an instant).
        """
        now = self._now
        seq = self._seq
        if delay == 0.0:
            fifo = self._fifo
            if not fifo or fifo[-1][0] <= now:
                self._seq = seq + 1
                ev = ScheduledEvent(now, seq, fn, args)
                fifo.append((now, seq, ev, fn, args))
                return ev
            # Time moved backward under the deque (a native run
            # resuming a reordering policy run's leftovers); keep the
            # fast lane sorted by routing through the heap.
            time = now
        elif delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        else:
            time = now + delay
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, ev, fn, args))
        return ev

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> ScheduledEvent:
        """Schedule ``fn(*args)`` at an absolute simulation time.

        The comparison happens in absolute time: a ``time`` at -- or,
        through float arithmetic dust, a hair before -- the current
        instant is clamped to *now* and runs FIFO after the callbacks
        already scheduled for this instant, exactly like
        ``schedule(0.0, ...)``.  (Routing through ``schedule(time - now,
        ...)`` used to raise :class:`SimulationError` when the
        subtraction of two nearly equal floats went negative.)
        """
        now = self._now
        if time <= now:
            return self.schedule(0.0, fn, *args)
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, seq, fn, args)
        heapq.heappush(self._queue, (time, seq, ev, fn, args))
        return ev

    def interrupt(self, exc: BaseException) -> None:
        """Make the event loop raise ``exc`` at its next dispatch.

        Async-signal-safe: the only mutation is a single ``appendleft``
        on the zero-delay deque (atomic under the GIL), so this may be
        called from a signal handler while :meth:`run` is mid-event.
        The poison entry carries ``seq=-1``, sorting ahead of every
        real event at the current instant, so nothing else runs first.
        """

        def _raise() -> None:
            raise exc

        self._fifo.appendleft((self._now, -1, None, _raise, ()))

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Run until the queue drains.

        Returns the final simulation time.  Raises
        :class:`SimulationError` if the event budget is exhausted, which
        almost always indicates a protocol livelock.
        """
        global _ACTIVE
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        if self._policy is not None:
            return self._run_policy()
        self._running = True
        prev_active = _ACTIVE
        _ACTIVE = self
        queue = self._queue
        fifo = self._fifo
        pop = heapq.heappop
        popleft = fifo.popleft
        events_run = self._events_run
        max_events = self._max_events
        try:
            while True:
                if fifo:
                    if queue and queue[0] < fifo[0]:
                        entry = pop(queue)
                    else:
                        # Batched same-instant dispatch: drain the
                        # FIFO run at this timestamp without
                        # re-arbitrating the lanes per event.
                        # During the drain every new entry lands
                        # either in the heap with time > tnow or at
                        # the FIFO tail with time == tnow.  Only a
                        # heap entry with (time, seq) below a FIFO
                        # entry at tnow could preempt the run, and
                        # no such entry can appear after the drain
                        # starts -- so comparing against the heap
                        # head captured here reproduces exactly the
                        # order the per-event merge would have
                        # produced.
                        entry = popleft()
                        tnow = entry[0]
                        qh = queue[0] if queue else None
                        while True:
                            ev = entry[2]
                            if ev is None or not ev.cancelled:
                                self._now = tnow
                                events_run += 1
                                if events_run > max_events:
                                    raise SimulationError(
                                        f"event budget exhausted "
                                        f"({max_events} events); "
                                        "likely protocol livelock"
                                    )
                                entry[3](*entry[4])
                            if fifo:
                                entry = fifo[0]
                                if entry[0] == tnow and (
                                    qh is None or entry < qh
                                ):
                                    popleft()
                                    continue
                            break
                        continue
                elif queue:
                    entry = pop(queue)
                else:
                    break
                ev = entry[2]
                if ev is not None and ev.cancelled:
                    continue
                self._now = entry[0]
                events_run += 1
                if events_run > max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events); "
                        "likely protocol livelock"
                    )
                entry[3](*entry[4])
            return self._now
        finally:
            _ACTIVE = prev_active
            self._events_run = events_run
            self._running = False

    def _run_policy(self) -> float:
        """The policy-driven event loop (see :class:`SchedulerPolicy`).

        The ready set is :attr:`_ready`, one list kept sorted by
        ``(time, seq)`` for the length of the run.  Before each choice
        the loop moves in whatever the last callback queued in the two
        native lanes (cancelled entries are dropped on the way, and an
        :meth:`interrupt` raises there); after it, the chosen entry is
        deleted from the list.  Entries with a cancellation handle are
        counted, so the list is re-filtered for late cancellations only
        while it holds one.  When the loop stops by raising, the list's
        entries go back to the heap, where the native loop,
        :attr:`pending` and a later run find them.

        Time is set to the chosen entry's timestamp but never moved
        backwards -- a policy that reorders events across timestamps
        keeps the clock monotonic.
        """
        global _ACTIVE
        self._running = True
        prev_active = _ACTIVE
        _ACTIVE = self
        policy = self._policy
        choose = policy.choose
        executed = policy.executed
        ready = self._ready
        queue = self._queue
        fifo = self._fifo
        popleft = fifo.popleft
        events_run = self._events_run
        max_events = self._max_events
        # entries in ``ready`` that carry a cancellation handle
        handles = 0
        try:
            while True:
                # Pop (never iterate) the deque: interrupt() may
                # appendleft to it from a signal handler at any moment.
                while fifo:
                    entry = popleft()
                    ev = entry[2]
                    if ev is not None:
                        if ev.cancelled:
                            continue
                        handles += 1
                    elif entry[1] < 0:
                        entry[3]()  # interrupt()'s poison entry: raises
                    insort(ready, entry)
                if queue:
                    for entry in queue:
                        ev = entry[2]
                        if ev is not None:
                            if ev.cancelled:
                                continue
                            handles += 1
                        insort(ready, entry)
                    queue.clear()
                if handles:
                    live = [e for e in ready if e[2] is None or not e[2].cancelled]
                    if len(live) < len(ready):
                        handles -= len(ready) - len(live)
                        ready[:] = live
                if not ready:
                    break
                entry = choose(ready)
                if ready[0] is entry:
                    del ready[0]
                else:
                    i = bisect_left(ready, entry)
                    if i == len(ready) or ready[i] is not entry:
                        raise SimulationError(
                            "policy chose an entry that is not ready"
                        )
                    del ready[i]
                if entry[2] is not None:
                    handles -= 1
                if entry[0] > self._now:
                    self._now = entry[0]
                events_run += 1
                if events_run > max_events:
                    raise SimulationError(
                        f"event budget exhausted ({max_events} events); "
                        "likely protocol livelock"
                    )
                entry[3](*entry[4])
                executed(entry)
            return self._now
        finally:
            if ready:
                for entry in ready:
                    heapq.heappush(queue, entry)
                ready.clear()
            _ACTIVE = prev_active
            self._events_run = events_run
            self._running = False

    @property
    def pending(self) -> int:
        """Number of queued events that will actually run.

        Cancellation is lazy (flagged entries stay in the lanes until
        popped), so this walks both lanes -- and, during a policy run,
        the policy loop's ready list -- and skips tombstones rather
        than reporting raw lengths.  O(pending); diagnostics, not the
        hot path.
        """
        n = 0
        for e in self._ready:
            if _entry_live(e):
                n += 1
        for e in self._fifo:
            if _entry_live(e):
                n += 1
        for e in self._queue:
            if _entry_live(e):
                n += 1
        return n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine t={self._now:.3f}us pending={self.pending}>"
