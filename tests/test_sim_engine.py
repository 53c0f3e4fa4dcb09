"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import Engine, SimulationError


def test_time_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_events_run_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(5.0, order.append, "b")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(9.0, order.append, "c")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 9.0


def test_ties_broken_fifo():
    eng = Engine()
    order = []
    for i in range(10):
        eng.schedule(3.0, order.append, i)
    eng.run()
    assert order == list(range(10))


def test_zero_delay_runs_after_current_instant_fifo():
    eng = Engine()
    order = []

    def first():
        order.append("first")
        eng.schedule(0.0, order.append, "nested")

    eng.schedule(1.0, first)
    eng.schedule(1.0, order.append, "second")
    eng.run()
    assert order == ["first", "second", "nested"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-1.0, lambda: None)


def test_cancel_prevents_execution():
    eng = Engine()
    hits = []
    ev = eng.schedule(1.0, hits.append, 1)
    eng.schedule(2.0, hits.append, 2)
    ev.cancel()
    eng.run()
    assert hits == [2]


def test_cancel_is_idempotent():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    ev.cancel()
    eng.run()


def test_run_until_stops_early_and_preserves_events():
    eng = Engine()
    hits = []
    eng.schedule(1.0, hits.append, 1)
    eng.schedule(10.0, hits.append, 2)
    eng.run(until=5.0)
    assert hits == [1]
    assert eng.now == 5.0
    eng.run()
    assert hits == [1, 2]
    assert eng.now == 10.0


def test_run_until_advances_clock_even_with_empty_queue():
    eng = Engine()
    eng.run(until=42.0)
    assert eng.now == 42.0


def test_schedule_at_absolute_time():
    eng = Engine()
    hits = []
    eng.schedule_at(7.5, hits.append, "x")
    eng.run()
    assert eng.now == 7.5
    assert hits == ["x"]


def test_schedule_at_now_is_legal():
    # Regression: schedule_at used to route through schedule(time - now)
    # and float subtraction could reject a legal time == now.
    eng = Engine()
    order = []

    def at_five():
        order.append("a")
        eng.schedule_at(eng.now, order.append, "b")

    eng.schedule(5.0, at_five)
    eng.schedule(5.0, order.append, "mid")
    eng.run()
    assert order == ["a", "mid", "b"]
    assert eng.now == 5.0


def test_schedule_at_clamps_float_dust_to_now():
    # 0.1 + 0.2 > 0.3 in binary floating point: an absolute time
    # computed with a different association lands a hair before `now`
    # and must be clamped to the current instant, not rejected.
    eng = Engine()
    hits = []

    def second_leg():
        assert eng.now == 0.1 + 0.2
        eng.schedule_at(0.3, hits.append, eng.now)

    eng.schedule(0.1, eng.schedule, 0.2, second_leg)
    eng.run()
    assert hits == [0.1 + 0.2]


def test_schedule_at_interleaves_with_relative_schedules():
    eng = Engine()
    order = []
    eng.schedule(2.0, order.append, "rel2")
    eng.schedule_at(1.0, order.append, "abs1")
    eng.schedule(1.0, order.append, "rel1")
    eng.schedule_at(3.0, order.append, "abs3")
    eng.run()
    assert order == ["abs1", "rel1", "rel2", "abs3"]
    assert eng.now == 3.0


def test_zero_delay_cancel_respected():
    eng = Engine()
    hits = []

    def first():
        ev = eng.schedule(0.0, hits.append, "no")
        eng.schedule(0.0, hits.append, "yes")
        ev.cancel()

    eng.schedule(1.0, first)
    eng.run()
    assert hits == ["yes"]


def test_zero_delay_orders_against_equal_time_heap_entries():
    # A tiny-but-positive delay that rounds to the current instant goes
    # through the heap; zero delays go through the FIFO lane.  Sequence
    # numbers must still interleave the two lanes in creation order.
    eng = Engine()
    order = []
    big = 1e18

    def at_big():
        tiny = 1e-7  # big + tiny == big in float64
        assert big + tiny == big
        eng.schedule(0.0, order.append, "fifo1")
        eng.schedule(tiny, order.append, "heap")
        eng.schedule(0.0, order.append, "fifo2")

    eng.schedule_at(big, at_big)
    eng.run()
    assert order == ["fifo1", "heap", "fifo2"]


def test_pending_counts_both_lanes():
    eng = Engine()

    def first():
        eng.schedule(0.0, lambda: None)
        eng.schedule(1.0, lambda: None)
        assert eng.pending == 2

    eng.schedule(1.0, first)
    assert eng.pending == 1
    eng.run()
    assert eng.pending == 0


def test_event_budget_detects_livelock():
    eng = Engine(max_events=100)

    def ping():
        eng.schedule(1.0, ping)

    eng.schedule(0.0, ping)
    with pytest.raises(SimulationError, match="event budget"):
        eng.run()


def test_step_runs_one_event():
    eng = Engine()
    hits = []
    eng.schedule(1.0, hits.append, 1)
    eng.schedule(2.0, hits.append, 2)
    assert eng.step()
    assert hits == [1]
    assert eng.step()
    assert hits == [1, 2]
    assert not eng.step()


def test_events_run_counter():
    eng = Engine()
    for i in range(5):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert eng.events_run == 5


def test_run_not_reentrant():
    eng = Engine()

    def inner():
        with pytest.raises(SimulationError, match="reentrant"):
            eng.run()

    eng.schedule(0.0, inner)
    eng.run()


def test_determinism_two_identical_runs():
    def build():
        eng = Engine()
        order = []
        for i in range(50):
            eng.schedule((i * 7919) % 13 * 0.5, order.append, i)
        eng.run()
        return order

    assert build() == build()


# ---------------------------------------------------------------------------
# pending vs lazily-cancelled entries
# ---------------------------------------------------------------------------

def test_pending_ignores_cancelled_heap_entries():
    eng = Engine()
    eng.schedule(2.0, lambda: None)
    doomed = [eng.schedule(1.0, lambda: None) for _ in range(3)]
    for ev in doomed:
        ev.cancel()
    # The heap still physically holds the cancelled entries (lazy
    # cancellation), but pending must not count them.
    assert eng.pending == 1


def test_pending_ignores_cancelled_fifo_entries():
    eng = Engine()
    hits = []

    def first():
        a = eng.schedule(0.0, hits.append, "a")
        eng.schedule(0.0, hits.append, "b")
        a.cancel()
        assert eng.pending == 1

    eng.schedule(0.0, first)
    eng.run()
    assert hits == ["b"]


# ---------------------------------------------------------------------------
# interrupt between runs / step at an empty heap
# ---------------------------------------------------------------------------

class _Boom(Exception):
    pass


def test_interrupt_while_idle_raises_on_next_run():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    # The loop is idle: the poison entry must park until the next run()
    # and fire before any real event.
    eng.interrupt(_Boom("later"))
    hits = []
    eng.schedule(1.0, hits.append, 1)
    with pytest.raises(_Boom):
        eng.run()
    assert hits == []
    # The engine survives: the parked event is still there and a fresh
    # run() completes it.
    eng.run()
    assert hits == [1]


def test_interrupt_while_idle_precedes_same_instant_events():
    eng = Engine()
    eng.interrupt(_Boom("first"))
    eng.schedule(0.0, lambda: None)
    with pytest.raises(_Boom):
        eng.run()


def test_step_at_empty_heap_is_noop():
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.run()
    before = (eng.now, eng.events_run, eng.pending)
    assert eng.step() is False
    assert (eng.now, eng.events_run, eng.pending) == before


def test_step_skips_cancelled_entries_and_reports_empty():
    eng = Engine()
    ev = eng.schedule(1.0, lambda: None)
    ev.cancel()
    assert eng.step() is False
    assert eng.now == 0.0


# ---------------------------------------------------------------------------
# scheduler policies
# ---------------------------------------------------------------------------

from repro.sim import DefaultPolicy, SchedulerPolicy  # noqa: E402


def _scripted_run(policy):
    eng = Engine()
    if policy is not None:
        eng.set_policy(policy)
    order = []
    for i in range(50):
        eng.schedule((i * 7919) % 13 * 0.5, order.append, i)
    final = eng.run()
    return order, final, eng.events_run


def test_default_policy_matches_native_order():
    assert _scripted_run(None) == _scripted_run(DefaultPolicy())


def test_policy_can_reorder_same_instant_events():
    class LastFirst(SchedulerPolicy):
        def choose(self, ready):
            return ready[-1]

    eng = Engine()
    eng.set_policy(LastFirst())
    order = []
    for i in range(4):
        eng.schedule(1.0, order.append, i)
    eng.run()
    assert order == [3, 2, 1, 0]
    assert eng.now == 1.0


def test_policy_executed_sees_every_dispatch():
    class Recorder(DefaultPolicy):
        def __init__(self):
            self.seen = []

        def executed(self, entry):
            self.seen.append(entry[1])

    rec = Recorder()
    eng = Engine()
    eng.set_policy(rec)
    for i in range(3):
        eng.schedule(float(i), lambda: None)
    eng.run()
    assert rec.seen == sorted(rec.seen)
    assert len(rec.seen) == 3


def test_ready_events_excludes_cancelled_and_sorts():
    eng = Engine()
    eng.schedule(2.0, lambda: None)
    ev = eng.schedule(1.0, lambda: None)
    eng.schedule(3.0, lambda: None)
    ev.cancel()
    ready = eng.ready_events()
    assert [e[0] for e in ready] == [2.0, 3.0]
    assert ready == sorted(ready, key=lambda e: (e[0], e[1]))


def test_set_policy_while_running_rejected():
    eng = Engine()

    def inner():
        with pytest.raises(SimulationError):
            eng.set_policy(DefaultPolicy())

    eng.schedule(0.0, inner)
    eng.run()


def test_policy_run_until_stops_early():
    eng = Engine()
    eng.set_policy(DefaultPolicy())
    hits = []
    eng.schedule(1.0, hits.append, 1)
    eng.schedule(5.0, hits.append, 2)
    assert eng.run(until=2.0) == 2.0
    assert hits == [1]
    assert eng.pending == 1
    eng.run()
    assert hits == [1, 2]


class _NoRepr:
    """Event argument whose repr must never be formatted."""

    def __repr__(self):
        raise AssertionError("repr of an event argument was formatted")


class _Pick(SchedulerPolicy):
    """Chooses the ready entry whose args equal ``want`` when it is
    ready, else the first; records every ready set it was offered."""

    def __init__(self, want=None):
        self.want = want
        self.offered = []

    def choose(self, ready):
        self.offered.append([e[4] for e in ready])
        for e in ready:
            if e[4] == self.want:
                return e
        return ready[0]


def test_policy_dispatch_never_formats_reprs():
    # Replaces the removal-by-identity test of the deleted
    # Engine._remove_entry: the policy loop finds the chosen entry by
    # bisection and identity, never by formatting or comparing args.
    eng = Engine()
    eng.set_policy(_Pick())
    ran = []
    eng.post(0.0, lambda _arg: ran.append(0), _NoRepr())
    eng.post(1.0, lambda _arg: ran.append(1), _NoRepr())
    eng.post(1.0, lambda _arg: ran.append(2), _NoRepr())
    eng.run()
    assert ran == [0, 1, 2]
    assert eng.pending == 0


def test_policy_middle_choice_keeps_remaining_order():
    # Replaces the heap-order test of Engine._remove_entry: choosing an
    # entry from the middle of the ready list leaves the rest in
    # (time, seq) order for the native loop and for the policy.
    eng = Engine()
    order = []
    delays = [5.0, 1.0, 3.0, 4.0, 2.0, 6.0, 2.5]
    for i, d in enumerate(delays):
        eng.post(d, order.append, i)
    pick = _Pick(want=(3,))
    eng.set_policy(pick)
    eng.run()
    assert order[0] == 3
    expected = sorted((d, i) for i, d in enumerate(delays) if i != 3)
    assert order[1:] == [i for _, i in expected]
    assert [len(r) for r in pick.offered] == list(range(len(delays), 0, -1))


def test_policy_choosing_unqueued_entry_raises():
    # Replaces Engine._remove_entry's not-queued test: a policy that
    # returns an entry the engine does not hold is an error, and the
    # queued entries survive it.
    class Foreign(SchedulerPolicy):
        def choose(self, ready):
            return (0.0, 99, None, lambda: None, ())

    eng = Engine()
    eng.post(0.0, lambda: None)
    eng.post(1.0, lambda: None)
    eng.set_policy(Foreign())
    with pytest.raises(SimulationError):
        eng.run()
    assert eng.pending == 2
    assert eng.events_run == 0


def test_policy_never_offers_entry_cancelled_mid_run():
    eng = Engine()
    hits = []
    victim = eng.schedule(2.0, hits.append, "victim")
    eng.schedule(1.0, victim.cancel)
    eng.schedule(3.0, hits.append, "after")
    # a handle-less entry queued by the same callback as the cancel
    eng.schedule(1.0, lambda: eng.post(0.5, hits.append, "posted"))
    pick = _Pick()
    eng.set_policy(pick)
    eng.run()
    assert hits == ["posted", "after"]
    assert eng.events_run == 4
    # once cancelled (the first dispatch), the victim is never offered
    assert all(("victim",) not in r for r in pick.offered[1:])
    assert ("victim",) in pick.offered[0]


def test_policy_run_until_leaves_entries_to_native_run():
    eng = Engine()
    order = []
    eng.post(1.0, order.append, "a")
    eng.post(4.0, order.append, "d")
    eng.post(3.0, order.append, "c1")
    eng.post(3.0, order.append, "c2")
    eng.post(2.0, lambda: eng.post(0.0, order.append, "b"))
    eng.set_policy(DefaultPolicy())
    assert eng.run(until=2.5) == 2.5
    assert order == ["a", "b"]
    # the policy loop's leftovers are back in the engine's lanes
    assert eng.pending == 3
    assert [(e[0], e[4]) for e in eng.ready_events()] == [
        (3.0, ("c1",)), (3.0, ("c2",)), (4.0, ("d",))]
    assert not eng._ready
    eng.set_policy(None)
    eng.run()
    assert order == ["a", "b", "c1", "c2", "d"]


def test_ready_events_inside_policy_callback_sees_policy_list():
    eng = Engine()
    seen = []

    def probe():
        eng.post(0.0, lambda: None)  # queued by this very callback
        seen.append([(e[0], e[1]) for e in eng.ready_events()])
        seen.append(eng.pending)

    eng.post(1.0, probe)
    eng.post(2.0, lambda: None)
    eng.post(3.0, lambda: None)
    eng.set_policy(DefaultPolicy())
    eng.run()
    # the policy list's two later entries plus the one just queued
    assert seen == [[(1.0, 3), (2.0, 1), (3.0, 2)], 3]


def test_interrupt_during_policy_run_raises_at_next_dispatch():
    eng = Engine()
    hits = []

    def fire():
        hits.append("fire")
        eng.interrupt(_Boom("stop"))

    eng.post(1.0, fire)
    eng.post(1.0, hits.append, "same instant")
    eng.post(2.0, hits.append, "later")
    pick = _Pick()
    eng.set_policy(pick)
    with pytest.raises(_Boom):
        eng.run()
    # nothing was dispatched after the interrupt, nor offered
    assert hits == ["fire"]
    assert len(pick.offered) == 1
    # the interrupted run's entries are back in the heap; the engine
    # finishes them on the next run
    assert eng.pending == 2 and not eng._ready
    eng.run()
    assert hits == ["fire", "same instant", "later"]


def test_ready_events_skips_cancelled_in_both_lanes():
    eng = Engine()
    live = []
    for i in range(6):
        # even i: zero-delay lane, odd i: heap lane
        ev = eng.schedule(0.0 if i % 2 == 0 else float(i), lambda: None)
        if i in (2, 3):
            ev.cancel()
        else:
            live.append((ev.time, ev.seq))
    assert eng._fifo and eng._queue
    ready = eng.ready_events()
    assert [(e[0], e[1]) for e in ready] == sorted(live)
