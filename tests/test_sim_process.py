"""Unit tests for processes, futures and latches."""

import pytest

from repro.sim import CountdownLatch, Engine, Future, Process, ProcessCrashed


def test_process_sleeps_advance_time():
    eng = Engine()
    trace = []

    def prog():
        trace.append(eng.now)
        yield 10.0
        trace.append(eng.now)
        yield 5
        trace.append(eng.now)

    Process(eng, prog())
    eng.run()
    assert trace == [0.0, 10.0, 15.0]


def test_process_return_value_via_completion():
    eng = Engine()

    def prog():
        yield 1.0
        return 42

    p = Process(eng, prog())
    results = []
    p.completion.add_callback(results.append)
    eng.run()
    assert p.finished
    assert p.result == 42
    assert results == [42]


def test_completion_after_finish_still_resolves():
    eng = Engine()

    def prog():
        yield 1.0
        return "done"

    p = Process(eng, prog())
    eng.run()
    results = []
    p.completion.add_callback(results.append)
    eng.run()
    assert results == ["done"]


def test_future_wakes_process_with_value():
    eng = Engine()
    fut = Future(eng)
    got = []

    def prog():
        value = yield fut
        got.append((eng.now, value))

    Process(eng, prog())
    eng.schedule(30.0, fut.resolve, "hello")
    eng.run()
    assert got == [(30.0, "hello")]


def test_future_double_resolve_rejected():
    eng = Engine()
    fut = Future(eng)
    fut.resolve(1)
    with pytest.raises(Exception):
        fut.resolve(2)


def test_future_callback_after_done_fires():
    eng = Engine()
    fut = Future(eng)
    fut.resolve("v")
    got = []
    fut.add_callback(got.append)
    eng.run()
    assert got == ["v"]


def test_multiple_waiters_on_one_future():
    eng = Engine()
    fut = Future(eng)
    got = []

    def waiter(tag):
        v = yield fut
        got.append((tag, v))

    Process(eng, waiter("a"))
    Process(eng, waiter("b"))
    eng.schedule(1.0, fut.resolve, 7)
    eng.run()
    assert sorted(got) == [("a", 7), ("b", 7)]


def test_latch_resolves_after_n_hits():
    eng = Engine()
    latch = CountdownLatch(eng, 3)
    done_at = []

    def prog():
        yield latch
        done_at.append(eng.now)

    Process(eng, prog())
    for t in (1.0, 2.0, 3.0):
        eng.schedule(t, latch.hit)
    eng.run()
    assert done_at == [3.0]


def test_latch_zero_count_already_done():
    eng = Engine()
    latch = CountdownLatch(eng, 0)
    assert latch.done
    done = []

    def prog():
        yield latch
        done.append(eng.now)

    Process(eng, prog())
    eng.run()
    assert done == [0.0]


def test_latch_overhit_rejected():
    eng = Engine()
    latch = CountdownLatch(eng, 1)
    latch.hit()
    with pytest.raises(Exception):
        latch.hit()


def test_latch_negative_count_rejected():
    eng = Engine()
    with pytest.raises(ValueError):
        CountdownLatch(eng, -1)


def test_yield_from_composition():
    eng = Engine()
    trace = []

    def inner():
        yield 2.0
        return "inner-result"

    def outer():
        r = yield from inner()
        trace.append((eng.now, r))
        yield 3.0
        trace.append(eng.now)

    Process(eng, outer())
    eng.run()
    assert trace == [(2.0, "inner-result"), 5.0]


def test_process_crash_wraps_exception():
    eng = Engine()

    def prog():
        yield 1.0
        raise ValueError("boom")

    Process(eng, prog(), name="bad")
    with pytest.raises(ProcessCrashed, match="bad"):
        eng.run()


def test_process_bad_effect_rejected():
    eng = Engine()

    def prog():
        yield "not-an-effect"

    Process(eng, prog(), name="weird")
    with pytest.raises(Exception, match="unsupported effect"):
        eng.run()


def test_negative_sleep_rejected():
    eng = Engine()

    def prog():
        yield -5.0

    Process(eng, prog())
    with pytest.raises(Exception, match="negative"):
        eng.run()


def test_two_processes_interleave_deterministically():
    eng = Engine()
    trace = []

    def prog(tag, period):
        for _ in range(3):
            yield period
            trace.append((tag, eng.now))

    Process(eng, prog("a", 2.0))
    Process(eng, prog("b", 3.0))
    eng.run()
    # At t=6 both wake; b's wakeup was scheduled earlier (at t=3) than
    # a's (at t=4), so FIFO tie-breaking runs b first.
    assert trace == [
        ("a", 2.0),
        ("b", 3.0),
        ("a", 4.0),
        ("b", 6.0),
        ("a", 6.0),
        ("b", 9.0),
    ]
