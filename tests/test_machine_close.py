"""Machine.close(): a finished machine is freed by reference counting."""

import gc

import pytest

from repro.core.registry import available_protocols
from repro.harness.experiment import RunConfig, run_experiment
from repro.mc import LITMUS, Explorer
from repro.mc.scheduler import format_trace
from repro.net.faultplan import FaultSpec

CHAOS = FaultSpec(seed=1, drop_prob=0.02, dup_prob=0.01, reorder_prob=0.02)


def _native(proto, faults=None):
    cfg = RunConfig("lu", proto, 1024, nprocs=4, scale="tiny", faults=faults)
    result = run_experiment(cfg)
    assert result.machine.transport is not None or faults is None
    result.machine.close()


def _mc_schedule(proto):
    # One checked schedule of mp on the policy loop; _execute closes
    # the machine itself.  The trace must still render afterwards.
    sched, outcome, report, error = Explorer(LITMUS["mp"], proto, 64)._execute([])
    assert all(step.label for step in sched.trace)
    assert format_trace(sched.trace).count("\n") == len(sched.trace) - 1


def _cyclic_garbage(run) -> int:
    """Objects the cyclic collector frees after ``run()``, with the
    collector off while it runs."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("proto", available_protocols())
@pytest.mark.parametrize("cell", ["native", "mc", "chaos"])
def test_close_leaves_no_cyclic_garbage(cell, proto):
    run = {
        "native": lambda: _native(proto),
        "mc": lambda: _mc_schedule(proto),
        "chaos": lambda: _native(proto, CHAOS),
    }[cell]
    run()  # first run: lazy imports leave their own one-off garbage
    assert _cyclic_garbage(run) == 0


def test_machines_are_cycles_without_close(monkeypatch):
    """The counterpart: the same cell without close() is cyclic garbage,
    so the test above would see a missed back-reference."""
    from repro.cluster.machine import Machine

    monkeypatch.setattr(Machine, "close", lambda self: None)
    _native("hlrc")
    assert _cyclic_garbage(lambda: _native("hlrc")) > 0
    assert _cyclic_garbage(lambda: _mc_schedule("hlrc")) > 0


def test_close_twice_is_harmless_and_stats_stay_readable():
    cfg = RunConfig("lu", "swlrc", 1024, nprocs=4, scale="tiny")
    result = run_experiment(cfg)
    before = result.stats.total_messages
    result.machine.close()
    result.machine.close()
    assert result.stats.total_messages == before > 0


def test_reused_steps_do_not_keep_earlier_machines_alive():
    """A schedule that replays its prefix from the previous schedule's
    steps holds no reference to the previous machine."""
    import weakref

    ex = Explorer(LITMUS["mp"], "hlrc", 64)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        first = ex._execute([])[0]
        depth = max(k for k, st in enumerate(first.trace) if len(st.enabled) > 1)
        other = next(s for s in first.trace[depth].enabled
                     if s != first.trace[depth].seq)
        prefix = [st.seq for st in first.trace[:depth]] + [other]
        second = ex._execute(prefix, sleep_from=depth,
                             reuse=first.trace[:depth])[0]
        earlier = weakref.ref(first.machine)
        del first
        assert earlier() is None
        assert [st.seq for st in second.trace[:depth + 1]] == prefix
        assert format_trace(second.trace)
    finally:
        if was_enabled:
            gc.enable()
