"""repro.mc: controllable scheduler, DPOR exploration, litmus suite."""

import copy
import json

import pytest

from repro.mc import (
    LITMUS,
    Explorer,
    ReplayDivergence,
    TraceBudgetExceeded,
    get_litmus,
    litmus_names,
    model_of,
    replay,
)
from repro.mc.scheduler import conflict


# ---------------------------------------------------------------------------
# litmus catalog
# ---------------------------------------------------------------------------

def test_litmus_catalog_is_complete():
    assert set(litmus_names()) == {
        "sb", "mp", "lb", "iriw", "lock-handoff", "barrier-reset",
    }
    for name in litmus_names():
        lit = get_litmus(name)
        assert lit.n_procs in (2, 4)
        assert lit.n_vars in (1, 2)
        assert len(lit.homes) == lit.n_vars


def test_get_litmus_unknown_name():
    with pytest.raises(KeyError, match="unknown litmus"):
        get_litmus("nope")


def test_model_of():
    assert model_of("sc") == "sc"
    assert model_of("swlrc") == "lrc"
    assert model_of("hlrc") == "lrc"
    assert model_of("swlrc-broken") == "lrc"


def test_litmus_instantiates_per_protocol():
    inst = LITMUS["mp"].instantiate("swlrc", granularity=64)
    assert inst.nprocs == 2
    assert len(inst.kwargs["addrs"]) == 2


# ---------------------------------------------------------------------------
# exhaustive exploration (the acceptance cells)
# ---------------------------------------------------------------------------

def test_mp_swlrc_explores_exhaustively_and_passes():
    """The headline cell: MP under SW-LRC, all schedules, zero findings."""
    r = Explorer(LITMUS["mp"], "swlrc", 64, dpor=True,
                 max_schedules=4000).run()
    assert r.complete, "mp/swlrc must fit the schedule budget"
    assert r.ok, r.forbidden or r.check_failures
    # Both allowed outcomes are actually reachable, nothing else is.
    assert set(r.outcomes) == {(0, 0), (1, 42)}


@pytest.mark.parametrize("proto,expect_sc_violation_absent", [
    ("sc", True),
    ("hlrc", False),
])
def test_sb_exhaustive(proto, expect_sc_violation_absent):
    r = Explorer(LITMUS["sb"], proto, 64, dpor=True,
                 max_schedules=8000).run()
    assert r.complete and r.ok
    if expect_sc_violation_absent:
        # Under SC both reads returning 0 is the classic forbidden
        # store-buffer outcome; exhaustive search must never see it.
        assert (0, 0) not in r.outcomes
        assert set(r.outcomes) == {(0, 1), (1, 0), (1, 1)}


def test_mp_sc_and_hlrc_exhaustive():
    # Exact counts pin the explored schedule set itself, not just the
    # verdict: a change to the race analysis or the scheduler that
    # explores different schedules moves them.
    expect = {"sc": (142, 6314), "hlrc": (278, 11337)}
    for proto, counts in expect.items():
        r = Explorer(LITMUS["mp"], proto, 64, dpor=True,
                     max_schedules=2000).run()
        assert r.complete and r.ok, proto
        assert set(r.outcomes) <= {(0, 0), (1, 42)}, proto
        assert (r.schedules, r.transitions) == counts, proto


def test_budget_capped_cell_reports_incomplete_not_failed():
    r = Explorer(LITMUS["lock-handoff"], "swlrc", 64, dpor=True,
                 max_schedules=40).run()
    assert not r.complete
    assert r.ok  # a budget cap is not a finding
    assert r.schedules == 40


# ---------------------------------------------------------------------------
# DPOR vs naive DFS
# ---------------------------------------------------------------------------

def test_dpor_explores_fewer_schedules_than_naive():
    dpor = Explorer(LITMUS["mp"], "sc", 64, dpor=True,
                    max_schedules=1000).run()
    naive = Explorer(LITMUS["mp"], "sc", 64, dpor=False,
                     max_schedules=1000).run()
    assert dpor.complete
    assert dpor.ok and naive.ok
    assert not naive.complete, "naive DFS should exhaust the budget"
    assert dpor.schedules < naive.schedules


def test_dpor_and_naive_agree_on_reachable_outcomes():
    # On a cell small enough for both to finish, the reduction must
    # not lose outcomes (soundness of the persistent/sleep sets).
    dpor = Explorer(LITMUS["mp"], "sc", 64, dpor=True,
                    max_schedules=20000).run()
    naive = Explorer(LITMUS["mp"], "sc", 64, dpor=False,
                     max_schedules=20000).run()
    assert dpor.complete and naive.complete
    assert set(dpor.outcomes) == set(naive.outcomes)


# ---------------------------------------------------------------------------
# incremental race analysis against the original O(n^3) one
# ---------------------------------------------------------------------------

def _oracle_add_backtracks(trace, frames, parent):
    """The original backtrack-point computation, kept as a reference:
    hb by pairwise conflict scans, immediate races by scanning every
    intermediate step, creation ancestors rebuilt per pair."""
    n = len(trace)
    index_of = {st.seq: k for k, st in enumerate(trace)}
    hb = [0] * n
    for j in range(n):
        m = 0
        pj = trace[j].parent
        if pj is not None and pj in index_of:
            pi = index_of[pj]
            m |= hb[pi] | (1 << pi)
        for i in range(j):
            if not (m >> i) & 1 and conflict(
                trace[i].resources, trace[j].resources
            ):
                m |= hb[i] | (1 << i)
        hb[j] = m

    def ancestors(seq):
        chain = []
        p = parent.get(seq)
        while p is not None:
            chain.append(p)
            p = parent.get(p)
        return chain

    for j in range(n):
        res_j = trace[j].resources
        anc_j = set(ancestors(trace[j].seq))
        for i in range(j - 1, -1, -1):
            if trace[i].seq in anc_j:
                continue
            if not conflict(trace[i].resources, res_j):
                continue
            immediate = True
            for k in range(i + 1, j):
                if (hb[k] >> i) & 1 and (hb[j] >> k) & 1:
                    immediate = False
                    break
            if not immediate:
                continue
            frame = frames[i]
            enabled = set(frame.enabled)
            cand = None
            for seq in [trace[j].seq] + ancestors(trace[j].seq):
                if seq in enabled:
                    cand = seq
                    break
            if cand is None:
                frame.todo.update(enabled)
            elif cand != frame.chosen:
                frame.todo.add(cand)


def _clone_frames(frames):
    out = []
    for f in frames:
        g = copy.copy(f)
        g.done, g.todo = set(f.done), set(f.todo)
        out.append(g)
    return out


@pytest.mark.parametrize("litmus,proto,cap", [
    ("mp", "sc", 2000),
    ("mp", "swlrc", 4000),
    ("mp", "hlrc", 2000),
    ("mp", "tardis", 2000),
    ("sb", "hlrc", 150),
    ("lock-handoff", "swlrc", 60),
])
def test_incremental_backtracks_match_oracle(monkeypatch, litmus, proto, cap):
    """Every execution's backtrack points, analysed incrementally from
    ``sleep_from`` and from step 0, equal the original analysis's."""
    real = Explorer._add_backtracks
    calls = []

    def checking(self, trace, frames, parent, start=0):
        oracle = _clone_frames(frames)
        _oracle_add_backtracks(trace, oracle, parent)
        full = _clone_frames(frames)
        real(self, trace, full, parent, 0)
        real(self, trace, frames, parent, start)
        want = [f.todo for f in oracle]
        assert [f.todo for f in full] == want
        assert [f.todo for f in frames] == want
        assert [f.hb for f in frames] == [f.hb for f in full]
        calls.append(start)

    monkeypatch.setattr(Explorer, "_add_backtracks", checking)
    r = Explorer(LITMUS[litmus], proto, 64, dpor=True,
                 max_schedules=cap).run()
    assert calls and len(calls) == r.schedules
    # the incremental path was really taken
    assert any(start > 0 for start in calls)
    if litmus == "mp":
        assert r.complete


# ---------------------------------------------------------------------------
# the planted bug is caught, with a replayable counterexample
# ---------------------------------------------------------------------------

def test_broken_swlrc_caught_with_replayable_counterexample():
    r = Explorer(LITMUS["lock-handoff"], "swlrc-broken", 64, dpor=True,
                 max_schedules=50).run()
    assert not r.ok
    assert r.forbidden, "dropping a write notice must surface as a " \
                        "forbidden outcome"
    cx = r.counterexample
    assert cx is not None
    assert cx.protocol == "swlrc-broken"
    assert "forbidden outcome" in cx.reason
    # The trace is a readable event schedule...
    assert "rank" in cx.trace_text and "lock_" in cx.trace_text
    # ...and the recorded schedule replays to the same bad outcome.
    trace, outcome, report, error = replay(
        LITMUS["lock-handoff"], "swlrc-broken", 64, cx.schedule,
    )
    assert error is None
    assert outcome == cx.outcome
    assert len(trace) == len(cx.schedule)


def test_unbroken_swlrc_passes_where_broken_fails():
    r = Explorer(LITMUS["lock-handoff"], "swlrc", 64, dpor=True,
                 max_schedules=50).run()
    assert r.ok


# ---------------------------------------------------------------------------
# replay machinery
# ---------------------------------------------------------------------------

def test_replay_is_deterministic():
    r = Explorer(LITMUS["mp"], "sc", 64, dpor=True, max_schedules=500).run()
    assert r.complete
    # Replaying the free-run (empty prefix) twice gives identical traces.
    t1, o1, rep1, e1 = replay(LITMUS["mp"], "sc", 64, [])
    t2, o2, rep2, e2 = replay(LITMUS["mp"], "sc", 64, [])
    assert e1 is None and e2 is None
    assert o1 == o2
    assert [(s.seq, s.time, s.label) for s in t1] == \
           [(s.seq, s.time, s.label) for s in t2]


def test_replay_divergence_detected():
    with pytest.raises(ReplayDivergence):
        replay(LITMUS["mp"], "sc", 64, [999_999])


def test_trace_budget_enforced():
    with pytest.raises(TraceBudgetExceeded):
        replay(LITMUS["mp"], "sc", 64, [], max_steps=5)


# ---------------------------------------------------------------------------
# replaying the shared prefix from the previous schedule's steps
# ---------------------------------------------------------------------------

def _step_view(trace):
    return [(s.seq, s.enabled, s.resources, s.parent, s.label, s.time)
            for s in trace]


#: mp explorations measured before prefix reuse existed:
#: (schedules, transitions, complete, outcome counts)
MP_PINS = {
    ("sc", True): (142, 6314, True, {(0, 0): 66, (1, 42): 76}),
    ("swlrc", True): (2626, 126176, True, {(0, 0): 732, (1, 42): 1894}),
    ("hlrc", True): (278, 11337, True, {(0, 0): 61, (1, 42): 217}),
    ("tardis", True): (1079, 48880, True, {(0, 0): 58, (1, 42): 1021}),
    ("sc", False): (300, 13200, False, {(1, 42): 300}),
    ("swlrc", False): (300, 15000, False, {(1, 42): 300}),
    ("hlrc", False): (300, 12300, False, {(1, 42): 300}),
    ("tardis", False): (300, 13800, False, {(1, 42): 300}),
}


@pytest.mark.parametrize("dpor", [True, False], ids=["dpor", "naive"])
@pytest.mark.parametrize("proto", ["sc", "swlrc", "hlrc", "tardis"])
def test_reused_prefix_matches_full_path(monkeypatch, proto, dpor):
    """Every schedule run with the previous schedule's steps reused
    records exactly what the same forced prefix records when every step
    takes the full choose path (as :func:`replay` runs it)."""
    real = Explorer._execute
    reused = []

    def checking(self, prefix, sleep=None, sleep_from=0, reuse=()):
        sched, outcome, report, error = real(
            self, prefix, sleep, sleep_from, reuse)
        full, f_outcome, f_report, f_error = real(
            self, prefix, sleep, sleep_from)
        assert _step_view(sched.trace) == _step_view(full.trace)
        assert sched.sleep_log == full.sleep_log
        assert sched.parent == full.parent
        assert outcome == f_outcome
        assert report.describe() == f_report.describe()
        assert repr(error) == repr(f_error)
        reused.append(len(reuse))
        return sched, outcome, report, error

    monkeypatch.setattr(Explorer, "_execute", checking)
    r = Explorer(LITMUS["mp"], proto, 64, dpor=dpor,
                 max_schedules=4000 if dpor else 300).run()
    assert len(reused) == r.schedules and max(reused) > 0
    assert (r.schedules, r.transitions, r.complete, r.outcomes) == \
        MP_PINS[proto, dpor]
    assert r.check_failures == 0 and r.counterexample is None


def test_reused_prefix_keeps_counterexample(monkeypatch):
    """A failing cell's verdict and counterexample text are the same
    with and without reused steps."""
    lit = LITMUS["lock-handoff"]
    with_reuse = Explorer(lit, "swlrc-broken", 64, max_schedules=50).run()
    real = Explorer._execute
    monkeypatch.setattr(
        Explorer, "_execute",
        lambda self, prefix, sleep=None, sleep_from=0, reuse=():
            real(self, prefix, sleep, sleep_from),
    )
    without = Explorer(lit, "swlrc-broken", 64, max_schedules=50).run()
    assert with_reuse.counterexample is not None
    assert with_reuse.to_dict() == without.to_dict()
    assert with_reuse.counterexample.trace_text == \
        without.counterexample.trace_text


def test_error_in_forced_step_is_a_counterexample(monkeypatch):
    """A schedule whose newly forced step raises in its callback is a
    failing schedule: it never records that step, and the exploration
    reports it as a counterexample instead of failing itself."""
    import functools

    from repro.cluster.machine import Machine
    from repro.mc.scheduler import ControlledScheduler
    from repro.sim.process import Process

    armed = {"now": False, "fired": 0}

    def raising(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if armed["now"]:
                armed["now"] = False
                armed["fired"] += 1
                raise RuntimeError("injected")
            return fn(*args)
        return wrapper

    for cls, name in ((Machine, "_deliver"), (Machine, "_dispatch"),
                      (Process, "_step")):
        monkeypatch.setattr(cls, name, raising(getattr(cls, name)))
    real_choose = ControlledScheduler.choose

    def choose(self, ready):
        entry = real_choose(self, ready)
        # the first backtrack's new choice: the engine runs its
        # callback next
        if (not armed["fired"] and self.forced
                and len(self.trace) == len(self.forced) - 1):
            armed["now"] = True
        return entry

    monkeypatch.setattr(ControlledScheduler, "choose", choose)
    r = Explorer(LITMUS["mp"], "sc", 64).run()
    assert armed["fired"] == 1
    assert r.complete and r.check_failures == 1
    cex = r.counterexample
    assert cex is not None and cex.reason == "RuntimeError: injected"
    # the recorded steps end before the failed one, and replay
    trace = replay(LITMUS["mp"], "sc", 64, cex.schedule)[0]
    assert [st.seq for st in trace[:len(cex.schedule)]] == cex.schedule


@pytest.mark.parametrize("case,held_back", [
    ("absent", True),
    ("behind-not-larger-on-link", True),
    ("behind-earlier-dispatch-at-node", True),
    ("behind-larger-on-local-link", True),
    ("overtakes-larger-on-link", False),
    ("other-link", False),
    ("other-node", False),
])
def test_reused_prefix_divergence(case, held_back):
    """A forced seq inside the reused prefix must be ready and not held
    back by the wire order, exactly as on the full path; what the wire
    allows replays."""
    from repro.mc.scheduler import ControlledScheduler, Step
    from repro.net.message import Message

    machine = LITMUS["mp"].instantiate("sc", 64).machine
    node0, node1 = machine.nodes[0], machine.nodes[1]

    def msg(size, src=0):
        return Message(src=src, dst=1, mtype="read_req", size_bytes=size,
                       block=0)

    def deliver(seq, m):
        return (0.0, seq, None, machine._deliver, (m,))

    def dispatch(seq, node):
        return (0.0, seq, None, machine._dispatch, (node, msg(64)))

    ready = {
        "absent": [deliver(3, msg(64)), deliver(5, msg(64, src=2))],
        "behind-not-larger-on-link": [deliver(3, msg(64)), deliver(4, msg(64))],
        "behind-earlier-dispatch-at-node": [dispatch(3, node1),
                                            dispatch(4, node1)],
        "behind-larger-on-local-link": [deliver(3, msg(1024, src=1)),
                                        deliver(4, msg(64, src=1))],
        "overtakes-larger-on-link": [deliver(3, msg(1024)), deliver(4, msg(64))],
        "other-link": [deliver(3, msg(64, src=2)), deliver(4, msg(64))],
        "other-node": [dispatch(3, node0), dispatch(4, node1)],
    }[case]
    for reuse in ([Step(4, 0.0)], ()):
        sched = ControlledScheduler(machine, forced=[4], reuse=reuse,
                                    sleep_from=len(reuse))
        if held_back:
            with pytest.raises(ReplayDivergence):
                sched.choose(ready)
        else:
            assert sched.choose(ready)[1] == 4
        machine.engine.set_policy(None)


# ---------------------------------------------------------------------------
# the one-pass enabled set against the pairwise wire-order rule
# ---------------------------------------------------------------------------

def _held_back(machine, ready, entry):
    """The pairwise rule the scheduler used to apply to every ready
    entry (O(R^2) a step), kept as the oracle of its one-pass form."""
    seq, fn = entry[1], entry[3]
    if fn == machine._deliver:
        m = entry[4][0]
        for e in ready:
            if e[1] < seq and e[3] == machine._deliver:
                mj = e[4][0]
                if (mj.src == m.src and mj.dst == m.dst
                        and (m.src == m.dst or mj.size_bytes <= m.size_bytes)):
                    return True
    elif fn == machine._dispatch:
        node_id = entry[4][0].id
        for e in ready:
            if (e[1] < seq and e[3] == machine._dispatch
                    and e[4][0].id == node_id):
                return True
    return False


@pytest.mark.parametrize("seed", range(40))
def test_enabled_set_matches_pairwise_rule(seed):
    """Seeded random ready sets over 3 nodes: local links, equal sizes,
    smaller messages overtaking larger ones, several handler
    completions at one node, process resumptions and other events,
    with times unrelated to seq order."""
    import random

    from repro.mc.scheduler import ControlledScheduler, Step
    from repro.net.message import Message
    from repro.sim.process import Process

    rng = random.Random(seed)
    machine = LITMUS["iriw"].instantiate("sc", 64).machine
    procs = [Process(machine.engine, iter(()), name=f"rank{i}")
             for i in range(3)]
    n = rng.randint(1, 12)
    seqs = rng.sample(range(100, 200), n)
    ready = []
    for seq in seqs:
        roll = rng.random()
        time = float(rng.choice((0, 0, 1, 2)))
        if roll < 0.6:
            m = Message(src=rng.randrange(3), dst=rng.randrange(3),
                        mtype="read_req", block=0,
                        size_bytes=rng.choice((16, 64, 64, 1024)))
            ready.append((time, seq, None, machine._deliver, (m,)))
        elif roll < 0.85:
            node = machine.nodes[rng.randrange(3)]
            m = Message(src=0, dst=node.id, mtype="read_req", size_bytes=16)
            ready.append((time, seq, None, machine._dispatch, (node, m)))
        elif roll < 0.95:
            ready.append((time, seq, None, rng.choice(procs)._step, (None,)))
        else:
            ready.append((time, seq, None, print, ()))
    ready.sort()
    want = [e for e in ready if not _held_back(machine, ready, e)]
    sched = ControlledScheduler(machine)
    enabled, classes = sched._enabled(ready)
    assert enabled == want
    assert len(classes) == len(enabled)
    # classifications are cached by seq: a second pass agrees
    assert sched._enabled(ready) == (enabled, classes)
    # a reused prefix step checks its one forced entry by the same rule
    for e in ready:
        sched.reuse = [Step(e[1], 0.0)] * 2
        if e in want:
            assert sched.choose(ready) is e
        else:
            with pytest.raises(ReplayDivergence):
                sched.choose(ready)
    machine.engine.set_policy(None)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_mc_passing_cell(capsys):
    from repro.harness.cli import main

    rc = main(["mc", "--litmus", "mp", "--protocol", "sc",
               "--max-schedules", "300"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "mp" in out and "ok" in out


def test_cli_mc_failing_cell(tmp_path, capsys):
    from repro.harness.cli import main

    ev = tmp_path / "events.jsonl"
    js = tmp_path / "mc.json"
    rc = main(["mc", "--litmus", "lock-handoff",
               "--protocol", "swlrc-broken",
               "--max-schedules", "30",
               "--events", str(ev), "--json", str(js)])
    assert rc == 1
    types = [json.loads(line)["type"] for line in ev.read_text().splitlines()]
    assert types == ["mc_cell", "mc_counterexample"]
    doc = json.loads(js.read_text())
    assert doc["results"][0]["ok"] is False


def test_cli_mc_unknown_litmus(capsys):
    from repro.harness.cli import main

    assert main(["mc", "--litmus", "nope"]) == 2


def test_broken_protocol_registration_is_mc_scoped():
    import subprocess
    import sys

    # Importing repro.mc (done above) registers the canary protocol...
    from repro.core.protocol import PROTOCOLS

    assert "swlrc-broken" in PROTOCOLS
    # ...but a process that never imports repro.mc must not see it:
    # the production experiment matrix can't pick it up by accident.
    out = subprocess.run(
        [sys.executable, "-c",
         "import repro.harness.cli; import repro.core.protocol as p; "
         "print('swlrc-broken' in p.PROTOCOLS)"],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_sync_footprint_names_noticed_blocks():
    """A grant's write notices invalidate blocks, so the sync step's
    footprint must name them; payloads without notices add nothing."""
    from types import SimpleNamespace

    from repro.core.timestamps import WriteNotice
    from repro.mc.scheduler import _FootprintHooks

    sched = SimpleNamespace(fp=set())
    hooks = _FootprintHooks(sched)
    grant = {"vt": (1, 2), "notices": [WriteNotice(3, 1, 1), WriteNotice(5, 2, 1)]}
    hooks.on_sync_applied(0, grant)
    assert sched.fp == {("blk", 3), ("blk", 5)}
    for payload in (None, {"pts": 4}, {"vt": (1, 2), "notices": []}):
        sched.fp = set()
        hooks.on_sync_applied(0, payload)
        assert sched.fp == set()
