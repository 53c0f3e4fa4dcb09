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
