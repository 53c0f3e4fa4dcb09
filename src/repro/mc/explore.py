"""Systematic exploration of litmus schedules: stateless DFS + DPOR.

The driver enumerates event interleavings of one litmus/protocol/
granularity cell.  Exploration is *stateless*: the simulator has no
snapshot/restore, so backtracking re-executes a fresh machine under a
forced schedule prefix (a list of event sequence numbers -- see
:class:`~repro.mc.scheduler.ControlledScheduler`); sequence numbers are
deterministic given identical choices, so a prefix uniquely identifies
a partial execution.

Two exploration modes:

* **naive** -- branch on every enabled event at every step: the full
  interleaving tree, capped by ``max_schedules``.
* **dpor** -- dynamic partial-order reduction in the style of
  Flanagan & Godefroid: after each complete execution, find *races*
  (pairs of steps that are dependent by footprint, adjacent in the
  happens-before order, and not causally related through event
  creation) and schedule the racing event -- or its earliest pending
  ancestor -- as an alternative at the earlier point.  Only schedules
  that can change the outcome are revisited; commuting interleavings
  are pruned.

Every explored schedule runs under the PR 2 checkers (invariant
sanitizer always; race detector on race-free litmuses) and has its
final outcome checked against the litmus's allowed set for the
protocol's memory model.  The first failing schedule is kept as a
:class:`Counterexample` whose full seq listing replays exactly via
:func:`replay`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.check import install_checkers
from repro.cluster.config import NotificationMechanism
from repro.mc.litmus import Litmus, model_of
from repro.mc.scheduler import (
    GLOBAL,
    ControlledScheduler,
    ReplayDivergence,
    Step,
    TraceBudgetExceeded,
    format_trace,
)
from repro.runtime.program import run_program
from repro.sim.engine import SimulationError


@dataclass
class Counterexample:
    """A failing schedule, replayable via :func:`replay`."""

    litmus: str
    protocol: str
    granularity: int
    reason: str
    #: full forced schedule: the seq of every step, in order
    schedule: List[int]
    outcome: Optional[tuple]
    trace_text: str

    def describe(self) -> str:
        return (
            f"{self.litmus}/{self.protocol}/g{self.granularity}: "
            f"{self.reason}\n{self.trace_text}"
        )

    def to_dict(self) -> dict:
        return {
            "litmus": self.litmus,
            "protocol": self.protocol,
            "granularity": self.granularity,
            "reason": self.reason,
            "schedule": list(self.schedule),
            "outcome": list(self.outcome) if self.outcome is not None else None,
        }


@dataclass
class ExplorationResult:
    """Everything one exploration cell produced."""

    litmus: str
    protocol: str
    granularity: int
    dpor: bool
    #: complete schedules executed
    schedules: int = 0
    #: total events dispatched across all schedules
    transitions: int = 0
    #: length of the longest schedule
    max_trace_len: int = 0
    #: outcome tuple -> number of schedules that produced it
    outcomes: Dict[tuple, int] = field(default_factory=dict)
    #: outcomes outside the model's allowed set -> schedule count
    forbidden: Dict[tuple, int] = field(default_factory=dict)
    #: schedules with sanitizer/race findings or deadlocks/crashes
    check_failures: int = 0
    #: True when the whole schedule space was explored within budget
    complete: bool = False
    counterexample: Optional[Counterexample] = None

    @property
    def ok(self) -> bool:
        return not self.forbidden and self.check_failures == 0

    def to_dict(self) -> dict:
        return {
            "litmus": self.litmus,
            "protocol": self.protocol,
            "granularity": self.granularity,
            "dpor": self.dpor,
            "schedules": self.schedules,
            "transitions": self.transitions,
            "max_trace_len": self.max_trace_len,
            "complete": self.complete,
            "ok": self.ok,
            "outcomes": {
                " ".join(map(str, k)): v for k, v in sorted(self.outcomes.items())
            },
            "forbidden": {
                " ".join(map(str, k)): v for k, v in sorted(self.forbidden.items())
            },
            "check_failures": self.check_failures,
            "counterexample": (
                self.counterexample.to_dict() if self.counterexample else None
            ),
        }


class _Frame:
    """One depth of the DFS: the enabled set seen there, the choices
    already taken (done), the pending alternatives (todo), the sleep
    set at entry, footprints of explored choices (done_res) for
    building child sleep sets, and the happens-before mask of the
    step currently chosen here (hb, see :meth:`Explorer._add_backtracks`)."""

    __slots__ = ("enabled", "chosen", "done", "todo", "sleep", "done_res", "hb")

    def __init__(self, enabled: Tuple[int, ...], chosen: int, sleep: dict):
        self.enabled = enabled
        self.chosen = chosen
        self.done = {chosen}
        self.todo: set = set()
        self.sleep = sleep
        self.done_res: dict = {}
        self.hb = 0


class _RaceIndex:
    """The race analysis's index of a trace prefix: each step's trace
    index by seq, and for each resource the mask of steps whose
    footprint holds it (plus the mask of steps with the
    conflicts-with-everything footprint).

    An execution replays the previous one's first ``start`` steps, so
    the index is carried over: :meth:`truncate` forgets the old suffix
    and the fresh suffix is added on top.
    """

    __slots__ = ("index_of", "touch", "glob", "trace", "n")

    def __init__(self) -> None:
        self.index_of: Dict[int, int] = {}
        self.touch: Dict[tuple, int] = {}
        self.glob = 0
        #: the trace indexed last, and how many of its steps are indexed
        self.trace: Sequence[Step] = ()
        self.n = 0

    def truncate(self, n: int) -> None:
        """Forget every step from trace index ``n`` on."""
        if n >= self.n:
            return
        index_of, old = self.index_of, self.trace
        for k in range(n, self.n):
            del index_of[old[k].seq]
        keep = (1 << n) - 1
        touch = self.touch
        for r in touch:
            touch[r] &= keep
        self.glob &= keep
        self.n = n


class _FrameStack(list):
    """The DFS's frames, one per trace step, carrying the race index of
    the trace they record from one execution to the next."""

    __slots__ = ("races",)

    def __init__(self) -> None:
        super().__init__()
        self.races = _RaceIndex()


def _flatten(results) -> tuple:
    return tuple(x for r in results for x in (r if r is not None else ()))


class Explorer:
    """DFS over the schedules of one litmus/protocol/granularity cell."""

    def __init__(
        self,
        litmus: Litmus,
        protocol: str,
        granularity: int = 64,
        *,
        dpor: bool = True,
        max_schedules: int = 5_000,
        max_steps: int = 20_000,
        mechanism: NotificationMechanism = NotificationMechanism.POLLING,
    ):
        self.litmus = litmus
        self.protocol = protocol
        self.granularity = granularity
        self.dpor = dpor
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.mechanism = mechanism
        self.allowed = litmus.allowed_for(protocol)

    # ------------------------------------------------------------------
    # executing one schedule
    # ------------------------------------------------------------------
    def _execute(
        self,
        prefix: List[int],
        sleep=None,
        sleep_from: int = 0,
        reuse: Sequence[Step] = (),
    ):
        """Run one schedule; returns (scheduler, outcome, report, error).

        ``reuse`` holds an earlier execution's first steps under the
        same forced prefix; the scheduler replays them without
        recomputing their enabled sets and footprints.  The machine is
        closed before returning (see :meth:`Machine.close
        <repro.cluster.machine.Machine.close>`), so it is freed as soon
        as the caller drops the scheduler and trace.
        """
        inst = self.litmus.instantiate(
            self.protocol, self.granularity, mechanism=self.mechanism
        )
        sched = ControlledScheduler(
            inst.machine,
            forced=prefix,
            max_steps=self.max_steps,
            initial_sleep=sleep,
            sleep_from=sleep_from,
            reuse=reuse,
        )
        checkers = install_checkers(
            inst.machine,
            races=self.litmus.race_free,
            invariants=True,
        )
        outcome = None
        error: Optional[BaseException] = None
        try:
            result = run_program(
                inst.machine, inst.program, nprocs=inst.nprocs, **inst.kwargs
            )
            outcome = _flatten(result.results)
        except (TraceBudgetExceeded, ReplayDivergence):
            # Exploration bugs / budget blowouts abort the whole cell;
            # they are never legitimate schedule outcomes.
            raise
        except (SimulationError, RuntimeError) as exc:
            error = exc
        report = checkers.report()
        inst.machine.close()
        return sched, outcome, report, error

    def _judge(self, outcome, report, error) -> Optional[str]:
        """None when the schedule is fine, else the failure reason."""
        if error is not None:
            return f"{type(error).__name__}: {error}"
        if not report.ok:
            return f"checker findings: {report.describe()}"
        if self.allowed is not None and outcome not in self.allowed:
            return f"forbidden outcome {outcome} (model {model_of(self.protocol)})"
        return None

    # ------------------------------------------------------------------
    # DPOR race analysis
    # ------------------------------------------------------------------
    def _add_backtracks(
        self,
        trace: List[Step],
        frames: List[_Frame],
        parent: Dict[int, int],
        start: int = 0,
    ) -> None:
        """Flanagan-Godefroid style backtrack-point computation.

        ``i`` races with ``j`` when their footprints conflict, ``i`` is
        not a creation ancestor of ``j``, and no intermediate step is
        happens-before ordered between them (the race is *immediate*;
        non-adjacent dependent pairs are reached transitively by later
        re-analyses).  For each race, the alternative scheduled at
        ``i`` is ``j``'s earliest pending ancestor at that point.

        Only steps ``j >= start`` are analysed.  The steps before
        ``start`` replay the previous execution's prefix: that
        execution already added their backtrack points (re-adding them
        is a no-op) and left each one's hb mask on its frame.  A
        :class:`_FrameStack` also carries their race index, so only the
        fresh suffix is indexed; a plain list of frames is indexed from
        step 0.

        ``hb[j]`` is the bitmask of trace indices that happen-before
        ``j`` through dependence and event-creation edges, transitively
        closed.  It is built from ``j``'s direct predecessors ``d`` --
        its creation parent plus the conflicting steps not yet covered,
        newest first -- and ``cov``, the OR of their ``hb[d]``, is exactly the set of
        indices ordered before ``j`` *through* an intermediate step.  So
        the immediate races of ``j`` are its conflicting steps outside
        ``cov`` and other than its parent; every creation ancestor
        beyond the parent lies in the parent's hb, hence in ``cov``.
        """
        ix = getattr(frames, "races", None) or _RaceIndex()
        ix.truncate(start)
        index_of, touch, glob = ix.index_of, ix.touch, ix.glob
        for j in range(ix.n, len(trace)):
            st = trace[j]
            res = st.resources
            bit = 1 << j
            if j >= start:
                if GLOBAL in res:
                    conf = bit - 1
                else:
                    conf = glob
                    for r in res:
                        conf |= touch.get(r, 0)
                hb = cov = 0
                pi = index_of.get(st.parent)
                if pi is not None:
                    cov = frames[pi].hb
                    hb = cov | (1 << pi)
                rest = conf & ~hb
                while rest:
                    d = rest.bit_length() - 1
                    hd = frames[d].hb
                    hb |= hd | (1 << d)
                    cov |= hd
                    rest &= ~hb
                frames[j].hb = hb
                races = conf & ~cov
                if pi is not None:
                    races &= ~(1 << pi)
                while races:
                    i = races.bit_length() - 1
                    races ^= 1 << i
                    frame = frames[i]
                    enabled = frame.enabled
                    # schedule j itself, or its earliest ancestor that
                    # was already pending at point i
                    cand = st.seq
                    while cand is not None and cand not in enabled:
                        cand = parent.get(cand)
                    if cand is None:
                        # conservative fallback: branch on everything
                        frame.todo.update(enabled)
                    elif cand != frame.chosen:
                        frame.todo.add(cand)
            index_of[st.seq] = j
            if GLOBAL in res:
                glob |= bit
            for r in res:
                touch[r] = touch.get(r, 0) | bit
        ix.glob = glob
        ix.trace = trace
        ix.n = len(trace)

    # ------------------------------------------------------------------
    # the DFS loop
    # ------------------------------------------------------------------
    def run(self) -> ExplorationResult:
        res = ExplorationResult(
            litmus=self.litmus.name,
            protocol=self.protocol,
            granularity=self.granularity,
            dpor=self.dpor,
        )
        prefix: List[int] = []
        frames: List[_Frame] = _FrameStack()
        sleep: dict = {}
        sleep_from = 0
        reuse: List[Step] = []
        while True:
            sched, outcome, report, error = self._execute(
                prefix, sleep=sleep, sleep_from=sleep_from, reuse=reuse
            )
            trace = sched.trace
            res.schedules += 1
            res.transitions += len(trace)
            res.max_trace_len = max(res.max_trace_len, len(trace))
            reason = self._judge(outcome, report, error)
            if outcome is not None:
                res.outcomes[outcome] = res.outcomes.get(outcome, 0) + 1
                if self.allowed is not None and outcome not in self.allowed:
                    res.forbidden[outcome] = res.forbidden.get(outcome, 0) + 1
            if reason is not None:
                if error is not None or not report.ok:
                    res.check_failures += 1
                if res.counterexample is None:
                    res.counterexample = Counterexample(
                        litmus=self.litmus.name,
                        protocol=self.protocol,
                        granularity=self.granularity,
                        reason=reason,
                        schedule=[st.seq for st in trace],
                        outcome=outcome,
                        trace_text=format_trace(trace),
                    )
            # grow the frame stack with the fresh suffix
            del frames[len(prefix):]
            for k in range(len(prefix), len(trace)):
                st = trace[k]
                frames.append(
                    _Frame(st.enabled, st.seq, sched.sleep_log[k] or {})
                )
            # Steps before sleep_from replay the previous execution's
            # prefix, whose footprints and races are already recorded.
            for k in range(sleep_from, len(trace)):
                st = trace[k]
                frames[k].done_res[st.seq] = st.resources
            if self.dpor:
                self._add_backtracks(trace, frames, sched.parent, sleep_from)
            else:
                for k in range(sleep_from, len(trace)):
                    st = trace[k]
                    if len(st.enabled) > 1:
                        frames[k].todo.update(st.enabled)
            # deepest frame with a pending, non-slept alternative
            depth = choice = None
            for i in range(len(frames) - 1, -1, -1):
                f = frames[i]
                if not f.todo:
                    continue  # most frames never get an alternative
                while True:
                    avail = f.todo - f.done
                    if not avail:
                        break
                    c = min(avail)
                    if self.dpor and c in f.sleep:
                        # An earlier subtree already covers every
                        # behavior that starts with c here.
                        f.done.add(c)
                        continue
                    depth, choice = i, c
                    break
                if depth is not None:
                    break
            if depth is None:
                res.complete = True
                break
            if res.schedules >= self.max_schedules:
                break
            f = frames[depth]
            # child sleep set: everything asleep here plus the choices
            # whose subtrees are fully explored (the wake rule is
            # applied inside the scheduler once the new choice runs)
            sleep = dict(f.sleep)
            if self.dpor:
                for t in f.done:
                    r = f.done_res.get(t)
                    if r is not None:
                        sleep[t] = r
            sleep_from = depth
            f.done.add(choice)
            f.chosen = choice
            del frames[depth + 1:]
            prefix = [fr.chosen for fr in frames]
            # the next execution replays this one's first depth steps
            reuse = trace[:depth]
        return res


def explore(
    litmus: Litmus,
    protocol: str,
    granularity: int = 64,
    **kw,
) -> ExplorationResult:
    """Convenience wrapper: build an :class:`Explorer` and run it."""
    return Explorer(litmus, protocol, granularity, **kw).run()


def replay(
    litmus: Litmus,
    protocol: str,
    granularity: int,
    schedule: List[int],
    *,
    mechanism: NotificationMechanism = NotificationMechanism.POLLING,
    max_steps: int = 20_000,
):
    """Re-execute one recorded schedule on a fresh machine.

    Returns ``(trace, outcome, report, error)``; the trace's seq
    listing equals ``schedule`` (replay is exact, enforced by
    :class:`~repro.mc.scheduler.ControlledScheduler`).
    """
    ex = Explorer(
        litmus, protocol, granularity, mechanism=mechanism, max_steps=max_steps
    )
    sched, outcome, report, error = ex._execute(list(schedule))
    return sched.trace, outcome, report, error
