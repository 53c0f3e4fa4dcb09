"""Controlled scheduling of one simulated machine for model checking.

:class:`ControlledScheduler` is the :class:`~repro.sim.engine.SchedulerPolicy`
the exploration driver installs on a machine under test.  Per dispatch it

* computes the **enabled set** -- the engine's ready events minus the
  orderings the wire guarantees (see below); exploring only enabled
  events keeps every explored schedule a *feasible* schedule, so a
  counterexample is never an artifact of reordering the network could
  not produce;
* follows a **forced schedule** (a list of event sequence numbers) as
  far as it reaches, then continues deterministically with the lowest
  ``(time, seq)`` enabled event.  Sequence numbers are assigned
  deterministically given identical dispatch choices, so a forced
  prefix replays the exact same partial execution on a fresh machine --
  the basis of stateless DFS backtracking;
* replays a **reused prefix** -- the steps an earlier execution
  recorded under the same forced prefix -- by checking only that each
  forced event is still ready and not held back by the wire order,
  and taking its enabled set, footprint and parent from the record;
* records a :class:`Step` per dispatch: the chosen event, the enabled
  alternatives, the event's **dependency footprint** (which node,
  blocks, locks and barriers it touched), and its creation parent.
  Footprints drive the partial-order reduction in
  :mod:`repro.mc.explore`; parentage lets the explorer map an event
  back to the pending ancestor that leads to it.

Wire-order constraints preserved (the audited contract of
:mod:`repro.net.myrinet`, pinned by the network tests): messages on the
same (src, dst) link deliver in send order unless the later message is
strictly smaller (small messages may overtake large ones, never the
reverse); node-local messages are FIFO among themselves; and handler
completions at one node retire in delivery order (handlers of a node
serialize on its CPU).  Everything else -- cross-link arrival order,
notification timing, process resumption interleaving -- is fair game
for exploration.

Footprints are *dynamic*: a base footprint is derived from the event's
callable (delivery and handler events name their message and node; a
process resumption names its rank), and the instrumentation hooks
(:class:`~repro.hooks.Hooks`) add the blocks/locks/barriers the event
actually touched while it ran.  Unrecognized callables get a
conflicts-with-everything footprint, which can only over-approximate
(more interleavings explored, never fewer).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.hooks import Hooks
from repro.sim.engine import SchedulerPolicy, SimulationError
from repro.sim.process import Process

#: footprint element that conflicts with every other footprint
GLOBAL = ("*",)


class ReplayDivergence(SimulationError):
    """A forced schedule asked for an event that is not enabled.

    Replays are deterministic, so this indicates either a corrupted
    schedule (wrong litmus/protocol/granularity for the trace) or
    nondeterminism in the simulator -- both are bugs, never expected.
    """


class TraceBudgetExceeded(SimulationError):
    """One schedule ran more steps than the configured budget."""


class Step:
    """One dispatched event in an explored schedule."""

    __slots__ = ("seq", "time", "resources", "enabled", "parent",
                 "_label", "_what")

    def __init__(
        self,
        seq: int,
        time: float,
        label: Optional[str] = None,
        resources: FrozenSet[tuple] = frozenset(),
        enabled: Tuple[int, ...] = (),
        parent: Optional[int] = None,
        what: tuple = (),
    ):
        #: engine sequence number -- the event's stable identity across
        #: replays that share a prefix
        self.seq = seq
        #: simulation time the event carried (informational; exploration
        #: ignores it)
        self.time = time
        #: dependency footprint accumulated while the event ran
        self.resources = resources
        #: seqs of every event that was enabled when this one was chosen
        self.enabled = enabled
        #: seq of the event whose dispatch created this one (None for
        #: events posted before the run started)
        self.parent = parent
        self._label = label
        #: (kind, detail, fn) the label is rendered from on first access
        self._what = what

    @property
    def label(self) -> str:
        """Human-readable description (see trace rendering).

        Rendered on first access: exploration never reads it, only
        counterexamples and trace listings do.
        """
        if self._label is None:
            self._label = _render_label(*self._what)
        return self._label


def _render_label(kind, detail, fn) -> str:
    if kind == "deliver":
        m = detail
        return (
            f"wire  {m.mtype:<14} {m.src}->{m.dst} "
            f"block={m.block} {m.size_bytes}B"
        )
    if kind == "dispatch":
        node, m = detail
        return f"node{node.id} {m.mtype:<14} from {m.src} block={m.block}"
    if kind == "process":
        return f"{detail.name}: resume"
    return f"event {getattr(fn, '__name__', repr(fn))}"


def conflict(a: FrozenSet[tuple], b: FrozenSet[tuple]) -> bool:
    """Do two footprints conflict (their dispatch order can matter)?"""
    if GLOBAL in a or GLOBAL in b:
        return True
    return not a.isdisjoint(b)


class _FootprintHooks(Hooks):
    """Feeds application-level observations into the footprint of the
    currently executing event."""

    def __init__(self, sched: "ControlledScheduler"):
        self._s = sched

    def on_region(self, node_id, addr, size, write):
        s = self._s
        blocks = frozenset(
            ("blk", b) for b in s.blockspace.blocks_in_region(addr, size)
        )
        # Attribute the region's blocks to this node's later resumption
        # events too: protocol continuations (tag flips, version bumps)
        # run in frames the hooks cannot see.
        s.proc_blocks[node_id] = blocks
        if s.fp is not None:
            s.fp.update(blocks)

    def on_write_fault(self, node_id, block):
        if self._s.fp is not None:
            self._s.fp.add(("blk", block))

    def on_acquire(self, node_id, lock_id):
        if self._s.fp is not None:
            self._s.fp.add(("lock", lock_id))

    def on_release(self, node_id, lock_id):
        if self._s.fp is not None:
            self._s.fp.add(("lock", lock_id))

    def on_barrier_enter(self, node_id, barrier_id, episode):
        if self._s.fp is not None:
            self._s.fp.add(("bar", barrier_id))

    def on_barrier_exit(self, node_id, barrier_id, episode):
        if self._s.fp is not None:
            self._s.fp.add(("bar", barrier_id))

    def on_sync_applied(self, node_id, payload):
        fp = self._s.fp
        if fp is None:
            return
        if payload and payload.get("notices"):
            for wn in payload["notices"]:
                fp.add(("blk", wn.block))


class ControlledScheduler(SchedulerPolicy):
    """Scheduler policy that records, constrains and replays schedules."""

    def __init__(
        self,
        machine,
        forced: Sequence[int] = (),
        max_steps: int = 20_000,
        initial_sleep: Optional[Dict[int, FrozenSet[tuple]]] = None,
        sleep_from: int = 0,
        reuse: Sequence[Step] = (),
    ):
        self.machine = machine
        self.engine = machine.engine
        self.blockspace = machine.blockspace
        self.forced = list(forced)
        self.max_steps = max_steps
        #: recorded steps of an earlier execution of the same forced
        #: prefix (see :meth:`_choose_reused`); dropped once replayed
        self.reuse = reuse
        #: sleep set (seq -> footprint): events whose subtrees an
        #: earlier exploration already covered.  ``initial_sleep`` is
        #: the set at entry to step index ``sleep_from``; from there it
        #: evolves by the wake rule (a dependent step wakes a sleeper).
        #: The free-running continuation prefers non-slept events, and
        #: :attr:`sleep_log` records the set at entry to each step for
        #: the explorer's backtracking bookkeeping.
        self.sleep: Dict[int, FrozenSet[tuple]] = dict(initial_sleep or {})
        self.sleep_from = sleep_from
        self.sleep_log: List[Optional[Dict[int, FrozenSet[tuple]]]] = []
        #: the completed schedule so far
        self.trace: List[Step] = []
        #: event seq -> seq of the event whose dispatch created it
        self.parent: Dict[int, int] = {}
        #: footprint of the currently executing event (None when idle)
        self.fp: Optional[set] = None
        #: per-node block set of the node's most recent region op (see
        #: _FootprintHooks.on_region)
        self.proc_blocks: Dict[int, FrozenSet[tuple]] = {}
        self._pending: Optional[Step] = None
        self._pre_seq = 0
        self._deliver_fn = machine._deliver
        self._dispatch_fn = machine._dispatch
        machine.add_hooks(_FootprintHooks(self))
        machine.engine.set_policy(self)

    # ------------------------------------------------------------------
    # event classification
    # ------------------------------------------------------------------
    def _classify(self, entry):
        """('deliver', msg) | ('dispatch', (node, msg)) |
        ('process', proc) | ('other', None)."""
        fn = entry[3]
        owner = getattr(fn, "__self__", None)
        if owner is self.machine:
            name = fn.__name__
            if name == "_deliver":
                return "deliver", entry[4][0]
            if name == "_dispatch":
                return "dispatch", entry[4]
        if isinstance(owner, Process):
            return "process", owner
        return "other", None

    @staticmethod
    def _rank_of(proc: Process) -> Optional[int]:
        name = proc.name
        if name.startswith("rank"):
            try:
                return int(name[4:])
            except ValueError:
                return None
        return None

    def _base_resources(self, kind, detail) -> set:
        if kind == "deliver":
            # Delivery is pure plumbing: it only decides the order in
            # which handlers at the destination get queued (handlers
            # themselves FIFO behind it), so two deliveries to the same
            # node race with each other and with nothing else.  The
            # ("nin", dst) namespace is disjoint from ("node", dst) on
            # purpose.
            return {("nin", detail.dst)}
        if kind == "dispatch":
            node, msg = detail
            out = {("node", node.id)}
            if msg.mtype.startswith("lock_"):
                out.add(("lock", msg.block))
            elif msg.mtype.startswith("barrier_"):
                out.add(("bar", msg.block))
            elif msg.block >= 0:
                out.add(("blk", msg.block))
            return out
        if kind == "process":
            rank = self._rank_of(detail)
            if rank is None:
                return {GLOBAL}
            return {("node", rank)} | set(self.proc_blocks.get(rank, ()))
        return {GLOBAL}

    # ------------------------------------------------------------------
    # enabled-set computation
    # ------------------------------------------------------------------
    def _held_back(self, ready, seq, kind, detail) -> bool:
        """Does the wire's ordering forbid dispatching ready event
        ``seq`` (classified as ``kind, detail``) yet?"""
        if kind == "deliver":
            m = detail
            deliver = self._deliver_fn
            for e in ready:
                if e[1] < seq and e[3] == deliver:
                    mj = e[4][0]
                    # A message overtakes an earlier one on the same
                    # link only by being strictly smaller; local
                    # deliveries are FIFO unconditionally.
                    if (mj.src == m.src and mj.dst == m.dst
                            and (m.src == m.dst or mj.size_bytes <= m.size_bytes)):
                        return True
        elif kind == "dispatch":
            # handler completions at one node retire in delivery order
            node_id = detail[0].id
            dispatch = self._dispatch_fn
            for e in ready:
                if e[1] < seq and e[3] == dispatch and e[4][0].id == node_id:
                    return True
        return False

    # ------------------------------------------------------------------
    # SchedulerPolicy interface
    # ------------------------------------------------------------------
    def choose(self, ready):
        if len(self.trace) < len(self.reuse):
            return self._choose_reused(ready)
        # Each ready entry is classified once; the chosen entry's
        # classification then feeds its footprint and label.  A lone
        # ready event needs no feasibility filter: nothing can block it.
        kinds = [self._classify(e) for e in ready]
        enabled = ready
        if len(ready) > 1:
            held_back = self._held_back
            keep = [
                k for k, e in enumerate(ready)
                if not held_back(ready, e[1], *kinds[k])
            ]
            if len(keep) < len(ready):
                enabled = [ready[k] for k in keep]
                kinds = [kinds[k] for k in keep]
        depth = len(self.trace)
        pick = 0
        if depth < len(self.forced):
            want = self.forced[depth]
            for k, e in enumerate(enabled):
                if e[1] == want:
                    pick = k
                    break
            else:
                have = [e[1] for e in enabled]
                raise ReplayDivergence(
                    f"forced schedule wants seq {want} at step {depth}, "
                    f"enabled: {have}"
                )
        elif self.sleep:
            for k, e in enumerate(enabled):
                if e[1] not in self.sleep:
                    pick = k
                    break
        entry = enabled[pick]
        kind, detail = kinds[pick]
        seq = entry[1]
        self.fp = self._base_resources(kind, detail)
        self._pending = Step(
            seq,
            entry[0],
            enabled=tuple([e[1] for e in enabled]),
            parent=self.parent.get(seq),
            what=(kind, detail, entry[3]),
        )
        self._pre_seq = self.engine.next_seq
        return entry

    def _choose_reused(self, ready):
        """Replay one step of the reused prefix.

        The recorded step's enabled set, footprint and parent were
        computed when an earlier execution first ran this prefix, and
        replay is deterministic, so only the forced event's feasibility
        is checked -- the wire-order rules of :meth:`_held_back`, applied
        to that one entry.  The hooks still run (they keep
        :attr:`proc_blocks` current for the steps after the prefix)
        but collect no footprint.
        """
        depth = len(self.trace)
        rec = self.reuse[depth]
        want = rec.seq
        entry = next((e for e in ready if e[1] == want), None)
        what = None if entry is None else self._classify(entry)
        if what is None or self._held_back(ready, want, *what):
            raise ReplayDivergence(
                f"forced schedule wants seq {want} at step {depth}, "
                f"ready: {[e[1] for e in ready]}"
            )
        kind, detail = what
        self._pending = Step(
            want,
            entry[0],
            resources=rec.resources,
            enabled=rec.enabled,
            parent=rec.parent,
            what=(kind, detail, entry[3]),
        )
        if depth + 1 == len(self.reuse):
            # the last reused step: no reference to the earlier
            # execution (or its machine) outlives the prefix
            self.reuse = ()
        self._pre_seq = self.engine.next_seq
        return entry

    def executed(self, entry):
        chosen = entry[1]
        for s in range(self._pre_seq, self.engine.next_seq):
            self.parent[s] = chosen
        step = self._pending
        self._pending = None
        trace = self.trace
        fp = self.fp
        if fp is None:
            # a reused step: its footprint is already on the record,
            # and the sleep set only evolves from sleep_from on
            self.sleep_log.append(None)
        else:
            step.resources = res = frozenset(fp)
            self.fp = None
            sleep = self.sleep
            if len(trace) >= self.sleep_from and sleep:
                self.sleep_log.append(sleep)
                # The wake rule builds a fresh dict, so the logged one
                # is never mutated afterwards.
                self.sleep = {
                    t: r
                    for t, r in sleep.items()
                    if t != step.seq and not conflict(r, res)
                }
            else:
                self.sleep_log.append(None)
        trace.append(step)
        if len(trace) >= self.max_steps:
            raise TraceBudgetExceeded(
                f"schedule exceeded {self.max_steps} steps"
            )


def format_trace(trace: Sequence[Step], highlight: int = -1) -> str:
    """Render a schedule as a readable event listing.

    One line per step: index, simulated timestamp, the event label, and
    a ``*`` marker on steps where more than one event was enabled (the
    actual scheduling decisions -- everything else was forced).  Pass
    ``highlight`` to mark one step with ``>``.
    """
    lines = []
    for k, st in enumerate(trace):
        mark = ">" if k == highlight else (
            "*" if len(st.enabled) > 1 else " "
        )
        lines.append(
            f"{mark}[{k:4d}] t={st.time:10.2f}us seq={st.seq:<6d} {st.label}"
        )
    return "\n".join(lines)
