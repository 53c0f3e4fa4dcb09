"""Instrumentation-hook interface for observing a running machine.

Lives at the package root (not under ``repro.runtime``) because it must
be importable from anywhere -- including ``repro.stats``, which package
inits pull in before the runtime exists -- without creating a cycle.

The runtime and synchronization services call these hooks at every
observation point an external tool could care about: region accesses,
write faults, lock acquire/release, barrier entry/exit, and the
protocol-level sync payload application.  The base class is a no-op on
every method, so a hook implementation overrides only what it needs
(:class:`~repro.stats.classify.AccessTrace` records region shapes; the
:mod:`repro.check` race detector consumes the full set).

Design notes
------------
* ``Machine.hooks`` is ``None`` by default; the hot paths test that one
  attribute instead of duck-typing with ``getattr``.  A simulation with
  no hooks installed pays a single attribute load per region operation.
* Hooks *observe* -- they must not yield simulated time, send messages,
  or mutate machine state.  Installing hooks therefore never perturbs
  event ordering: a hooked run produces bit-identical stats to an
  unhooked one.
* Multiple hooks compose through :class:`CompositeHooks`
  (``Machine.add_hooks`` handles this automatically).
"""

from __future__ import annotations

from typing import Any, List


class Hooks:
    """No-op base class: the full observation interface."""

    def on_region(self, node_id: int, addr: int, size: int, write: bool) -> None:
        """A region read/write/touch issued by the application."""

    def on_write_fault(self, node_id: int, block: int) -> None:
        """A store is about to enter the protocol's write-fault path."""

    def on_acquire(self, node_id: int, lock_id: int) -> None:
        """A lock acquire completed (grant received, notices applied)."""

    def on_release(self, node_id: int, lock_id: int) -> None:
        """A lock release completed its protocol preparation."""

    def on_barrier_enter(self, node_id: int, barrier_id: int, episode: int) -> None:
        """A node arrived at a barrier (after its release preparation)."""

    def on_barrier_exit(self, node_id: int, barrier_id: int, episode: int) -> None:
        """A node left a barrier (release payload applied)."""

    def on_sync_applied(self, node_id: int, payload: Any) -> None:
        """A protocol sync payload (grant / barrier release) was applied."""

    def on_release_done(self, node_id: int) -> None:
        """``release_prepare`` finished: intervals closed, diffs flushed."""

    def on_assume_disjoint(self, node_id: int, active: bool, reason: str) -> None:
        """The application entered (``active=True``) or left an
        ``assume_disjoint`` scope: its region touches model accesses
        that the original program keeps element-disjoint or
        phase-ordered, so conflict checkers must not flag them."""


#: Every observation point of the interface, in declaration order.
HOOK_METHODS = (
    "on_region",
    "on_write_fault",
    "on_acquire",
    "on_release",
    "on_barrier_enter",
    "on_barrier_exit",
    "on_sync_applied",
    "on_release_done",
    "on_assume_disjoint",
)


def _noop(*_args: Any) -> None:
    """Shared per-method no-op for collapsed composite slots."""


def _fanout(impls: List[Any]):
    def call(*args: Any) -> None:
        for m in impls:
            m(*args)

    return call


class CompositeHooks(Hooks):
    """Fan every callback out to an ordered list of hooks.

    The fan-out is *collapsed at wire-up time*, not dispatched per
    call: for each observation point, :meth:`_collapse` binds an
    instance attribute that is the shared no-op (nobody overrides it),
    the single overriding hook's bound method (no extra frame), or a
    closure over the overriding subset.  ``on_region`` fires for every
    shared access of an instrumented run, so skipping hooks that left a
    method as the base-class no-op matters.  Mutate :attr:`hooks`
    through :meth:`add` so the collapsed slots stay in sync.
    """

    def __init__(self, hooks: List[Hooks]):
        self.hooks = list(hooks)
        self._collapse()

    def add(self, *hooks: Hooks) -> None:
        """Append ``hooks`` and refresh the collapsed dispatch slots."""
        self.hooks.extend(hooks)
        self._collapse()

    def _collapse(self) -> None:
        for name in HOOK_METHODS:
            base = getattr(Hooks, name)
            impls = []
            for h in self.hooks:
                m = getattr(h, name)
                if m is _noop:
                    continue
                if getattr(m, "__func__", m) is not base:
                    impls.append(m)
            if not impls:
                setattr(self, name, _noop)
            elif len(impls) == 1:
                setattr(self, name, impls[0])
            else:
                setattr(self, name, _fanout(impls))


def add_hooks(machine, *hooks: Hooks) -> None:
    """Install ``hooks`` on ``machine`` in order, composing with existing
    hooks; a composite is collapsed once per call, however many hooks
    it installs."""
    if not hooks:
        return
    current = machine.hooks
    if current is None and len(hooks) == 1:
        machine.hooks = hooks[0]
    elif isinstance(current, CompositeHooks):
        current.add(*hooks)
    else:
        machine.hooks = CompositeHooks(
            ([] if current is None else [current]) + list(hooks)
        )
