#!/usr/bin/env python3
"""Simulator-specific AST lint (the repro.check static pass).

General-purpose linters cannot know this codebase's discrete-event
rules, so this tool checks the conventions that keep the simulation
deterministic and the protocol engine sound:

* **SIM001** -- wall-clock time (``time.time``/``monotonic``/
  ``perf_counter``, ``datetime.now``/``utcnow``) inside simulation
  packages.  Simulated code must read ``engine.now``; wall-clock reads
  make runs host-dependent.  Host-side packages (``exec``, ``harness``,
  ``analysis``, ``analyze``) are exempt -- timeouts and progress
  reporting are their job.
* **SIM002** -- unseeded randomness (module-level ``random.*`` /
  ``numpy.random.*`` calls, or ``random.Random()`` /
  ``default_rng()`` / ``RandomState()`` without a seed argument)
  inside simulation packages.  Anything stochastic must derive from an
  explicit seed or the runs are not reproducible.
* **SIM003** -- ``yield from self.NAME(...)`` where ``NAME`` is a
  method of the same class that contains no ``yield``.  Delegating to
  a non-generator raises ``TypeError`` only when the call is actually
  reached, so these bugs hide in rarely-taken branches.  Methods that
  only ``raise`` (abstract stubs) are exempt: subclasses override them
  with real generators.
* **SIM004** -- a ``_h_*`` message handler containing ``yield``.
  Handlers are dispatched as plain calls from the protocol engine
  (``core/protocol.py``); a generator handler would be created and
  silently never run.
* **SIM005** -- touching a private attribute of an engine object
  (``engine._queue``, ``self.engine._now``, ...) outside
  ``sim/engine.py``.  The engine's public surface (``now``,
  ``schedule``, ``run``...) is the contract; reaching into its state
  breaks when the event-loop internals change.
* **SIM006** -- iterating over an unordered collection where the order
  can feed event scheduling.  Flagged unconditionally for ``set`` /
  ``frozenset`` values (literals, comprehensions, ``set()`` calls,
  attributes assigned or annotated as sets, and entries of
  ``Dict[..., Set[...]]`` attributes): set order is a function of hash
  seeding and insertion history, so two code paths that build the same
  logical set can schedule events in different orders -- which breaks
  replay-based exploration (``repro.mc``) and golden-stats runs.
  ``dict.values()/.items()/.keys()`` views are insertion-ordered and
  only flagged when the loop body sends messages or schedules events
  directly: the order is then a hidden dependency on arrival history.
  The fix is an explicit order (``sorted(...)``); iteration wrapped in
  ``sorted()`` or consumed by order-insensitive reducers
  (``sum``/``len``/``min``/``max``/``any``/``all``/``set``) is exempt.
* **SIM007** -- calling a generator-returning helper as a bare
  statement, without ``yield from``: ``self.NAME(...)`` where ``NAME``
  is a generator method, a bare call to a local generator function, or
  a discarded ``dsm.<op>(...)`` from the app/runtime API.  The call
  builds a generator and throws it away, so every simulated effect
  inside it (accesses, waits, protocol traffic) silently never
  happens.  The ``repro.analyze`` run cannot see it either: a dropped
  generator contributes no footprint.
* **SIM008** -- replacing another object's message seam or scheduler
  (assigning, or ``setattr``-ing, ``send``, ``_deliver``, ``post``,
  ``schedule`` or ``schedule_at`` on anything but ``self``) anywhere in
  the ``repro`` package.  Observers subscribe through ``repro.hooks``
  (``on_send``, ``on_deliver``, ...); a patch is a second observation
  path that the hooks' composition cannot see and that breaks when the
  wiring behind the seam changes.

The AST/visitor/noqa/reporting core is shared with the static labeling
checker in ``repro.analyze`` (see ``repro/analyze/core.py``); both
tools use the same ``Finding`` type and ``# noqa`` syntax.

Suppress a finding with ``# noqa`` or ``# noqa: SIM00x`` on the line.

Usage: ``python tools/lint_sim.py [paths...]`` (default: ``src/repro``
and ``tools``).  Exits 1 if anything is flagged.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import List, Optional, Tuple

try:
    from repro.analyze.core import (
        Finding,
        contains_yield,
        dotted,
        filter_noqa,
        is_abstract_stub,
        parse_source,
        run_lint,
    )
    from repro.analyze.core import ann_head as _ann_head
except ImportError:  # running as a script without the package installed
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from repro.analyze.core import (
        Finding,
        contains_yield,
        dotted,
        filter_noqa,
        is_abstract_stub,
        parse_source,
        run_lint,
    )
    from repro.analyze.core import ann_head as _ann_head

#: repro subpackages whose code runs *inside* the simulation -- the
#: determinism rules (SIM001/SIM002) apply only here
SIM_PACKAGES = (
    "repro/sim", "repro/core", "repro/runtime", "repro/sync",
    "repro/cluster", "repro/memory", "repro/net", "repro/apps",
    "repro/stats", "repro/check", "repro/mc",
)

#: wall-clock reads (module attr -> function names)
WALL_CLOCK = {
    "time": {"time", "monotonic", "perf_counter", "time_ns",
             "monotonic_ns", "perf_counter_ns"},
    "datetime": {"now", "utcnow", "today"},
}

#: seeded-generator constructors: fine *with* a seed argument
SEEDED_CTORS = {"Random", "default_rng", "RandomState"}

#: SIM006: annotations that mean "this is a set"
SET_ANN = {"Set", "FrozenSet", "MutableSet", "set", "frozenset"}
#: SIM006: annotations that mean "this is a dict"
DICT_ANN = {"Dict", "DefaultDict", "dict", "defaultdict"}
#: SIM006: consuming calls for which iteration order cannot matter
ORDER_FREE = {"sum", "len", "min", "max", "any", "all", "set",
              "frozenset", "sorted"}
#: SIM006: calls in a loop body that mean "this loop schedules events"
SCHEDULING_CALLS = {"send", "schedule", "call_soon", "post",
                    "send_message", "deliver", "broadcast"}

#: SIM008: seams only their owner may rebind: the machine's message
#: entry and delivery points and the engine's schedulers
SEAM_ATTRS = {"send", "_deliver", "post", "schedule", "schedule_at"}

#: SIM007: generator methods of the runtime Dsm API -- a bare
#: ``dsm.<op>(...)`` statement drops the generator and its effects
DSM_GEN_API = {
    "read", "write", "touch_read", "touch_write", "compute",
    "acquire", "release", "barrier",
}


def _ann_value_is_set(node: ast.AST) -> bool:
    """True for ``Dict[..., Set[...]]``-shaped annotations."""
    if not isinstance(node, ast.Subscript):
        return False
    sl = node.slice
    return (
        isinstance(sl, ast.Tuple)
        and len(sl.elts) == 2
        and _ann_head(sl.elts[1]) in SET_ANN
    )


def _is_set_value(node: ast.AST) -> bool:
    """An expression that definitely builds a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _dictview_call(node: ast.AST) -> Optional[str]:
    """'values'/'items'/'keys' when node is that zero-arg method call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "items", "keys")
        and not node.args
        and not node.keywords
    ):
        return node.func.attr
    return None


def _body_scheduling_call(body: List[ast.AST]) -> Optional[str]:
    """Name of the first event-scheduling call in a loop body, if any."""
    for st in body:
        for sub in ast.walk(st):
            if isinstance(sub, ast.Call) and isinstance(
                sub.func, ast.Attribute
            ) and sub.func.attr in SCHEDULING_CALLS:
                return sub.func.attr
    return None


def _class_set_attrs(node: ast.ClassDef) -> Tuple[set, set]:
    """Attribute names assigned/annotated as sets, and as dicts-of-sets."""
    set_attrs: set = set()
    dictset_attrs: set = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Assign) and len(sub.targets) == 1:
            tgt, val, ann = sub.targets[0], sub.value, None
        elif isinstance(sub, ast.AnnAssign):
            tgt, val, ann = sub.target, sub.value, sub.annotation
        else:
            continue
        if not (
            isinstance(tgt, ast.Attribute)
            and isinstance(tgt.value, ast.Name)
            and tgt.value.id == "self"
        ):
            continue
        if ann is not None:
            head = _ann_head(ann)
            if head in SET_ANN:
                set_attrs.add(tgt.attr)
            elif head in DICT_ANN and _ann_value_is_set(ann):
                dictset_attrs.add(tgt.attr)
        if val is not None and _is_set_value(val):
            set_attrs.add(tgt.attr)
    return set_attrs, dictset_attrs


def _foreign_seam(attr: str, owner: ast.AST) -> bool:
    """True when ``owner.attr`` names a seam on an object that is not
    ``self``."""
    return attr in SEAM_ATTRS and not (
        isinstance(owner, ast.Name) and owner.id == "self"
    )


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path, in_sim: bool, is_engine: bool,
                 in_package: bool):
        self.path = path
        self.in_sim = in_sim
        self.is_engine = is_engine
        self.in_package = in_package
        self.findings: List[Finding] = []
        #: (class node, {method name: def node}, set attrs, dict-of-set
        #: attrs) stack
        self._class_stack: List[Tuple[ast.ClassDef, dict, set, set]] = []
        #: per enclosing function: {name: local def node} (SIM007)
        self._func_stack: List[dict] = []
        #: comprehensions consumed by order-insensitive reducers
        self._order_free: set = set()

    def flag(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, code, message))

    # -- class / method context ----------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            st.name: st
            for st in node.body
            if isinstance(st, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        set_attrs, dictset_attrs = _class_set_attrs(node)
        self._class_stack.append((node, methods, set_attrs, dictset_attrs))
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name.startswith("_h_") and contains_yield(node):
            self.flag(
                node, "SIM004",
                f"message handler {node.name} contains yield; handlers "
                "are plain calls -- a generator handler never runs",
            )
        local_defs = {
            st.name: st
            for st in ast.walk(node)
            if isinstance(st, ast.FunctionDef) and st is not node
        }
        self._func_stack.append(local_defs)
        self.generic_visit(node)
        self._func_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    # -- SIM003: yield from self.<non-generator>() ---------------------
    def visit_YieldFrom(self, node: ast.YieldFrom) -> None:
        call = node.value
        if (
            self._class_stack
            and isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id == "self"
        ):
            target = self._class_stack[-1][1].get(call.func.attr)
            if (
                target is not None
                and isinstance(target, ast.FunctionDef)
                and not contains_yield(target)
                and not is_abstract_stub(target)
            ):
                self.flag(
                    node, "SIM003",
                    f"yield from self.{call.func.attr}(...) but "
                    f"{call.func.attr} (line {target.lineno}) never "
                    "yields -- not a generator",
                )
        self.generic_visit(node)

    # -- SIM007: generator called without yield from -------------------
    def visit_Expr(self, node: ast.Expr) -> None:
        call = node.value
        if isinstance(call, ast.Call):
            self._check_dropped_generator(node, call)
        self.generic_visit(node)

    def _check_dropped_generator(self, stmt: ast.Expr, call: ast.Call) -> None:
        """A bare-statement call that builds and discards a generator."""
        func = call.func
        # self.NAME(...) where NAME is a generator method of this class
        if (
            self._class_stack
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            target = self._class_stack[-1][1].get(func.attr)
            if (
                target is not None
                and isinstance(target, ast.FunctionDef)
                and contains_yield(target)
            ):
                self.flag(
                    stmt, "SIM007",
                    f"self.{func.attr}(...) called without yield from but "
                    f"{func.attr} (line {target.lineno}) is a generator -- "
                    "its simulated effects are silently dropped",
                )
            return
        # dsm.<op>(...) from the runtime app API
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "dsm"
            and func.attr in DSM_GEN_API
        ):
            self.flag(
                stmt, "SIM007",
                f"dsm.{func.attr}(...) called without yield from; the "
                "operation's simulated effects are silently dropped",
            )
            return
        # NAME(...) where NAME is a local generator function
        if isinstance(func, ast.Name):
            for scope in reversed(self._func_stack):
                target = scope.get(func.id)
                if target is not None:
                    if contains_yield(target):
                        self.flag(
                            stmt, "SIM007",
                            f"{func.id}(...) called without yield from but "
                            f"{func.id} (line {target.lineno}) is a "
                            "generator -- its simulated effects are "
                            "silently dropped",
                        )
                    return

    # -- SIM008: patching another object's seam ------------------------
    def _check_seam_targets(self, targets: List[ast.AST]) -> None:
        for tgt in targets:
            if isinstance(tgt, (ast.Tuple, ast.List)):
                self._check_seam_targets(tgt.elts)
            elif isinstance(tgt, ast.Attribute) and _foreign_seam(
                tgt.attr, tgt.value
            ):
                self._flag_seam(tgt, dotted(tgt) or tgt.attr)

    def _flag_seam(self, node: ast.AST, what: str) -> None:
        self.flag(
            node, "SIM008",
            f"assignment to {what} replaces another object's seam; "
            "observe through repro.hooks instead of patching",
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.in_package:
            self._check_seam_targets(node.targets)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self.in_package:
            self._check_seam_targets([node.target])
        self.generic_visit(node)

    # -- SIM001 / SIM002: calls ----------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = dotted(node.func)
        if name and self.in_sim:
            self._check_wall_clock(node, name)
            self._check_random(node, name)
        if (
            self.in_package
            and name == "setattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
            and _foreign_seam(node.args[1].value, node.args[0])
        ):
            self._flag_seam(node, f"setattr(..., {node.args[1].value!r})")
        if name and name.split(".")[-1] in ORDER_FREE:
            for arg in node.args:
                if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
                    self._order_free.add(id(arg))
        self.generic_visit(node)

    def _check_wall_clock(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if len(parts) >= 2 and parts[-2] in WALL_CLOCK:
            if parts[-1] in WALL_CLOCK[parts[-2]]:
                self.flag(
                    node, "SIM001",
                    f"wall-clock read {name}() in simulation code; "
                    "use engine.now",
                )

    def _check_random(self, node: ast.Call, name: str) -> None:
        parts = name.split(".")
        if len(parts) < 2 or "random" not in parts[:-1]:
            return
        tail = parts[-1]
        if tail == "seed":
            return  # explicit seeding is the fix, not the bug
        if tail in SEEDED_CTORS:
            if not node.args and not node.keywords:
                self.flag(
                    node, "SIM002",
                    f"{name}() without a seed in simulation code",
                )
            return
        self.flag(
            node, "SIM002",
            f"module-level {name}() shares unseeded global state; "
            "use a seeded generator",
        )

    # -- SIM006: unordered iteration -----------------------------------
    def _attr_kind(self, node: ast.AST) -> Optional[str]:
        """'set'/'dictset' when node is a known self attribute."""
        if not (
            self._class_stack
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return None
        _, _, set_attrs, dictset_attrs = self._class_stack[-1]
        if node.attr in set_attrs:
            return "set"
        if node.attr in dictset_attrs:
            return "dictset"
        return None

    def _set_iter_reason(self, it: ast.AST) -> Optional[str]:
        """Why iterating `it` has no defined order, or None."""
        if _is_set_value(it):
            return "a set expression"
        if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
            if it.func.attr == "get" and self._attr_kind(
                it.func.value
            ) == "dictset":
                return f"set-valued entry of self.{it.func.value.attr}"
            return None
        if isinstance(it, ast.Subscript) and self._attr_kind(
            it.value
        ) == "dictset":
            return f"set-valued entry of self.{it.value.attr}"
        if self._attr_kind(it) == "set":
            return f"set attribute self.{it.attr}"
        return None

    def _check_unordered_iter(
        self, it: ast.AST, body: List[ast.AST], where: ast.AST
    ) -> None:
        if not self.in_sim:
            return
        reason = self._set_iter_reason(it)
        if reason is not None:
            self.flag(
                where, "SIM006",
                f"iteration over {reason}; set order depends on hashes "
                "and insertion history -- iterate sorted(...)",
            )
            return
        view = _dictview_call(it)
        if view is not None and body:
            call = _body_scheduling_call(body)
            if call is not None:
                self.flag(
                    where, "SIM006",
                    f"loop over .{view}() calls {call}(); event order "
                    "then depends on dict insertion history -- iterate "
                    "a sorted view",
                )

    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter, node.body, node)
        self.generic_visit(node)

    visit_AsyncFor = visit_For

    def _visit_comp(self, node) -> None:
        if id(node) not in self._order_free:
            for gen in node.generators:
                self._check_unordered_iter(gen.iter, [node.elt], node)
        self.generic_visit(node)

    visit_ListComp = _visit_comp
    visit_GeneratorExp = _visit_comp

    # -- SIM005: engine privates ---------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            not self.is_engine
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
        ):
            base = dotted(node.value)
            if base and base.split(".")[-1] == "engine":
                self.flag(
                    node, "SIM005",
                    f"access to engine private {base}.{node.attr}; "
                    "use the engine's public interface",
                )
        self.generic_visit(node)


def lint_file(path: Path) -> List[Finding]:
    path = Path(path)
    tree, source, err = parse_source(path)
    if err is not None:
        return [err]
    posix = path.as_posix()
    linter = _Linter(
        path,
        in_sim=any(p in posix for p in SIM_PACKAGES),
        is_engine=posix.endswith("repro/sim/engine.py"),
        in_package="repro/" in posix,
    )
    linter.visit(tree)
    return filter_noqa(linter.findings, source)


def main(argv: Optional[List[str]] = None) -> int:
    args = (argv if argv is not None else sys.argv[1:]) or ["src/repro", "tools"]
    return run_lint(args, lint_file, label="lint_sim")


if __name__ == "__main__":
    raise SystemExit(main())
