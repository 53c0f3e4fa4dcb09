"""AST -> CFG front end for generator-based DSM app programs.

App programs are Python generators written against the
``runtime/dsm.py`` API: every shared-memory access and synchronization
operation is a ``yield from dsm.<op>(...)``.  This module parses an
:class:`~repro.apps.base.Application` subclass and builds a control
flow graph of its ``program`` method with DSM operations as leaf
nodes, **inlining** interprocedural structure the apps actually use:

* ``yield from self.helper(...)`` -- generator methods, resolved
  through the class MRO;
* ``yield from f(...)`` -- locally defined generator functions and
  generator-valued parameters (the higher-order ``do_task`` /
  ``tasks_of`` style of volrend and raytrace);
* ``return self.helper(...)`` inside an inlined function -- plain
  return of a generator object, which ``yield from`` then drains.

The CFG deliberately models the *same* bug class SIM007 lints for: a
generator called without ``yield from`` contributes no operations, so
a dropped call simply never reaches :meth:`_yield_from`.

The builder is tolerant: constructs it cannot resolve become
``unknown`` op nodes, surfaced later as ANA107 (analysis incomplete)
findings rather than crashes.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.analyze.core import Finding

#: dsm methods that touch shared memory -> access kind
DSM_ACCESS = {"read": "r", "touch_read": "r", "write": "w", "touch_write": "w"}
#: dsm methods that synchronize
DSM_SYNC = ("acquire", "release", "barrier")
#: dsm methods with no analysis-relevant effect
DSM_NEUTRAL = ("compute",)

#: inlining limits -- generous for the app corpus, a backstop for
#: pathological inputs
MAX_INLINE_DEPTH = 12


@dataclass
class OpNode:
    """A leaf DSM operation in the CFG."""

    kind: str  # 'r' | 'w' | 'acquire' | 'release' | 'barrier' | 'compute' | 'unknown'
    file: str
    line: int
    end_line: int
    func_src: str  # e.g. 'dsm.touch_write'
    args_src: Tuple[str, ...]
    disjoint: Tuple[str, ...] = ()  # active assume_disjoint reasons ('?'-prefix = conditional)
    rank_dep: bool = False  # under a rank-dependent branch
    chain: Tuple[str, ...] = ()  # inline call chain ('program', '_render_task', ...)

    @property
    def addr_src(self) -> str:
        return self.args_src[0] if self.args_src else "?"

    @property
    def size_src(self) -> str:
        if self.kind in ("r", "w") and len(self.args_src) > 1:
            if self.func_src.endswith(".write"):
                return f"len({self.args_src[1]})"
            return self.args_src[1]
        return "?"


class Node:
    """One CFG node; ``op`` is None for junctions (entry/joins/loops)."""

    __slots__ = ("id", "op", "succs", "preds")

    def __init__(self, nid: int, op: Optional[OpNode] = None):
        self.id = nid
        self.op = op
        self.succs: List[int] = []
        self.preds: List[int] = []


@dataclass
class Cfg:
    """CFG of one app's ``program`` with DSM ops as leaves."""

    app: str
    nodes: List[Node] = field(default_factory=list)
    entry: int = 0
    #: (file, line, reason, conditional) of every assume_disjoint scope
    disjoint_sites: List[Tuple[str, int, str, bool]] = field(default_factory=list)
    #: structural findings discovered during the build (ANA102/ANA107)
    findings: List[Finding] = field(default_factory=list)

    def ops(self) -> List[OpNode]:
        return [n.op for n in self.nodes if n.op is not None]

    def finish(self) -> "Cfg":
        for n in self.nodes:
            for s in n.succs:
                self.nodes[s].preds.append(n.id)
        return self


class _Ctx:
    """Per-inline-frame naming environment."""

    __slots__ = ("file", "dsm_names", "rank_names", "self_names", "env",
                 "local_defs", "chain", "fn", "_returns")

    def __init__(self, file, dsm_names, rank_names, self_names, env,
                 local_defs, chain, fn):
        self._returns: Optional[List[int]] = None
        self.file = file
        self.dsm_names: Set[str] = dsm_names
        self.rank_names: Set[str] = rank_names
        self.self_names: Set[str] = self_names
        #: function-valued bindings: name -> ('method', mname) | ('def', node, ctx)
        self.env: Dict[str, tuple] = env
        self.local_defs: Dict[str, ast.FunctionDef] = local_defs
        self.chain: Tuple[str, ...] = chain
        self.fn: ast.FunctionDef = fn


class _LoopFrame:
    __slots__ = ("head", "breaks")

    def __init__(self, head: int):
        self.head = head
        self.breaks: List[int] = []


_WORD = re.compile(r"\b({})\b")


def _mentions(src: str, names: Set[str]) -> bool:
    if not names:
        return False
    pat = _WORD.pattern.format("|".join(re.escape(n) for n in sorted(names)))
    return re.search(pat, src) is not None


def _src(node: ast.AST) -> str:
    try:
        return ast.unparse(node)
    except Exception:
        return "<?>"


class CfgBuilder:
    """Builds the program CFG for one Application subclass."""

    def __init__(self, app_cls: type):
        self.app_cls = app_cls
        self._source_cache: Dict[str, Tuple[str, ast.Module]] = {}
        #: method name -> (FunctionDef, defining file), first MRO match wins
        self.methods: Dict[str, Tuple[ast.FunctionDef, str]] = {}
        for cls in app_cls.__mro__:
            mod = sys.modules.get(cls.__module__)
            file = getattr(mod, "__file__", None)
            if file is None:
                continue
            tree = self._module_tree(file)
            if tree is None:
                continue
            for st in ast.walk(tree):
                if isinstance(st, ast.ClassDef) and st.name == cls.__name__:
                    for item in st.body:
                        if isinstance(item, ast.FunctionDef):
                            self.methods.setdefault(item.name, (item, file))
                    break

    def _module_tree(self, file: str) -> Optional[ast.Module]:
        if file not in self._source_cache:
            try:
                source = Path(file).read_text()
                self._source_cache[file] = (source, ast.parse(source, filename=file))
            except (OSError, SyntaxError):
                self._source_cache[file] = ("", None)  # type: ignore[assignment]
        return self._source_cache[file][1]

    # -- graph plumbing ------------------------------------------------

    def build(self) -> Cfg:
        self.cfg = Cfg(app=getattr(self.app_cls, "name", self.app_cls.__name__))
        self.cfg.nodes.append(Node(0))  # entry junction
        if "program" not in self.methods:
            self.cfg.findings.append(
                Finding("<none>", 0, "ANA107",
                        f"{self.app_cls.__name__} has no program method source"))
            return self.cfg.finish()
        fn, file = self.methods["program"]
        params = [a.arg for a in fn.args.args]
        # program(self, dsm, rank, nprocs)
        ctx = _Ctx(
            file=file,
            dsm_names={params[1]} if len(params) > 1 else {"dsm"},
            rank_names={params[2]} if len(params) > 2 else {"rank"},
            self_names={params[0]} if params else {"self"},
            env={},
            local_defs={},
            chain=("program",),
            fn=fn,
        )
        exits = self._emit_stmts(fn.body, ctx, [0], [], (), 0, set())
        del exits  # program end; nothing to connect
        return self.cfg.finish()

    def _new_node(self, frontier: List[int], op: Optional[OpNode] = None) -> int:
        nid = len(self.cfg.nodes)
        node = Node(nid, op)
        self.cfg.nodes.append(node)
        for f in frontier:
            self.cfg.nodes[f].succs.append(nid)
        return nid

    # -- statement emission --------------------------------------------

    def _emit_stmts(
        self,
        stmts: List[ast.stmt],
        ctx: _Ctx,
        frontier: List[int],
        loops: List[_LoopFrame],
        disjoint: Tuple[str, ...],
        rank_cond: int,
        inline_stack: Set[str],
    ) -> List[int]:
        for st in stmts:
            if not frontier:
                break  # unreachable after break/continue/raise
            if isinstance(st, ast.FunctionDef):
                ctx.local_defs[st.name] = st
            elif isinstance(st, ast.Expr) and isinstance(st.value, ast.YieldFrom):
                frontier = self._emit_yield_from(
                    st.value, st, ctx, frontier, loops, disjoint, rank_cond,
                    inline_stack)
            elif (isinstance(st, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                  and isinstance(getattr(st, "value", None), ast.YieldFrom)):
                frontier = self._emit_yield_from(
                    st.value, st, ctx, frontier, loops, disjoint, rank_cond,
                    inline_stack)
            elif isinstance(st, ast.If):
                test = _src(st.test)
                rc = rank_cond + (1 if _mentions(test, ctx.rank_names) else 0)
                body_f = self._emit_stmts(
                    st.body, ctx, list(frontier), loops, disjoint, rc,
                    inline_stack)
                else_f = self._emit_stmts(
                    st.orelse, ctx, list(frontier), loops, disjoint, rc,
                    inline_stack) if st.orelse else list(frontier)
                frontier = body_f + else_f
            elif isinstance(st, (ast.For, ast.While)):
                head = self._new_node(frontier)
                frame = _LoopFrame(head)
                loops.append(frame)
                body_f = self._emit_stmts(
                    st.body, ctx, [head], loops, disjoint, rank_cond,
                    inline_stack)
                loops.pop()
                for f in body_f:  # back edge
                    self.cfg.nodes[f].succs.append(head)
                frontier = [head] + frame.breaks
                if st.orelse:
                    frontier = self._emit_stmts(
                        st.orelse, ctx, frontier, loops, disjoint, rank_cond,
                        inline_stack)
            elif isinstance(st, ast.With):
                frontier = self._emit_with(
                    st, ctx, frontier, loops, disjoint, rank_cond, inline_stack)
            elif isinstance(st, ast.Break):
                if loops:
                    loops[-1].breaks.extend(frontier)
                frontier = []
            elif isinstance(st, ast.Continue):
                if loops:
                    for f in frontier:
                        self.cfg.nodes[f].succs.append(loops[-1].head)
                frontier = []
            elif isinstance(st, ast.Return):
                frontier = self._emit_return(
                    st, ctx, frontier, loops, disjoint, rank_cond, inline_stack)
                if ctx._returns is not None:
                    ctx._returns.extend(frontier)
                frontier = []
            elif isinstance(st, ast.Try):
                frontier = self._emit_stmts(
                    st.body, ctx, frontier, loops, disjoint, rank_cond,
                    inline_stack)
                for handler in st.handlers:
                    frontier += self._emit_stmts(
                        handler.body, ctx, list(frontier), loops, disjoint,
                        rank_cond, inline_stack)
                if st.finalbody:
                    frontier = self._emit_stmts(
                        st.finalbody, ctx, frontier, loops, disjoint,
                        rank_cond, inline_stack)
            elif isinstance(st, ast.Raise):
                frontier = []
            # plain statements (assignments, expressions, asserts...)
            # carry no DSM operations; fall through with same frontier
        return frontier

    # -- with / assume_disjoint ----------------------------------------

    def _disjoint_reason(self, call: ast.Call) -> str:
        if call.args and isinstance(call.args[0], ast.Constant):
            return str(call.args[0].value)
        return _src(call)

    def _find_conditional_disjoint(self, ctx: _Ctx, name: str) -> Optional[str]:
        """Reason string when ``name`` is assigned from an expression
        containing ``dsm.assume_disjoint(...)`` (the barnes
        ``ctx = nullcontext() if locked else dsm.assume_disjoint(...)``
        pattern)."""
        for st in ast.walk(ctx.fn):
            if isinstance(st, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in st.targets
            ):
                for sub in ast.walk(st.value):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr == "assume_disjoint"):
                        return self._disjoint_reason(sub)
        return None

    def _emit_with(self, st, ctx, frontier, loops, disjoint, rank_cond,
                   inline_stack) -> List[int]:
        new_disjoint = disjoint
        for item in st.items:
            expr = item.context_expr
            if (isinstance(expr, ast.Call)
                    and isinstance(expr.func, ast.Attribute)
                    and expr.func.attr == "assume_disjoint"
                    and isinstance(expr.func.value, ast.Name)
                    and expr.func.value.id in ctx.dsm_names):
                reason = self._disjoint_reason(expr)
                self.cfg.disjoint_sites.append((ctx.file, st.lineno, reason, False))
                new_disjoint = new_disjoint + (reason,)
            elif isinstance(expr, ast.Name):
                reason = self._find_conditional_disjoint(ctx, expr.id)
                if reason is not None:
                    self.cfg.disjoint_sites.append((ctx.file, st.lineno, reason, True))
                    new_disjoint = new_disjoint + ("?" + reason,)
        return self._emit_stmts(st.body, ctx, frontier, loops, new_disjoint,
                                rank_cond, inline_stack)

    # -- yield from ----------------------------------------------------

    def _op(self, kind, call_or_stmt, ctx, frontier, disjoint, rank_cond,
            func_src, args_src) -> List[int]:
        node = call_or_stmt
        op = OpNode(
            kind=kind,
            file=ctx.file,
            line=node.lineno,
            end_line=getattr(node, "end_lineno", node.lineno) or node.lineno,
            func_src=func_src,
            args_src=tuple(args_src),
            disjoint=disjoint,
            rank_dep=(kind == "barrier" and rank_cond > 0),
            chain=ctx.chain,
        )
        if op.rank_dep:
            self.cfg.findings.append(Finding(
                ctx.file, node.lineno, "ANA102",
                f"barrier {func_src}({', '.join(args_src)}) executed only "
                "under a rank-dependent condition; ranks will disagree on "
                "the barrier sequence (phase skew)",
            ))
        if kind == "unknown":
            self.cfg.findings.append(Finding(
                ctx.file, node.lineno, "ANA107",
                f"cannot resolve `yield from {func_src}(...)` to a DSM "
                "operation or an inlinable generator; its accesses are "
                "invisible to the analysis",
            ))
        return [self._new_node(frontier, op)]

    def _emit_yield_from(self, yf: ast.YieldFrom, stmt, ctx, frontier, loops,
                         disjoint, rank_cond, inline_stack) -> List[int]:
        call = yf.value
        if not isinstance(call, ast.Call):
            return self._op("unknown", stmt, ctx, frontier, disjoint,
                            rank_cond, _src(call), ())
        return self._emit_call(call, stmt, ctx, frontier, loops, disjoint,
                               rank_cond, inline_stack)

    def _emit_call(self, call: ast.Call, stmt, ctx, frontier, loops, disjoint,
                   rank_cond, inline_stack) -> List[int]:
        func = call.func
        args_src = [_src(a) for a in call.args]
        func_src = _src(func)
        # dsm.<op>(...)
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ctx.dsm_names):
            attr = func.attr
            if attr in DSM_ACCESS:
                return self._op(DSM_ACCESS[attr], stmt, ctx, frontier,
                                disjoint, rank_cond, func_src, args_src)
            if attr in DSM_SYNC:
                return self._op(attr, stmt, ctx, frontier, disjoint,
                                rank_cond, func_src, args_src)
            if attr in DSM_NEUTRAL:
                return self._op("compute", stmt, ctx, frontier, disjoint,
                                rank_cond, func_src, args_src)
            return self._op("unknown", stmt, ctx, frontier, disjoint,
                            rank_cond, func_src, args_src)
        # self.helper(...) or f(...) for a local/param-bound generator.
        # A local def is a closure over its defining frame, so inline
        # it with that frame's naming environment (minus shadowed
        # params) -- this is how `dsm` and `self` resolve inside the
        # volrend/raytrace task functions.
        target: Optional[Tuple[ast.FunctionDef, str]] = None
        closure: Optional[_Ctx] = None
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ctx.self_names):
            target = self.methods.get(func.attr)
        elif isinstance(func, ast.Name):
            if func.id in ctx.local_defs:
                target = (ctx.local_defs[func.id], ctx.file)
                closure = ctx
            elif func.id in ctx.env:
                bound = ctx.env[func.id]
                if bound[0] == "method":
                    target = self.methods.get(bound[1])
                else:  # ('def', node, defining_ctx)
                    target = (bound[1], bound[2].file)
                    closure = bound[2]
        if target is None:
            return self._op("unknown", stmt, ctx, frontier, disjoint,
                            rank_cond, func_src, tuple(args_src))
        return self._inline(target[0], target[1], call, stmt, ctx, frontier,
                            loops, disjoint, rank_cond, inline_stack,
                            closure=closure)

    def _binding_for(self, arg: ast.AST, ctx: _Ctx) -> Optional[tuple]:
        """A function-valued binding for a call argument, if static."""
        if isinstance(arg, ast.Name):
            if arg.id in ctx.local_defs:
                return ("def", ctx.local_defs[arg.id], ctx)
            if arg.id in ctx.env:
                return ctx.env[arg.id]
        if (isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id in ctx.self_names
                and arg.attr in self.methods):
            return ("method", arg.attr)
        return None

    def _inline(self, fn: ast.FunctionDef, file: str, call: ast.Call, stmt,
                ctx: _Ctx, frontier, loops, disjoint, rank_cond,
                inline_stack, closure: Optional[_Ctx] = None) -> List[int]:
        key = f"{file}:{fn.lineno}:{fn.name}"
        if key in inline_stack or len(ctx.chain) >= MAX_INLINE_DEPTH:
            return self._op("unknown", stmt, ctx, frontier, disjoint,
                            rank_cond, _src(call.func) + " [recursive]", ())
        params = [a.arg for a in fn.args.args]
        is_method = bool(params) and params[0] == "self"
        formal = params[1:] if is_method else params
        if closure is not None:
            # a local def sees its defining frame's names (dsm, rank,
            # self, sibling defs) except where its own params shadow them
            shadow = set(params)
            dsm_names = closure.dsm_names - shadow
            rank_names = closure.rank_names - shadow
            self_names = (closure.self_names - shadow) | (
                {"self"} if is_method else set())
            env = {k: v for k, v in closure.env.items() if k not in shadow}
            local_defs = {k: v for k, v in closure.local_defs.items()
                          if k not in shadow}
        else:
            dsm_names = set()
            rank_names = set()
            self_names = {"self"} if is_method else set()
            env = {}
            local_defs = {}
        actuals: List[Tuple[str, ast.AST]] = list(zip(formal, call.args))
        actuals += [(kw.arg, kw.value) for kw in call.keywords if kw.arg]
        for name, arg in actuals:
            if isinstance(arg, ast.Name):
                if arg.id in ctx.dsm_names:
                    dsm_names.add(name)
                if arg.id in ctx.rank_names:
                    rank_names.add(name)
            binding = self._binding_for(arg, ctx)
            if binding is not None:
                env[name] = binding
        inner = _Ctx(
            file=file,
            dsm_names=dsm_names,
            rank_names=rank_names,
            self_names=self_names,
            env=env,
            local_defs=local_defs,
            chain=ctx.chain + (fn.name,),
            fn=fn,
        )
        inner._returns = []  # type: ignore[attr-defined]
        out = self._emit_stmts(fn.body, inner, frontier, loops, disjoint,
                               rank_cond, inline_stack | {key})
        return out + inner._returns  # type: ignore[attr-defined]

    def _emit_return(self, st: ast.Return, ctx, frontier, loops, disjoint,
                     rank_cond, inline_stack) -> List[int]:
        """``return self.helper(...)`` inside an inlined generator: the
        caller's ``yield from`` drains the returned generator, so
        inline it too.  A bare return just ends the frame."""
        if isinstance(st.value, ast.Call):
            return self._emit_call(st.value, st, ctx, frontier, loops,
                                   disjoint, rank_cond, inline_stack)
        return frontier
