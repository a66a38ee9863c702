"""The flow-aware core of crowdlint: per-function CFG + reaching definitions.

PR-1 rules were purely syntactic — they looked at one node at a time.  The
CW2xx, CW3xx and CW5xx packs need to reason about *values*: is the thing
being iterated a ``set``?  is the haystack of this ``in`` test a ``list``?
does this ``time.time()`` result end up in returned data?  This module
answers those questions with three pieces:

* a **control-flow graph** per function (and one for the module body) built
  from the AST — basic blocks of statements with successor edges for
  ``if``/loops/``try``;
* classic **reaching definitions** over that CFG (gen/kill to a fixpoint on
  the shared :func:`~repro.devtools.solver.solve`, then a linear replay to
  get the definition set at the entry of every individual statement);
* **anchors** — each node's parent, enclosing function and statement, and
  the calls a module runs at import time.

The analysis is deliberately intraprocedural and conservative: when a name
has several reaching definitions a rule only gets a property (set-likeness,
list-ness, ...) if *every* definition agrees, and an unresolvable value
yields "don't know", which rules must treat as "don't flag".  Like the rest
of ``repro.devtools`` this is stdlib-only and never imports the code it
analyzes.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .solver import solve

__all__ = [
    "Definition",
    "FlowGraph",
    "ModuleFlow",
]


class Definition:
    """One binding of a name: where it happened and (if known) to what.

    ``kind`` is one of ``"assign"`` (``value`` is the RHS expression),
    ``"aug"`` (``value`` is the augmenting operand), ``"def"``/``"class"``
    (``value`` is the ``FunctionDef``/``ClassDef`` node itself), ``"import"``
    (``value`` is the ``Import``/``ImportFrom`` statement), or one of the
    opaque binders ``"param"``, ``"for"``, ``"with"``, ``"except"``,
    ``"unpack"``, ``"comp"`` (a comprehension target), ``"global"`` where
    the bound value is unknowable statically (``value`` is ``None``).

    Walrus assignments (``x := expr``) anywhere in a statement's expressions
    count as ``"assign"`` bindings of that statement — except inside nested
    ``lambda`` bodies, which are their own scope.
    """

    __slots__ = ("name", "kind", "value", "stmt")

    def __init__(self, name: str, kind: str, value: Optional[ast.AST], stmt: ast.stmt):
        self.name = name
        self.kind = kind
        self.value = value
        self.stmt = stmt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        line = getattr(self.stmt, "lineno", "?")
        return f"Definition({self.name!r}, {self.kind}, line {line})"


def _definitions_of(stmt: ast.stmt) -> List[Definition]:
    """The name bindings a single statement generates (its *gen* set)."""
    defs: List[Definition] = []

    def bind_target(target: ast.expr, kind: str, value: Optional[ast.AST]) -> None:
        if isinstance(target, ast.Name):
            defs.append(Definition(target.id, kind, value, stmt))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                bind_target(element, "unpack", None)
        elif isinstance(target, ast.Starred):
            bind_target(target.value, "unpack", None)
        # Attribute/Subscript targets bind no *name*.

    if isinstance(stmt, ast.Assign):
        single = len(stmt.targets) == 1
        for target in stmt.targets:
            bind_target(target, "assign" if single else "unpack",
                        stmt.value if single else None)
    elif isinstance(stmt, ast.AnnAssign):
        if stmt.value is not None:
            bind_target(stmt.target, "assign", stmt.value)
    elif isinstance(stmt, ast.AugAssign):
        bind_target(stmt.target, "aug", stmt.value)
    elif isinstance(stmt, (ast.For, ast.AsyncFor)):
        bind_target(stmt.target, "for", None)
    elif isinstance(stmt, (ast.With, ast.AsyncWith)):
        for item in stmt.items:
            if item.optional_vars is not None:
                bind_target(item.optional_vars, "with", None)
    elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
        for alias in stmt.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name.split(".")[0]
            defs.append(Definition(bound, "import", stmt, stmt))
    elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        defs.append(Definition(stmt.name, "def", stmt, stmt))
    elif isinstance(stmt, ast.ClassDef):
        defs.append(Definition(stmt.name, "class", stmt, stmt))
    elif isinstance(stmt, ast.Global):
        for name in stmt.names:
            defs.append(Definition(name, "global", None, stmt))
    # Walrus assignments bind in the enclosing function/module scope, even
    # from inside comprehensions (PEP 572) — but not from nested def/lambda
    # bodies, which are their own scope (and def/class statements only bind
    # their name here; their bodies are other graphs' business).
    if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        for walrus in _walrus_targets(stmt):
            defs.append(Definition(walrus.target.id, "assign", walrus.value, stmt))
    return defs


def _walrus_targets(node: ast.AST) -> Iterator[ast.NamedExpr]:
    """Every ``NamedExpr`` under ``node`` outside nested function scopes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.NamedExpr) and isinstance(child.target, ast.Name):
            yield child
        yield from _walrus_targets(child)


class _Block:
    """A basic block: a run of statements with successor edges."""

    __slots__ = ("index", "stmts", "succs")

    def __init__(self, index: int):
        self.index = index
        self.stmts: List[ast.stmt] = []
        self.succs: Set[int] = set()


class FlowGraph:
    """CFG + reaching definitions for one statement list (function or module).

    Nested function/class bodies are *not* descended into — each function
    gets its own :class:`FlowGraph` via :meth:`ModuleFlow.graph_for`; the
    enclosing graph only sees the ``def`` as a binding of its name.
    """

    def __init__(self, body: Sequence[ast.stmt], params: Sequence[str] = ()):
        self._blocks: List[_Block] = []
        #: Memoized gen sets — Definition identity is what makes the
        #: fixpoint comparison in ``_solve`` terminate.
        self._gen_cache: Dict[int, List[Definition]] = {}
        self._entry_defs: Dict[str, Set[Definition]] = {}
        for name in params:
            marker = ast.Pass()  # synthetic anchor; never looked up by stmt
            self._entry_defs[name] = {Definition(name, "param", None, marker)}
        self._loop_stack: List[Tuple[int, int]] = []  # (header, after) blocks
        entry = self._new_block()
        exits = self._build(list(body), entry)
        # A synthetic exit keeps the worklist simple; nothing reads it.
        exit_block = self._new_block()
        for block in exits:
            block.succs.add(exit_block.index)
        self._reach_in: Dict[int, Dict[str, Set[Definition]]] = {}
        self._solve()

    # ------------------------------------------------------- CFG construction

    def _new_block(self) -> _Block:
        block = _Block(len(self._blocks))
        self._blocks.append(block)
        return block

    def _build(self, body: List[ast.stmt], current: _Block) -> List[_Block]:
        """Append ``body`` after ``current``; return the open exit blocks."""
        open_blocks = [current]
        for stmt in body:
            # Every statement is anchored in exactly one block (branch/loop
            # headers live in the block where their test is evaluated).
            if len(open_blocks) != 1:
                joined = self._new_block()
                for block in open_blocks:
                    block.succs.add(joined.index)
                open_blocks = [joined]
            block = open_blocks[0]
            block.stmts.append(stmt)
            if isinstance(stmt, ast.If):
                then_entry = self._new_block()
                block.succs.add(then_entry.index)
                then_exits = self._build(stmt.body, then_entry)
                if stmt.orelse:
                    else_entry = self._new_block()
                    block.succs.add(else_entry.index)
                    else_exits = self._build(stmt.orelse, else_entry)
                else:
                    else_exits = [block]
                open_blocks = then_exits + else_exits
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                # The loop header gets its own block: the back edge must
                # re-enter at the test/target, not replay whatever straight-
                # line statements happened to precede the loop (those would
                # kill definitions flowing around the back edge).
                block.stmts.pop()
                header = self._new_block()
                header.stmts.append(stmt)
                block.succs.add(header.index)
                after = self._new_block()
                body_entry = self._new_block()
                header.succs.add(body_entry.index)
                header.succs.add(after.index)  # zero-iteration path
                self._loop_stack.append((header.index, after.index))
                body_exits = self._build(stmt.body, body_entry)
                self._loop_stack.pop()
                for exit_block in body_exits:
                    exit_block.succs.add(header.index)  # back edge
                if stmt.orelse:
                    else_entry = self._new_block()
                    header.succs.add(else_entry.index)
                    for exit_block in self._build(stmt.orelse, else_entry):
                        exit_block.succs.add(after.index)
                open_blocks = [after]
            elif isinstance(stmt, (ast.Try, getattr(ast, "TryStar", ast.Try))):
                # Pessimistic: the body may abort anywhere, so every handler
                # is reachable both from before and after the body.
                body_entry = self._new_block()
                block.succs.add(body_entry.index)
                body_exits = self._build(stmt.body, body_entry)
                tails: List[_Block] = []
                if stmt.orelse:
                    else_entry = self._new_block()
                    for exit_block in body_exits:
                        exit_block.succs.add(else_entry.index)
                    tails.extend(self._build(stmt.orelse, else_entry))
                else:
                    tails.extend(body_exits)
                for handler in stmt.handlers:
                    handler_entry = self._new_block()
                    block.succs.add(handler_entry.index)
                    for exit_block in body_exits:
                        exit_block.succs.add(handler_entry.index)
                    if handler.name:
                        # Anchor the ``except ... as name`` binding on the
                        # handler node itself (see ``_apply``).
                        handler_entry.stmts.append(handler)
                    tails.extend(self._build(handler.body, handler_entry))
                if stmt.finalbody:
                    final_entry = self._new_block()
                    for tail in tails:
                        tail.succs.add(final_entry.index)
                    tails = self._build(stmt.finalbody, final_entry)
                open_blocks = tails
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                body_entry = self._new_block()
                block.succs.add(body_entry.index)
                open_blocks = self._build(stmt.body, body_entry)
            elif isinstance(stmt, (ast.Return, ast.Raise)):
                open_blocks = [self._new_block()]  # dead fallthrough
            elif isinstance(stmt, ast.Break):
                if self._loop_stack:
                    block.succs.add(self._loop_stack[-1][1])
                open_blocks = [self._new_block()]
            elif isinstance(stmt, ast.Continue):
                if self._loop_stack:
                    block.succs.add(self._loop_stack[-1][0])
                open_blocks = [self._new_block()]
        return open_blocks

    # ------------------------------------------------- reaching definitions

    def _gen(self, stmt: ast.stmt) -> List[Definition]:
        cached = self._gen_cache.get(id(stmt))
        if cached is None:
            if isinstance(stmt, ast.ExceptHandler):  # synthetic handler anchor
                cached = (
                    [Definition(stmt.name, "except", None, stmt)]
                    if stmt.name
                    else []
                )
            else:
                cached = _definitions_of(stmt)
            self._gen_cache[id(stmt)] = cached
        return cached

    def _apply(self, defs: Dict[str, Set[Definition]], stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    defs.pop(target.id, None)
            return
        for definition in self._gen(stmt):
            if definition.kind == "global":
                # ``global x`` means later assignments hit module scope; for
                # lookup purposes the name now *has no local definition*, so
                # resolution falls through to module scope.
                defs.pop(definition.name, None)
            else:
                defs[definition.name] = {definition}

    def _solve(self) -> None:
        n = len(self._blocks)
        ins: List[Dict[str, Set[Definition]]] = [{} for _ in range(n)]
        outs: List[Dict[str, Set[Definition]]] = [{} for _ in range(n)]
        preds: List[Set[int]] = [set() for _ in range(n)]
        for block in self._blocks:
            for succ in block.succs:
                preds[succ].add(block.index)

        def update(index: int) -> bool:
            merged: Dict[str, Set[Definition]] = (
                {name: set(defs) for name, defs in self._entry_defs.items()}
                if index == 0
                else {}
            )
            for pred in preds[index]:
                for name, defs in outs[pred].items():
                    merged.setdefault(name, set()).update(defs)
            ins[index] = merged
            out: Dict[str, Set[Definition]] = {
                name: set(defs) for name, defs in merged.items()
            }
            for stmt in self._blocks[index].stmts:
                self._apply(out, stmt)
            if out == outs[index]:
                return False
            outs[index] = out
            return True

        solve(range(n), update, lambda index: self._blocks[index].succs)
        # Replay each block linearly to anchor a definition map on every
        # individual statement's entry.
        for block in self._blocks:
            state = {name: set(defs) for name, defs in ins[block.index].items()}
            for stmt in block.stmts:
                self._reach_in[id(stmt)] = {
                    name: set(defs) for name, defs in state.items()
                }
                self._apply(state, stmt)

    # ---------------------------------------------------------------- queries

    def knows(self, stmt: ast.stmt) -> bool:
        """Whether ``stmt`` is anchored in this graph."""
        return id(stmt) in self._reach_in

    def definitions_at(self, stmt: ast.stmt, name: str) -> Set[Definition]:
        """The definitions of ``name`` that may reach the entry of ``stmt``."""
        return set(self._reach_in.get(id(stmt), {}).get(name, ()))

    def statements(self) -> Iterator[ast.stmt]:
        for block in self._blocks:
            yield from block.stmts


def _is_main_guard(stmt: ast.stmt) -> bool:
    """``if __name__ == "__main__":`` — runtime code, not import-time code."""
    if not isinstance(stmt, ast.If) or not isinstance(stmt.test, ast.Compare):
        return False
    left = stmt.test.left
    return isinstance(left, ast.Name) and left.id == "__name__"


class ModuleFlow:
    """Whole-module flow facts: parents, scopes, per-function graphs.

    Built lazily by :class:`~repro.devtools.engine.FileContext` the first
    time a flow-aware rule asks for it; purely syntactic rules never pay
    for it.
    """

    def __init__(self, tree: ast.Module):
        self.tree = tree
        self.parents: Dict[ast.AST, ast.AST] = {}
        self._func_of: Dict[ast.AST, Optional[ast.AST]] = {}
        self._collect(tree, None)
        self._graphs: Dict[int, FlowGraph] = {}
        self.module_graph = FlowGraph(tree.body)
        #: Every top-level binding of each name, in source order (the
        #: flow-insensitive module scope used as the fallback resolver).
        #: Shares Definition identity with the module graph so membership
        #: tests across the two APIs agree.
        self.module_defs: Dict[str, List[Definition]] = {}
        for stmt in self.module_graph.statements():
            for definition in self.module_graph._gen(stmt):
                self.module_defs.setdefault(definition.name, []).append(definition)

    def _collect(self, node: ast.AST, func: Optional[ast.AST]) -> None:
        for child in ast.iter_child_nodes(node):
            self.parents[child] = node
            self._func_of[child] = func
            child_scope = (
                child
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                else func
            )
            self._collect(child, child_scope)

    # -------------------------------------------------------------- anchors

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The innermost ``def``/``lambda`` containing ``node``, if any."""
        return self._func_of.get(node)

    def enclosing_statement(self, node: ast.AST) -> Optional[ast.stmt]:
        """The nearest ancestor (or self) that is a statement."""
        current: Optional[ast.AST] = node
        while current is not None and not isinstance(current, ast.stmt):
            current = self.parents.get(current)
        return current

    def graph_for(self, func: ast.AST) -> FlowGraph:
        """The (cached) flow graph of one function."""
        graph = self._graphs.get(id(func))
        if graph is None:
            params = [arg.arg for arg in _all_args(func.args)]
            body = func.body if isinstance(func.body, list) else []
            graph = FlowGraph(body, params=params)
            self._graphs[id(func)] = graph
        return graph

    # ------------------------------------------------------------ resolution

    def definitions_for(self, name_node: ast.Name) -> Set[Definition]:
        """The definitions that may reach this ``Name`` use.

        Function-local reaching definitions first; when the function knows
        nothing about the name (a true global read), module scope answers
        with *every* top-level binding of the name — flow-insensitive but
        safe, since rules require all definitions to agree anyway.
        """
        comp_def = self._comprehension_binding(name_node)
        if comp_def is not None:
            return {comp_def}
        stmt = self.enclosing_statement(name_node)
        func = self.enclosing_function(name_node)
        while func is not None and stmt is not None:
            if isinstance(func, ast.Lambda):
                # Lambda bodies anchor no statements, so the graph lookup
                # below cannot see their parameters; resolve them here lest
                # the name leak through to an unrelated outer binding.
                params = {arg.arg for arg in _all_args(func.args)}
                if name_node.id in params:
                    return {Definition(name_node.id, "param", None, ast.Pass())}
                func = self.enclosing_function(func)
                continue
            graph = self.graph_for(func)
            anchored = stmt
            while anchored is not None and not graph.knows(anchored):
                anchored = self.enclosing_statement(self.parents.get(anchored))
            if anchored is not None:
                defs = graph.definitions_at(anchored, name_node.id)
                if defs:
                    return defs
            func = self.enclosing_function(func)
        if stmt is not None and self.module_graph.knows(stmt):
            defs = self.module_graph.definitions_at(stmt, name_node.id)
            if defs:
                return defs
        return set(self.module_defs.get(name_node.id, ()))

    def _comprehension_binding(self, name_node: ast.Name) -> Optional[Definition]:
        """An opaque ``"comp"`` definition when a comprehension target shadows
        this use.

        Comprehensions are their own scope in Python 3: ``[x for x in xs]``
        must not resolve the inner ``x`` to some module-level ``x``.  The
        first generator's *iterable* is evaluated in the enclosing scope, so
        a use inside it is exempt from the shadow.
        """
        path = {id(name_node)}
        current: Optional[ast.AST] = self.parents.get(name_node)
        while current is not None and not isinstance(current, ast.stmt):
            if isinstance(
                current, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                inside_first_iter = id(current.generators[0].iter) in path
                if not inside_first_iter and any(
                    name_node.id in _target_names(gen.target)
                    for gen in current.generators
                ):
                    return Definition(name_node.id, "comp", None, ast.Pass())
            path.add(id(current))
            current = self.parents.get(current)
        return None

    def uses_of(self, definition: Definition) -> List[ast.Name]:
        """Every ``Name`` load this definition may reach."""
        func = self.enclosing_function(definition.stmt)
        region: ast.AST = func if func is not None else self.tree
        uses: List[ast.Name] = []
        for node in ast.walk(region):
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id == definition.name
                and definition in self.definitions_for(node)
            ):
                uses.append(node)
        return uses

    def module_toplevel_calls(self) -> Iterator[ast.Call]:
        """Calls executed at import time (module body, class bodies, guards).

        Skips function bodies and the ``if __name__ == "__main__"`` block —
        those run at call/run time, not import time.
        """
        def walk_stmts(stmts: Sequence[ast.stmt]) -> Iterator[ast.Call]:
            for stmt in stmts:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if _is_main_guard(stmt):
                    continue
                if isinstance(stmt, ast.ClassDef):
                    yield from walk_stmts(stmt.body)
                    continue
                if isinstance(stmt, (ast.If, ast.Try, ast.For, ast.While,
                                     ast.With)):
                    for child in ast.iter_child_nodes(stmt):
                        if isinstance(child, ast.stmt):
                            yield from walk_stmts([child])
                        elif isinstance(child, ast.ExceptHandler):
                            yield from walk_stmts(child.body)
                        elif isinstance(child, ast.expr):
                            for sub in ast.walk(child):
                                if isinstance(sub, ast.Call):
                                    yield sub
                    continue
                for node in ast.walk(stmt):
                    if isinstance(node, ast.Call):
                        yield node

        yield from walk_stmts(self.tree.body)


def _target_names(target: ast.expr) -> Set[str]:
    """The plain names a (possibly nested tuple) assignment target binds."""
    names: Set[str] = set()
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _all_args(arguments: ast.arguments) -> List[ast.arg]:
    args = list(getattr(arguments, "posonlyargs", [])) + list(arguments.args)
    if arguments.vararg:
        args.append(arguments.vararg)
    args.extend(arguments.kwonlyargs)
    if arguments.kwarg:
        args.append(arguments.kwarg)
    return args
