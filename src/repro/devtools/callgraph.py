"""The whole-program project analysis core.

``domains.extract_summary`` reduces each module to a symbolic digest in one
definition walk; this module stitches the digests together.
:class:`ProjectAnalysis` resolves the symbolic callee forms across module
boundaries — through imports and their aliases, module attributes, ``self``
dispatch, and methods on locally-constructed instances — links the thread
analysis's call sites through one target resolver, runs it, and judges which
public names product code reaches.

What the analyses find lands once in a per-module **records table**; each
record is one finding and carries the ``rule`` id that reports it.  Three
consumers sit on top:

* the **whole-program rules** (CW604, CW701, CW703) read
  :meth:`ProjectAnalysis.records` and keep the records of their own rule;
* the **engine/cache** read :meth:`ProjectAnalysis.dep_key`, the digest of a
  module's records — the only project-dependent input of its findings — so a
  file is re-analyzed only when its content *or* that digest changes;
* the **CLI** renders the ``--threads`` view.

Resolution is deliberately conservative: a call that cannot be pinned to a
single definition produces no edge, no record, and no cache dependency.
"""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import PurePath
from typing import (
    Callable,
    Container,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from .domains import FunctionRef, extract_summary
from .threads import ThreadAnalysis

__all__ = ["ProjectAnalysis"]

Node = Tuple[str, str]  # (module key, function qualname)

#: ``("func", ref)`` / ``("class", cref)`` / ``("module", name)`` — what a
#: name resolves to before call semantics (constructor vs. plain call) apply.
_Target = Tuple[str, object]


class ProjectAnalysis:
    """Summaries + resolution + analyses + records for one lint invocation.

    Construct via :meth:`build` (extracts or cache-loads summaries); the
    analyses and the records table are built on first use.
    """

    _MAX_CHASE = 6  # import/alias chains longer than this stay unresolved

    def __init__(self, summaries: Dict[str, Dict[str, object]]):
        self.summaries = summaries
        self.summaries_built = 0
        self.summaries_cached = 0
        self._resolve_cache: Dict[Tuple[str, str, str], Optional[Tuple[FunctionRef, bool]]] = {}
        self._table: Optional[Dict[str, List[Dict[str, object]]]] = None
        self._thread_analysis: Optional[ThreadAnalysis] = None

    # ------------------------------------------------------------ lifecycle

    @classmethod
    def build(
        cls,
        files: Iterable[Tuple[str, str, Optional[str], bool]],
        cache: Optional[object] = None,
    ) -> "ProjectAnalysis":
        """Analyze ``(path, source, module, is_init)`` tuples into a project.

        ``cache`` (a :class:`~repro.devtools.cache.LintCache`) serves
        content-addressed summaries so unchanged files never re-parse.
        """
        summaries: Dict[str, Dict[str, object]] = {}
        built = cached = 0
        for path, source, module, is_init in files:
            key = module or str(path)
            summary = None
            if cache is not None:
                summary = cache.get_summary(source, module, is_init)
            if summary is None:
                try:
                    tree = ast.parse(source)
                except (SyntaxError, ValueError):
                    continue
                summary = extract_summary(tree, module, str(path), is_init)
                built += 1
                if cache is not None:
                    cache.put_summary(source, module, is_init, summary)
            else:
                cached += 1
                # The cache keys summaries by content, not by location.
                summary["path"] = str(path)
            summaries[key] = summary
        project = cls(summaries)
        project.summaries_built = built
        project.summaries_cached = cached
        return project

    # ------------------------------------------------------------ resolution

    def resolve(
        self, module_key: str, caller: str, sym: Sequence[object]
    ) -> Optional[Tuple[FunctionRef, bool]]:
        """Pin a symbolic callee to ``(ref, bound)`` or give up with ``None``.

        ``bound`` means the first positional parameter is an implicit
        ``self`` already supplied by the dispatch (method on an instance, or
        a constructor call resolving to ``__init__``).
        """
        cache_key = (module_key, caller, json.dumps(sym))
        if cache_key in self._resolve_cache:
            return self._resolve_cache[cache_key]
        self._resolve_cache[cache_key] = None  # cycles resolve to "don't know"
        resolved = self._resolve_uncached(module_key, caller, list(sym))
        self._resolve_cache[cache_key] = resolved
        return resolved

    def _resolve_uncached(
        self, module_key: str, caller: str, sym: List[object]
    ) -> Optional[Tuple[FunctionRef, bool]]:
        kind = sym[0]
        if kind == "name":
            return self._as_callable(self._lookup(module_key, sym[1]))  # type: ignore[arg-type]
        if kind == "self":
            info = self._function_info(module_key, caller)
            class_name = info.get("class") if info else None
            if not class_name:
                return None
            ref = self._method_ref((module_key, class_name), sym[1])  # type: ignore[arg-type]
            return (ref, True) if ref else None
        if kind == "attr":
            return self._resolve_attr(module_key, caller, sym[1], sym[2])  # type: ignore[arg-type]
        if kind == "dotted":
            return self._resolve_dotted(module_key, sym[1])  # type: ignore[arg-type]
        return None

    def _resolve_attr(
        self, module_key: str, caller: str, root: str, method: str
    ) -> Optional[Tuple[FunctionRef, bool]]:
        # A method on a locally-constructed instance: obj = Cls(); obj.m().
        for scope in (caller, "<module>"):
            info = self._function_info(module_key, scope)
            ctor = info.get("ctors", {}).get(root) if info else None  # type: ignore[union-attr]
            if ctor is not None:
                cref = self._class_of_sym(module_key, scope, ctor)
                if cref is not None:
                    ref = self._method_ref(cref, method)
                    return (ref, True) if ref else None
                return None
        target = self._lookup(module_key, root)
        if target is None:
            return None
        if target[0] == "module":
            return self._as_callable(self._lookup(str(target[1]), method))
        if target[0] == "class":
            # Cls.m(instance, ...) — unbound access, self passed explicitly.
            ref = self._method_ref(target[1], method)  # type: ignore[arg-type]
            return (ref, False) if ref else None
        return None

    def _resolve_dotted(
        self, module_key: str, dotted: str
    ) -> Optional[Tuple[FunctionRef, bool]]:
        parts = dotted.split(".")
        target = self._lookup(module_key, parts[0])
        if target is not None and target[0] == "module":
            base, rest = str(target[1]), parts[1:]
        else:
            # An absolute dotted path (``import a.b`` then ``a.b.c.f()``).
            base, rest = "", []
            for cut in range(len(parts) - 1, 0, -1):
                prefix = ".".join(parts[:cut])
                if prefix in self.summaries:
                    base, rest = prefix, parts[cut:]
                    break
            if not base:
                return None
        while len(rest) > 1:
            submodule = f"{base}.{rest[0]}"
            if submodule in self.summaries:
                base, rest = submodule, rest[1:]
                continue
            inner = self._lookup(base, rest[0])
            if inner is not None and inner[0] == "class" and len(rest) == 2:
                ref = self._method_ref(inner[1], rest[1])  # type: ignore[arg-type]
                return (ref, False) if ref else None
            return None
        if not rest:
            return None
        return self._as_callable(self._lookup(base, rest[0]))

    def _lookup(
        self, module_key: str, name: str, depth: int = _MAX_CHASE
    ) -> Optional[_Target]:
        """What ``name`` denotes inside ``module_key``, chasing re-exports."""
        summary = self.summaries.get(module_key)
        if summary is None or depth <= 0:
            return None
        functions: Dict[str, object] = summary["functions"]  # type: ignore[assignment]
        if name != "<module>" and name in functions:
            return ("func", (module_key, name))
        if name in summary["classes"]:  # type: ignore[operator]
            return ("class", (module_key, name))
        alias = summary["aliases"].get(name)  # type: ignore[union-attr]
        if alias:
            return self._lookup(module_key, alias, depth - 1)
        imported = summary["imports"].get(name)  # type: ignore[union-attr]
        if imported is None:
            return None
        if imported[0] == "module":
            return ("module", imported[1])
        _, target_module, original = imported
        if target_module in self.summaries:
            resolved = self._lookup(str(target_module), str(original), depth - 1)
            if resolved is not None:
                return resolved
        submodule = f"{target_module}.{original}"
        if submodule in self.summaries or any(
            key.startswith(submodule + ".") for key in self.summaries
        ):
            return ("module", submodule)
        return None

    def _as_callable(
        self, target: Optional[_Target]
    ) -> Optional[Tuple[FunctionRef, bool]]:
        if target is None:
            return None
        if target[0] == "func":
            return (target[1], False)  # type: ignore[return-value]
        if target[0] == "class":
            ref = self._method_ref(target[1], "__init__")  # type: ignore[arg-type]
            return (ref, True) if ref else None
        return None

    def _class_of_sym(
        self, module_key: str, caller: str, sym: Sequence[object]
    ) -> Optional[Tuple[str, str]]:
        kind = sym[0]
        target: Optional[_Target] = None
        if kind == "name":
            target = self._lookup(module_key, str(sym[1]))
        elif kind == "attr":
            root = self._lookup(module_key, str(sym[1]))
            if root is not None and root[0] == "module":
                target = self._lookup(str(root[1]), str(sym[2]))
        elif kind == "dotted":
            parts = str(sym[1]).rsplit(".", 1)
            if len(parts) == 2:
                root = self._lookup(module_key, parts[0])
                if root is not None and root[0] == "module":
                    target = self._lookup(str(root[1]), parts[1])
        if target is not None and target[0] == "class":
            return target[1]  # type: ignore[return-value]
        return None

    def _method_ref(
        self, cref: Tuple[str, str], method: str, depth: int = _MAX_CHASE
    ) -> Optional[FunctionRef]:
        """The defining ``(module, "Cls.method")`` ref, walking base classes."""
        if depth <= 0:
            return None
        module_key, class_name = cref
        summary = self.summaries.get(module_key)
        if summary is None:
            return None
        info = summary["classes"].get(class_name)  # type: ignore[union-attr]
        if info is None:
            return None
        if method in info["methods"]:
            return (module_key, f"{class_name}.{method}")
        for base_sym in info["bases"]:
            base_cref = self._class_of_sym(module_key, "<module>", base_sym)
            if base_cref is not None:
                found = self._method_ref(base_cref, method, depth - 1)
                if found is not None:
                    return found
        return None

    def _function_info(
        self, module_key: str, qualname: str
    ) -> Optional[Dict[str, object]]:
        summary = self.summaries.get(module_key)
        if summary is None:
            return None
        return summary["functions"].get(qualname)  # type: ignore[union-attr]

    def _resolve_target(
        self,
        module_key: str,
        caller: str,
        sym: Optional[Sequence[object]],
        nodes: Container[Node],
    ) -> Optional[Node]:
        """Pin a call site to one of an analysis's ``nodes``, or ``None``.

        :meth:`resolve` first; then a ``self.m()`` sibling method and a bare
        name defined in the same module, which cover definitions that only
        the thread facts model (nested functions, classes nested in
        functions).
        """
        if not sym:
            return None
        resolved = self.resolve(module_key, caller, sym)
        if resolved is not None and resolved[0] in nodes:
            return resolved[0]
        if sym[0] == "self" and "." in caller:
            sibling = (module_key, caller.rsplit(".", 1)[0] + "." + str(sym[1]))
            if sibling in nodes:
                return sibling
        if sym[0] == "name":
            direct = (module_key, str(sym[1]))
            if direct in nodes:
                return direct
        return None

    def function_facts(self, section: str) -> Dict[Node, Dict[str, object]]:
        """Every function record of one fact section, keyed by node."""
        return {
            (module_key, qualname): record
            for module_key in sorted(self.summaries)
            for qualname, record in self.summaries[module_key][section]["functions"].items()  # type: ignore[index]
        }

    def linked_calls(
        self, nodes: Dict[Node, Dict[str, object]]
    ) -> Iterator[Tuple[Node, Dict[str, object], Node]]:
        """``(caller, call record, callee)`` for each call site in ``nodes``
        that :meth:`_resolve_target` pins to another of ``nodes``."""
        for node, record in nodes.items():
            for call in record["calls"]:  # type: ignore[union-attr]
                target = self._resolve_target(node[0], node[1], call["sym"], nodes)
                if target is not None:
                    yield node, call, target

    # ------------------------------------------------------------ records

    def records(self, module_key: str) -> List[Dict[str, object]]:
        """The records anchored in one module, each tagged with its ``rule``.

        Built once for the whole project.  They are the only input any rule
        reads from the project, so they alone decide what a module's
        whole-program findings are.
        """
        if self._table is None:
            table: Dict[str, List[Dict[str, object]]] = {}

            def emit(key: str, record: Dict[str, object]) -> None:
                table.setdefault(key, []).append(record)

            self._emit_dead_exports(emit)
            self.threads().emit_records(emit)
            for records in table.values():
                records.sort(key=lambda r: (r["line"], r["col"], r["rule"]))
            self._table = table
        return self._table.get(module_key, [])

    def dep_key(self, module_key: str) -> str:
        """Digest of a module's records: all its findings observe outside it.

        Unchanged digest + unchanged content ⇒ cached findings stay valid.
        """
        payload = json.dumps(
            self.records(module_key), sort_keys=True, separators=(",", ":"), default=str
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def _emit_dead_exports(self, emit: Callable[[str, Dict[str, object]], None]) -> None:
        """CW604: public surface that no product code reaches.

        A *product* module is a linted file outside any ``tests`` directory.
        A public name is reached only through a ``Name`` or ``Attribute`` use
        in a product module, its own included; imports, re-exports and
        ``__all__`` lists are not uses.  Two kinds of public name are judged,
        both matched by bare name: the ``__all__`` entries of a product
        module that is not a package ``__init__``, and the methods of its
        module-level classes.  ``_``-prefixed names are exempt, and
        ``visit_<Node>`` methods are reached: the engine dispatches them by
        name.
        """
        product = [
            key
            for key, summary in self.summaries.items()
            if "tests" not in PurePath(str(summary["path"])).parts
        ]
        used: Set[str] = set()
        for key in product:
            used.update(self.summaries[key]["refs"])  # type: ignore[arg-type]
        for module_key in sorted(product):
            summary = self.summaries[module_key]
            functions: Dict[str, Dict[str, object]] = summary["functions"]  # type: ignore[assignment]
            classes: Dict[str, Dict[str, object]] = summary["classes"]  # type: ignore[assignment]
            if not summary["is_init"]:
                for name in summary["exports"] or ():  # type: ignore[union-attr]
                    if not name.startswith("_") and name not in used:
                        info = functions.get(name) or classes.get(name)
                        emit(module_key, _dead(name, info["line"] if info else 1))
            for class_name, info in classes.items():
                for method in info["methods"]:  # type: ignore[union-attr]
                    if not method.startswith(("_", "visit_")) and method not in used:
                        qualname = f"{class_name}.{method}"
                        emit(module_key, _dead(qualname, functions[qualname]["line"]))

    # ------------------------------------------------------------ views

    def threads(self) -> ThreadAnalysis:
        """The race-detection view (roots, domains, locksets), built lazily."""
        if self._thread_analysis is None:
            self._thread_analysis = ThreadAnalysis(self)
        return self._thread_analysis


def _dead(name: str, line: object) -> Dict[str, object]:
    """The CW604 record of a public name no product code uses."""
    return {"rule": "CW604", "name": name, "line": line, "col": 0}
