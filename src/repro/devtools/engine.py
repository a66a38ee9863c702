"""The crowdlint engine: rule registry, per-file visitor dispatch, suppression.

Design
------
A :class:`Rule` subclass declares ``visit_<NodeType>`` methods (same naming
scheme as :class:`ast.NodeVisitor`) and/or a ``check_module`` hook that sees
the whole file at once.  The engine instantiates every enabled rule per file,
collects the visitor methods into a single dispatch table, and walks the AST
**once** — so adding rules does not add tree traversals.

Findings are reported through :meth:`FileContext.report` and filtered against
suppression pragmas before they leave the engine.  Pragmas are read from real
comment tokens only (``tokenize``), so pragma-shaped text inside strings and
docstrings — like the examples right here — is inert:

* ``# crowdlint: disable=CW101`` on a flagged line suppresses that rule there;
* ``# crowdlint: disable=all`` suppresses every rule on that line;
* ``# crowdlint: disable-file=CW105`` anywhere in the file suppresses the rule
  for the whole file.

The engine is stdlib-only on purpose (see package docstring).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

__all__ = [
    "Finding",
    "FileContext",
    "LintCacheProtocol",
    "LintEngine",
    "LintStats",
    "Rule",
    "all_rules",
    "iter_python_files",
    "module_name_for",
    "register",
    "rule_registry",
]

#: Matches one suppression pragma; a line may carry several.
_PRAGMA_RE = re.compile(r"#\s*crowdlint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True, order=True)
class Finding:
    """One lint finding, sortable into stable (path, line, col, rule) order."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        """The inverse of :meth:`as_dict` (how the result cache stores findings)."""
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),
            col=int(payload["col"]),
            rule_id=str(payload["rule"]),
            message=str(payload["message"]),
        )


class Rule:
    """Base class for lint rules.

    Subclasses set ``id`` (``CW1xx``), ``name`` (kebab-case slug) and
    ``description`` and implement any combination of ``visit_<NodeType>``
    methods and ``check_module``.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    #: Whether the rule consumes whole-program facts (``ctx.project``).  The
    #: engine builds the project analysis only when a selected rule needs it,
    #: so per-file-only runs never pay for summary extraction.
    requires_project: bool = False

    def check_module(self, ctx: "FileContext") -> None:
        """Optional whole-module hook, called once per file before the walk."""

    def visitor_methods(self) -> Iterable[Tuple[str, object]]:
        for attr in dir(self):
            if attr.startswith("visit_"):
                yield attr[len("visit_"):], getattr(self, attr)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id or not cls.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def rule_registry() -> Dict[str, Type[Rule]]:
    """The registry, with the built-in rules imported on first use."""
    from . import rules  # noqa: F401  (importing registers the built-ins)

    return dict(_REGISTRY)


def all_rules() -> List[Type[Rule]]:
    return [_REGISTRY[rule_id] for rule_id in sorted(rule_registry())]


class FileContext:
    """Everything a rule can see about the file under analysis."""

    def __init__(
        self,
        source: str,
        path: str,
        module: Optional[str],
        tree: ast.Module,
        project: Optional[object] = None,
    ):
        self.source = source
        self.path = path
        #: Dotted module name (``repro.crowd.sync``) or ``None`` when the file
        #: is outside any importable package (e.g. a loose script).
        self.module = module
        self.tree = tree
        #: The run's ``callgraph.ProjectAnalysis`` (rules read only its
        #: ``records(module_key)``) when the run built one; ``None`` on
        #: per-file-only runs, so project rules must no-op without it.
        self.project = project
        self.lines = source.splitlines()
        self.findings: List[Finding] = []
        self._line_disables, self._file_disables = _parse_pragmas(source)
        self._flow = None

    @property
    def is_init(self) -> bool:
        return Path(self.path).name == "__init__.py"

    @property
    def module_key(self) -> str:
        """The module's key in the project analysis (dotted name or path)."""
        return self.module or self.path

    @property
    def flow(self):
        """Whole-module flow facts, built on first use (see ``flow.py``).

        Purely syntactic rules never touch this, so they never pay for the
        CFG construction.
        """
        if self._flow is None:
            from .flow import ModuleFlow  # deferred: most files need no flow

            self._flow = ModuleFlow(self.tree)
        return self._flow

    def report(self, rule: Rule, node: ast.AST, message: str) -> None:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0) + 1
        self.findings.append(Finding(self.path, line, col, rule.id, message))

    def suppressed(self, finding: Finding) -> bool:
        if _matches(self._file_disables, finding.rule_id):
            return True
        return _matches(self._line_disables.get(finding.line, frozenset()), finding.rule_id)


def _iter_comments(source: str) -> Iterable[Tuple[int, str]]:
    """(line, text) for every real comment token; strings/docstrings excluded."""
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return  # unparseable tail: CW100 covers it; no pragmas beyond this point


def _parse_pragmas(source: str) -> Tuple[Dict[int, Set[str]], Set[str]]:
    line_disables: Dict[int, Set[str]] = {}
    file_disables: Set[str] = set()
    for lineno, text in _iter_comments(source):
        if "crowdlint" not in text:
            continue
        for kind, spec in _PRAGMA_RE.findall(text):
            ids = {part.strip().upper() for part in spec.split(",") if part.strip()}
            if kind == "disable-file":
                file_disables |= ids
            else:
                line_disables.setdefault(lineno, set()).update(ids)
    return line_disables, file_disables


def _matches(disabled: Iterable[str], rule_id: str) -> bool:
    disabled = set(disabled)
    return "ALL" in disabled or rule_id.upper() in disabled


def module_name_for(path: Path) -> Optional[str]:
    """Infer the dotted module name by walking up through ``__init__.py`` dirs."""
    path = path.resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) or None


class LintEngine:
    """Runs a set of rules over files, sources, or directory trees."""

    def __init__(
        self,
        rules: Optional[Sequence[Type[Rule]]] = None,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
    ):
        chosen = list(rules) if rules is not None else all_rules()
        if select:
            wanted = {rule_id.upper() for rule_id in select}
            chosen = [rule for rule in chosen if rule.id in wanted]
        if ignore:
            unwanted = {rule_id.upper() for rule_id in ignore}
            chosen = [rule for rule in chosen if rule.id not in unwanted]
        self.rules = chosen
        #: Work accounting of the most recent ``lint_paths`` call.
        self.last_stats = LintStats()

    # -- single file -------------------------------------------------------

    def lint_source(
        self,
        source: str,
        path: str = "<string>",
        module: Optional[str] = None,
        project: Optional[object] = None,
    ) -> List[Finding]:
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [
                Finding(path, exc.lineno or 1, (exc.offset or 0) or 1, "CW100",
                        f"syntax error: {exc.msg}")
            ]
        ctx = FileContext(source, path, module, tree, project=project)
        instances = [rule_cls() for rule_cls in self.rules]
        dispatch: Dict[str, List[object]] = {}
        for instance in instances:
            instance.check_module(ctx)
            for node_type, method in instance.visitor_methods():
                dispatch.setdefault(node_type, []).append(method)
        if dispatch:
            for node in ast.walk(ctx.tree):
                for method in dispatch.get(type(node).__name__, ()):
                    method(ctx, node)
        return sorted(f for f in ctx.findings if not ctx.suppressed(f))

    # -- trees -------------------------------------------------------------

    def lint_paths(
        self,
        paths: Iterable[Path],
        cache: Optional["LintCacheProtocol"] = None,
    ) -> List[Finding]:
        """Lint every Python file under ``paths``.

        ``cache`` is any object with the :class:`repro.devtools.cache.LintCache`
        interface; hits skip parsing and analysis entirely.  Either way the
        result is the same sorted finding list, and :attr:`last_stats`
        records how much work was actually done.

        When a selected rule declares ``requires_project``, every file is
        read up front and a whole-program :class:`~repro.devtools.callgraph.
        ProjectAnalysis` is built first (module summaries come from the
        cache when file content is unchanged).  Each file's cache entry is
        then additionally keyed by its :meth:`dep_key` — the digest of the
        project records its findings read — so a warm run re-analyzes
        exactly the files whose content *or* records changed.
        """
        findings: List[Finding] = []
        stats = LintStats()
        rule_ids = [rule.id for rule in self.rules]
        sources: List[Tuple[str, str, Optional[str]]] = []
        for file_path in iter_python_files(paths):
            stats.files += 1
            try:
                source = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                findings.append(
                    Finding(str(file_path), 1, 1, "CW100", f"unreadable file: {exc}")
                )
                stats.analyzed += 1
                continue
            sources.append((str(file_path), source, module_name_for(file_path)))

        project = None
        if any(rule.requires_project for rule in self.rules):
            from .callgraph import ProjectAnalysis  # deferred: per-file runs skip it

            project = ProjectAnalysis.build(
                (
                    (path, source, module, Path(path).name == "__init__.py")
                    for path, source, module in sources
                ),
                cache=cache if hasattr(cache, "get_summary") else None,
            )
            stats.summaries_built = project.summaries_built
            stats.summaries_cached = project.summaries_cached

        for path, source, module in sources:
            dep_key = project.dep_key(module or path) if project is not None else ""
            if cache is not None:
                cached = cache.get(source, path, module, rule_ids, extra=dep_key)
                if cached is not None:
                    stats.cache_hits += 1
                    findings.extend(cached)
                    continue
            stats.analyzed += 1
            file_findings = self.lint_source(source, path, module, project=project)
            if cache is not None:
                cache.put(source, path, module, rule_ids, file_findings, extra=dep_key)
            findings.extend(file_findings)
        self.last_stats = stats
        return sorted(findings)


@dataclass
class LintStats:
    """How much work one ``lint_paths`` call actually did."""

    files: int = 0
    analyzed: int = 0
    cache_hits: int = 0
    summaries_built: int = 0
    summaries_cached: int = 0


class LintCacheProtocol:
    """Duck-typed interface ``lint_paths`` expects from a cache (see cache.py).

    ``rule_ids`` is the engine's active rule selection; it must participate
    in the entry key, otherwise a ``--select``/``--ignore`` run would replay
    findings cached under a different rule set.  ``extra`` is an opaque key
    component (the project dep-key) with the same invalidation role.
    """

    def get(self, source, path, module, rule_ids, extra=""):  # pragma: no cover
        raise NotImplementedError

    def put(self, source, path, module, rule_ids, findings, extra=""):  # pragma: no cover
        raise NotImplementedError


_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", "build", "dist", ".venv", "venv"}


def iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    """Yield ``.py`` files under ``paths`` in sorted order, skipping caches."""
    seen: Set[Path] = set()
    for path in paths:
        path = Path(path)
        if path.is_file():
            candidates = [path] if path.suffix == ".py" else []
        else:
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not (set(candidate.parts) & _SKIP_DIRS)
                and not any(part.endswith(".egg-info") for part in candidate.parts)
            )
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                yield candidate
