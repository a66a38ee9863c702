"""Command-line interface for crowdlint.

Exit codes:

* ``0`` — clean (no findings; with ``--fix``, nothing left after fixing)
* ``1`` — findings remain
* ``2`` — usage or internal error (bad path, unknown rule id)

``--fix`` rewrites files in place using each rule's exact-span fixes and
reports what is left; ``--diff`` previews the same rewrite as a unified
diff without touching anything.  Results are cached per file content under
``--cache-dir`` (default ``.crowdlint-cache/``) and cache misses can be
analyzed in parallel with ``--jobs N``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from .baseline import load_baseline, new_findings, write_baseline
from .cache import DEFAULT_CACHE_DIR, LintCache
from .engine import LintEngine, all_rules, iter_python_files, module_name_for, rule_registry
from .fix import fix_file, fix_source, unified_diff
from .sarif import sarif_json


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdweb-lint",
        description="Domain-aware static analysis for the CrowdWeb codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json", "sarif"),
        default="human",
        help="output format (default: human)",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids (repeatable, comma-separable)",
    )
    parser.add_argument(
        "--fix",
        action="store_true",
        help="apply safe automatic fixes in place, then report what remains",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="preview automatic fixes as a unified diff; changes nothing",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="analyze cache misses on N worker processes (default: 1)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the per-file result cache",
    )
    parser.add_argument(
        "--cache-dir",
        type=Path,
        default=DEFAULT_CACHE_DIR,
        metavar="DIR",
        help=f"result cache location (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--statistics",
        action="store_true",
        help="append a per-rule finding count summary",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        metavar="FILE",
        help="report only findings not recorded in FILE (the ratchet)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="with --baseline: record the current findings in FILE and exit 0",
    )
    parser.add_argument(
        "--callgraph",
        action="store_true",
        help="print the resolved whole-program call graph instead of linting",
    )
    parser.add_argument(
        "--dot",
        action="store_true",
        help="with --callgraph: emit Graphviz DOT instead of edge lines",
    )
    parser.add_argument(
        "--threads",
        action="store_true",
        help="print discovered thread roots and shared state instead of linting",
    )
    parser.add_argument(
        "--raises",
        metavar="SYMBOL",
        help="print the inferred exception-propagation chain for one "
             "function (module:qualname) instead of linting",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the available rules and exit",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="with --list-rules: emit the rule catalog as JSON",
    )
    return parser


def _split_ids(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    return [part.strip() for value in values for part in value.split(",") if part.strip()]


def _list_rules(as_json: bool) -> int:
    rules = sorted(all_rules(), key=lambda rule: rule.id)
    if as_json:
        print(
            json.dumps(
                [
                    {
                        "id": rule.id,
                        "name": rule.name,
                        "description": rule.description,
                        "fixable": rule.fixable,
                    }
                    for rule in rules
                ],
                indent=2,
            )
        )
    else:
        for rule in rules:
            marker = "*" if rule.fixable else " "
            print(f"{rule.id}{marker} {rule.name:<26} {rule.description}")
        print("\n(* = supports --fix)", file=sys.stderr)
    return 0


def _load_project(paths: List[Path]):
    """The whole-program analysis of every file under ``paths``, or ``None``
    (after a message on stderr) when a file cannot be read."""
    from .callgraph import ProjectAnalysis  # deferred: lint runs may skip it

    files = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"crowdweb-lint: unreadable file {file_path}: {exc}", file=sys.stderr)
            return None
        files.append(
            (str(file_path), source, module_name_for(file_path),
             file_path.name == "__init__.py")
        )
    return ProjectAnalysis.build(files)


def _print_callgraph(paths: List[Path], as_dot: bool) -> int:
    """``--callgraph``: build the whole-program graph and print it."""
    project = _load_project(paths)
    if project is None:
        return 2
    graph = project.call_graph()
    print(graph.to_dot() if as_dot else graph.render())
    return 0


def _print_threads(paths: List[Path]) -> int:
    """``--threads``: the race-detector's view — roots, shared state, locks."""
    project = _load_project(paths)
    if project is None:
        return 2
    print(project.threads().render())
    return 0


def _print_raises(paths: List[Path], symbol: str) -> int:
    """``--raises``: one function's inferred may-raise propagation chain."""
    project = _load_project(paths)
    if project is None:
        return 2
    rendered = project.exceptions().render_chain(symbol)
    print(rendered)
    return 2 if rendered.startswith("--raises: unknown symbol") else 0


def _run_fix(engine: LintEngine, paths: List[Path], diff_only: bool) -> int:
    """``--fix`` / ``--diff``: rewrite (or preview) then report the rest.

    Project-scoped rules (CW703's setdefault rewrite) attach fixes the
    per-file re-lint cannot reproduce, so one whole-program lint seeds the
    fixer with every fixable finding up front.
    """
    remaining = []
    fixed_files = 0
    fixes_applied = 0
    seeds: dict = {}
    for finding in engine.lint_paths(paths):
        if finding.fix is not None:
            seeds.setdefault(finding.path, []).append(finding)
    for file_path in iter_python_files(paths):
        seed = seeds.get(str(file_path), ())
        if diff_only:
            try:
                original = file_path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError):
                continue
            result = fix_source(
                engine, original, str(file_path), module_name_for(file_path),
                seed_findings=seed,
            )
            if result.changed:
                sys.stdout.write(unified_diff(original, result.source, str(file_path)))
        else:
            result = fix_file(
                engine, file_path, module_name_for(file_path), seed_findings=seed
            )
            if result is None:
                continue
        if result.changed:
            fixed_files += 1
            fixes_applied += result.applied
        remaining.extend(result.remaining)
    verb = "would fix" if diff_only else "fixed"
    print(
        f"crowdweb-lint: {verb} {fixes_applied} finding(s) in {fixed_files} file(s); "
        f"{len(remaining)} remaining",
        file=sys.stderr,
    )
    for finding in sorted(remaining):
        print(finding.format())
    return 1 if remaining else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        return _list_rules(args.json)

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"crowdweb-lint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    known = set(rule_registry())
    unknown = [
        rule_id
        for rule_id in (_split_ids(args.select) or []) + (_split_ids(args.ignore) or [])
        if rule_id.upper() not in known
    ]
    if unknown:
        print(
            f"crowdweb-lint: unknown rule id: {', '.join(unknown)} "
            f"(see --list-rules)",
            file=sys.stderr,
        )
        return 2

    engine = LintEngine(select=_split_ids(args.select), ignore=_split_ids(args.ignore))
    paths = [Path(path) for path in args.paths]

    if args.callgraph or args.dot:
        return _print_callgraph(paths, as_dot=args.dot)

    if args.threads:
        return _print_threads(paths)

    if args.raises:
        return _print_raises(paths, args.raises)

    if args.update_baseline and args.baseline is None:
        print("crowdweb-lint: --update-baseline requires --baseline FILE", file=sys.stderr)
        return 2

    if args.fix or args.diff:
        return _run_fix(engine, paths, diff_only=args.diff and not args.fix)

    cache = None if args.no_cache else LintCache(root=args.cache_dir)
    findings = engine.lint_paths(paths, jobs=max(1, args.jobs), cache=cache)

    if args.baseline is not None:
        if args.update_baseline:
            recorded = write_baseline(args.baseline, findings)
            print(
                f"crowdweb-lint: recorded {recorded} finding(s) in {args.baseline}",
                file=sys.stderr,
            )
            return 0
        try:
            baseline = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"crowdweb-lint: {exc}", file=sys.stderr)
            return 2
        findings, suppressed = new_findings(findings, baseline)
        if suppressed:
            print(
                f"crowdweb-lint: {suppressed} baselined finding(s) suppressed",
                file=sys.stderr,
            )

    if args.format == "sarif":
        print(sarif_json(findings))
    elif args.format == "json":
        payload = {
            "findings": [finding.as_dict() for finding in findings],
            "count": len(findings),
            "by_rule": dict(Counter(finding.rule_id for finding in findings)),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for finding in findings:
            print(finding.format())
        if args.statistics and findings:
            print()
            for rule_id, count in sorted(Counter(f.rule_id for f in findings).items()):
                print(f"{count:5d}  {rule_id}")
        if findings:
            noun = "finding" if len(findings) == 1 else "findings"
            print(f"\n{len(findings)} {noun}.", file=sys.stderr)

    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via repro.devtools.lint
    sys.exit(main())
