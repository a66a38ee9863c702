"""Command-line interface for crowdlint.

Exit codes:

* ``0`` — clean (no findings)
* ``1`` — findings
* ``2`` — usage or internal error (bad path, unknown rule id)

Results are cached per file content under ``--cache-dir`` (default
``.crowdlint-cache/``).  ``--threads`` prints the race detector's view of
the tree instead of linting it.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path
from typing import List, Optional

from .cache import DEFAULT_CACHE_DIR, LintCache
from .engine import LintEngine, all_rules, iter_python_files, module_name_for, rule_registry


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdweb-lint",
        description="Domain-aware static analysis for the CrowdWeb codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "perfbench", "examples", "scripts"],
        help="files or directories to lint (default: src tests perfbench examples scripts)",
    )
    parser.add_argument(
        "--format",
        choices=("human", "json"),
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
        "--threads",
        action="store_true",
        help="print discovered thread roots and shared state instead of linting",
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
                    {"id": rule.id, "name": rule.name, "description": rule.description}
                    for rule in rules
                ],
                indent=2,
            )
        )
    else:
        for rule in rules:
            print(f"{rule.id} {rule.name:<26} {rule.description}")
    return 0


def _print_threads(paths: List[Path]) -> int:
    """``--threads``: the race-detector's view — roots, shared state, locks."""
    from .callgraph import ProjectAnalysis  # deferred: lint runs may skip it

    files = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            print(f"crowdweb-lint: unreadable file {file_path}: {exc}", file=sys.stderr)
            return 2
        files.append(
            (str(file_path), source, module_name_for(file_path),
             file_path.name == "__init__.py")
        )
    print(ProjectAnalysis.build(files).threads().render())
    return 0


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

    if args.threads:
        return _print_threads(paths)

    cache = None if args.no_cache else LintCache(root=args.cache_dir)
    findings = engine.lint_paths(paths, cache=cache)

    if args.format == "json":
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
