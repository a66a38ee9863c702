"""Docs↔code sync gate (``python -m repro.devtools.docscheck``).

Three invariants, all enforced in CI (the ``docs-check`` job):

1. Every layer declared in :data:`repro.devtools.layers.LAYER_MAP` must be
   mentioned — as ``repro.<layer>`` — in ``docs/architecture.md``,
   ``docs/api.md``, or ``docs/serving.md``.
2. The rule catalog in ``docs/devtools.md`` (between the
   ``crowdlint-catalog`` markers) must be byte-identical to what
   :func:`generate_catalog` renders from the live rule registry.  Adding a
   rule without regenerating the table (``--write-catalog``) fails CI, so
   the docs cannot drift from the code.
3. Every module under ``src/repro/devtools/`` must be declared in
   :data:`repro.devtools.layers.DEVTOOLS_MODULES` (and vice versa), so the
   subsystem's own inventory — which feeds the cache fingerprint and this
   very check — stays complete.

Like the rest of ``repro.devtools`` this imports nothing from the packages
it polices; it only reads the repository as text plus its own registry.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .engine import all_rules
from .layers import DEVTOOLS_MODULES, LAYER_MAP

__all__ = [
    "CATALOG_START",
    "CATALOG_END",
    "DOC_FILES",
    "check_catalog",
    "check_docs",
    "check_module_registry",
    "generate_catalog",
    "main",
    "write_catalog",
]

#: Repo-relative documentation files a layer may be covered in.
DOC_FILES = ("docs/architecture.md", "docs/api.md", "docs/serving.md")

#: File holding the generated rule catalog, and the markers delimiting it.
CATALOG_FILE = "docs/devtools.md"
CATALOG_START = "<!-- crowdlint-catalog:start (generated; run python -m repro.devtools.docscheck --write-catalog) -->"
CATALOG_END = "<!-- crowdlint-catalog:end -->"


def check_docs(root: Path, layers: Optional[Sequence[str]] = None) -> List[str]:
    """One problem string per undocumented layer (empty = docs in sync).

    ``layers`` defaults to every key of :data:`LAYER_MAP`; tests pass a
    synthetic list to exercise the failure path.
    """
    layers = sorted(layers if layers is not None else LAYER_MAP)
    texts: Dict[str, str] = {}
    problems: List[str] = []
    for rel in DOC_FILES:
        path = root / rel
        if path.is_file():
            texts[rel] = path.read_text(encoding="utf-8")
        else:
            problems.append(f"missing documentation file: {rel}")
    for layer in layers:
        needle = f"repro.{layer}"
        if not any(needle in text for text in texts.values()):
            problems.append(
                f"layer {layer!r} is declared in devtools/layers.py but "
                f"`{needle}` appears in none of: {', '.join(DOC_FILES)}"
            )
    return problems


# -- rule catalog ------------------------------------------------------------

def generate_catalog() -> str:
    """The rule table rendered from the live registry, markdown, newline-final."""
    lines = [
        "| ID | Name | What it flags |",
        "|----|------|---------------|",
    ]
    for rule in sorted(all_rules(), key=lambda r: r.id):
        description = rule.description.replace("|", "\\|")
        lines.append(f"| {rule.id} | `{rule.name}` | {description} |")
    return "\n".join(lines) + "\n"


def _catalog_region(text: str) -> Optional[tuple]:
    start = text.find(CATALOG_START)
    end = text.find(CATALOG_END)
    if start == -1 or end == -1 or end < start:
        return None
    return start + len(CATALOG_START), end


def check_catalog(root: Path) -> List[str]:
    """Empty when the docs catalog matches the registry byte for byte."""
    path = root / CATALOG_FILE
    if not path.is_file():
        return [f"missing documentation file: {CATALOG_FILE}"]
    text = path.read_text(encoding="utf-8")
    region = _catalog_region(text)
    if region is None:
        return [
            f"{CATALOG_FILE} lacks the generated-catalog markers "
            f"({CATALOG_START!r} ... {CATALOG_END!r})"
        ]
    current = text[region[0] : region[1]].strip("\n")
    expected = generate_catalog().strip("\n")
    if current != expected:
        return [
            f"rule catalog in {CATALOG_FILE} is stale; regenerate with "
            "`python -m repro.devtools.docscheck --write-catalog`"
        ]
    return []


def write_catalog(root: Path) -> bool:
    """Regenerate the catalog region in place; True when the file changed."""
    path = root / CATALOG_FILE
    text = path.read_text(encoding="utf-8")
    region = _catalog_region(text)
    if region is None:
        raise SystemExit(f"docscheck: {CATALOG_FILE} lacks the catalog markers")
    updated = (
        text[: region[0]] + "\n" + generate_catalog() + text[region[1] :]
    )
    if updated == text:
        return False
    path.write_text(updated, encoding="utf-8")
    return True


# -- module registry ---------------------------------------------------------

def check_module_registry(root: Path) -> List[str]:
    """DEVTOOLS_MODULES must list exactly the modules on disk."""
    package = root / "src" / "repro" / "devtools"
    if not package.is_dir():
        return [f"missing package directory: {package}"]
    on_disk = set()
    for file_path in package.rglob("*.py"):
        relative = file_path.relative_to(package).with_suffix("")
        parts = [part for part in relative.parts if part != "__init__"]
        if parts:
            on_disk.add(".".join(parts))
    problems = []
    for module in sorted(on_disk - DEVTOOLS_MODULES):
        problems.append(
            f"module {module!r} exists under src/repro/devtools/ but is not "
            "declared in layers.DEVTOOLS_MODULES"
        )
    for module in sorted(DEVTOOLS_MODULES - on_disk):
        problems.append(
            f"module {module!r} is declared in layers.DEVTOOLS_MODULES but "
            "has no file under src/repro/devtools/"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.docscheck",
        description="Fail when the docs drift from the code: undocumented "
                    "layers, a stale rule catalog, or an undeclared "
                    "devtools module.",
    )
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (default: current directory)")
    parser.add_argument("--write-catalog", action="store_true",
                        help=f"regenerate the rule catalog in {CATALOG_FILE} "
                             "instead of checking it")
    args = parser.parse_args(argv)
    if args.write_catalog:
        changed = write_catalog(args.root)
        print(f"docscheck: catalog {'updated' if changed else 'already current'} "
              f"in {CATALOG_FILE}")
        return 0
    problems = (
        check_docs(args.root)
        + check_catalog(args.root)
        + check_module_registry(args.root)
    )
    for problem in problems:
        print(f"docscheck: {problem}")
    if problems:
        print(f"docscheck: {len(problems)} problem(s) found")
        return 1
    rules = len(list(all_rules()))
    print(f"docscheck ok: {len(LAYER_MAP)} layers covered, {rules}-rule "
          f"catalog current, {len(DEVTOOLS_MODULES)} devtools modules declared")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
