"""crowdlint: domain-aware static analysis for the CrowdWeb codebase.

This subsystem is deliberately self-contained and stdlib-only: it must be
runnable in CI before any project dependency is installed, and it must never
import from the packages it lints (``repro.geo``, ``repro.crowd``, ...).

Entry points:

* ``python -m repro.devtools.lint src/ tests/ perfbench/ examples/ scripts/``
  — lint one or more trees.
* ``crowdweb-lint`` — the same CLI as a console script.

The engine lives in :mod:`repro.devtools.engine`, the import-layer map in
:mod:`repro.devtools.layers`, and the individual rules under
:mod:`repro.devtools.rules`.
"""

from .engine import Finding, LintEngine, Rule, all_rules, rule_registry
from .layers import LAYER_MAP, layer_of, resolve_import

__all__ = [
    "Finding",
    "LAYER_MAP",
    "LintEngine",
    "Rule",
    "all_rules",
    "layer_of",
    "resolve_import",
    "rule_registry",
]
