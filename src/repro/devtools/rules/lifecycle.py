"""CW801 — resource lifetimes judged with exception flow (whole-program).

The rule reads the CW801 records of
:class:`~repro.devtools.resources.LifecycleAnalysis`: acquisition sites
tracked to their releases, with the may-raise sets of
:class:`~repro.devtools.exceptions.ExceptionAnalysis` (computed to fixpoint
over the project call graph, with handler subsumption) deciding whether a
leak path is actually reachable.  It reports:

* **CW801** — a locally-owned resource (file, socket, connection,
  executor, tempdir, tracemalloc) that is never released, or whose
  release is skipped on a reachable exception/early-return path and is
  not protected by ``with``/``finally``.

Anything the analyses cannot prove — an escaped handle, an unresolved
callee — produces no finding: zero false positives is the design budget,
enforced by the clean-twin fixtures in the tests.
"""

from __future__ import annotations

from typing import Dict

from ..engine import register
from .common import RecordRule


@register
class LeakedResourceRule(RecordRule):
    id = "CW801"
    name = "may-leak-resource"
    description = (
        "A locally-owned resource (file, socket, executor, tempdir, "
        "tracemalloc) is acquired without `with` and its release is "
        "missing, or skipped on a reachable exception / early-return path "
        "with no `finally` protection."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"in {record['func']}(): {record['reason']} — manage it "
            "with a `with` block or release it in a `finally`"
        )
