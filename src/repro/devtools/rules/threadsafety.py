"""CW7xx — the thread-safety pack (whole-program race detection).

The serving layer runs one thread per client connection, all of them
sharing this process's module globals and long-lived objects.
These rules read the CW7xx records that
:class:`~repro.devtools.threads.ThreadAnalysis` — thread roots, concurrency
domains, and inferred locksets over the project call graph — leaves in the
project's records table, and report:

* **CW701** — a write to shared state (mutated, and reachable from a thread
  domain) with no lock held and no guarded-by lock inferable at all.
* **CW703** — check-then-act on a shared container (``if k in d: … d[k]``)
  outside any lock: the membership test and the access are not atomic.
  The exact ``if k not in d: d[k] = v`` shape (with an effect-free ``v``)
  is pointed at ``d.setdefault(k, v)``; anything else at widening a lock.

Findings anchor on **writes** (plus the CW703 check site); bare reads of a
published reference are idiomatic under the GIL and stay silent.  Anything
the analysis cannot resolve — an unknown call target, an opaque lock
expression, an attribute on a non-``self`` root — produces no finding:
zero false positives is the design budget, enforced by the clean-twin
fixtures in the tests.
"""

from __future__ import annotations

from typing import Dict

from ..engine import register
from .common import RecordRule


@register
class UnguardedSharedWriteRule(RecordRule):
    id = "CW701"
    name = "unguarded-shared-write"
    description = (
        "A write to state shared with a thread domain (connection threads, "
        "worker threads) happens with no lock held, and no guarded-by lock "
        "could be inferred for the symbol at all."
    )

    def message(self, record: Dict[str, object]) -> str:
        domains = ", ".join(record["domains"])  # type: ignore[arg-type]
        return (
            f"unguarded write to {record['symbol']} in "
            f"{record['function']}() — the symbol is reached from "
            f"concurrency domains [{domains}] and no write ever holds a "
            "lock; guard every access with one lock"
        )


@register
class CheckThenActRule(RecordRule):
    id = "CW703"
    name = "shared-check-then-act"
    description = (
        "A membership test on a shared container followed by a keyed access "
        "inside the branch, outside any lock: another thread can change the "
        "container between the check and the act.  The `if k not in d: "
        "d[k] = v` shape is pointed at `d.setdefault(k, v)`."
    )

    def message(self, record: Dict[str, object]) -> str:
        hint = (
            "apply the setdefault rewrite"
            if record["setdefault"]
            else "widen the guarding lock over the whole check-then-act"
        )
        return (
            f"check-then-act on shared container {record['symbol']} in "
            f"{record['function']}() is not atomic without a lock — {hint}"
        )
