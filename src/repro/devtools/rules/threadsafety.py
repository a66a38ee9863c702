"""CW7xx — the thread-safety pack (whole-program race detection).

The serving layer runs one thread per client connection, all of them
sharing this process's module globals and long-lived objects.
These rules read the CW7xx records that
:class:`~repro.devtools.threads.ThreadAnalysis` — thread roots, concurrency
domains, and inferred locksets over the project call graph — leaves in the
project's records table, and report:

* **CW701** — a write to shared state (mutated, and reachable from a thread
  domain) with no lock held and no guarded-by lock inferable at all.
* **CW702** — a write to shared state that *is* majority-guarded by one
  lock, at a site where that lock is not held: guarded on some paths, bare
  on others.
* **CW703** — check-then-act on a shared container (``if k in d: … d[k]``)
  outside any lock: the membership test and the access are not atomic.
  The exact ``if k not in d: d[k] = v`` shape carries a mechanical
  ``d.setdefault(k, v)`` autofix; anything else suggests widening a lock.
* **CW704** — two locks acquired in opposite orders on different call
  paths: the classic ABBA deadlock shape.
* **CW705** — a blocking call (sleep, subprocess, sockets, file IO) while
  holding a lock on a thread-reachable path: every peer queueing on that
  lock stalls behind the IO.

Findings anchor on **writes** (plus the CW703 check site); bare reads of a
published reference are idiomatic under the GIL and stay silent.  Anything
the analysis cannot resolve — an unknown call target, an opaque lock
expression, an attribute on a non-``self`` root — produces no finding:
zero false positives is the design budget, enforced by the clean-twin
fixtures in the tests.

Severity is ``error`` in the layers that actually run concurrent code
(``web``, ``obs``, ``exec``) and ``warning`` elsewhere.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..engine import Edit, FileContext, Fix, register
from .common import RecordRule


class _ThreadRule(RecordRule):
    #: Layers whose code runs on the serving path — findings there are errors.
    error_layers = frozenset({"web", "obs", "exec"})


@register
class UnguardedSharedWriteRule(_ThreadRule):
    id = "CW701"
    name = "unguarded-shared-write"
    description = (
        "A write to state shared with a thread domain (handler threads, "
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
class InconsistentlyGuardedWriteRule(_ThreadRule):
    id = "CW702"
    name = "inconsistently-guarded-write"
    description = (
        "A write to shared state whose other writes are majority-guarded by "
        "one inferred lock happens at a site where that lock is not held — "
        "guarded on some paths, bare on this one."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"write to {record['symbol']} in {record['function']}() "
            f"without {record['guard']}, the lock inferred to guard it "
            "from its other writes — take the same lock here"
        )


@register
class CheckThenActRule(_ThreadRule):
    id = "CW703"
    name = "shared-check-then-act"
    description = (
        "A membership test on a shared container followed by a keyed access "
        "inside the branch, outside any lock: another thread can change the "
        "container between the check and the act.  The `if k not in d: "
        "d[k] = v` shape autofixes to `d.setdefault(k, v)`."
    )
    fixable = True

    def describe(self, ctx: FileContext, record: Dict[str, object]) -> Tuple[str, Optional[Fix]]:
        fix = self._build_fix(ctx, record.get("fix"))  # type: ignore[arg-type]
        hint = (
            "apply the setdefault rewrite"
            if fix is not None
            else "widen the guarding lock over the whole check-then-act"
        )
        return (
            f"check-then-act on shared container {record['symbol']} in "
            f"{record['function']}() is not atomic without a lock — {hint}",
            fix,
        )

    @staticmethod
    def _build_fix(ctx: FileContext, raw: Optional[Dict[str, object]]) -> Optional[Fix]:
        if not raw:
            return None
        try:
            start = ctx.offset(int(raw["l1"]), int(raw["c1"]))
            end = ctx.offset(int(raw["l2"]), int(raw["c2"]))
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        replacement = str(raw["text"])
        if ctx.source[start:end] == replacement:
            return None
        return Fix(
            edits=(Edit(start, end, replacement),),
            note="rewrite check-then-act as an atomic dict.setdefault",
        )


@register
class LockOrderRule(_ThreadRule):
    id = "CW704"
    name = "inconsistent-lock-order"
    description = (
        "Two locks are acquired in opposite orders on different call paths "
        "(A then B here, B then A elsewhere): two threads interleaving the "
        "two orders deadlock."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"{record['symbol']} is acquired while holding "
            f"{record['outer']} in {record['function']}(), but "
            f"{record['opposite']} acquires them in the opposite order — "
            "pick one global order"
        )


@register
class BlockingUnderLockRule(_ThreadRule):
    id = "CW705"
    name = "blocking-call-under-lock"
    description = (
        "A blocking call (sleep, subprocess, socket, file IO) runs while a "
        "lock is held on a path reachable from a thread domain: every peer "
        "contending on the lock stalls behind the IO."
    )

    def message(self, record: Dict[str, object]) -> str:
        domains = ", ".join(record["domains"])  # type: ignore[arg-type]
        return (
            f"{record['what']}() blocks while holding {record['lock']} "
            f"in {record['function']}() on a [{domains}] path — move the "
            "blocking call outside the lock"
        )
