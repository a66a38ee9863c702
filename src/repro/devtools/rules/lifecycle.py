"""CW8xx — the exception-flow / resource-lifetime / cache-coherence pack.

These rules read the CW8xx records of two whole-program views built over
the project call graph: :class:`~repro.devtools.exceptions.ExceptionAnalysis` (per-function
may-raise sets computed to fixpoint with handler subsumption) and
:class:`~repro.devtools.resources.LifecycleAnalysis` (acquisition sites
tracked to their releases, with the exception edges deciding whether a
leak path is actually reachable, plus the ``repro.web.cache`` coherence
contract).  They report:

* **CW801** — a locally-owned resource (file, socket, connection,
  executor, tempdir, tracemalloc) that is never released, or whose
  release is skipped on a reachable exception/early-return path and is
  not protected by ``with``/``finally``.
* **CW802** — the same for locks: ``acquire()`` without a guaranteed
  ``release()``.  The sibling ``acquire(); …; release()`` shape carries a
  mechanical ``with lock:`` autofix.
* **CW803** — a broad ``except Exception``/bare handler that swallows an
  exception the fixpoint proves is propagated from project code: no
  re-raise, and the bound exception variable (if any) is never used.
  Silent bodies stay CW107's per-file finding.
* **CW804** — the atomic-persistence protocol (``mkstemp`` → write →
  ``fsync`` → ``os.replace``) attempted without the fsync or without
  unlinking the staged temp file on failure.
* **CW805** — served pipeline state mutated outside the constructor
  without a following cache ``invalidate()``: handlers keep serving the
  previous generation forever.
* **CW806** — handler-domain code bypassing the cache API by reading the
  cache's private internals directly.

Anything the analyses cannot prove — an escaped handle, an unresolved
callee, an unknown receiver — produces no finding: zero false positives
is the design budget, enforced by the clean-twin fixtures in the tests.

Severity is ``error`` in the layers where a leak or stale generation
corrupts the serving path (``web``, ``exec``, ``persistence``) and
``warning`` elsewhere.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..engine import Edit, FileContext, Fix, register
from .common import RecordRule


class _LifecycleRule(RecordRule):
    #: Layers where a leaked handle or stale cache corrupts served output.
    error_layers = frozenset({"web", "exec", "persistence"})


@register
class LeakedResourceRule(_LifecycleRule):
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


@register
class UnguardedLockReleaseRule(_LifecycleRule):
    id = "CW802"
    name = "lock-without-guaranteed-release"
    description = (
        "A lock is acquire()d without a guaranteed release(): the release "
        "is missing, or an intervening raise/return/may-raise call skips "
        "it, deadlocking every later waiter.  The sibling acquire/release "
        "shape autofixes to a `with lock:` block."
    )
    fixable = True

    def describe(self, ctx: FileContext, record: Dict[str, object]) -> Tuple[str, Optional[Fix]]:
        fix = self._build_fix(ctx, record.get("fix"))  # type: ignore[arg-type]
        hint = (
            "apply the `with` rewrite"
            if fix is not None
            else "move the release into a `finally` (or use `with`)"
        )
        return f"in {record['func']}(): {record['reason']} — {hint}", fix

    @staticmethod
    def _build_fix(ctx: FileContext, raw: Optional[Dict[str, object]]) -> Optional[Fix]:
        """``lock.acquire(); body; lock.release()`` → ``with lock: body``."""
        if not raw:
            return None
        try:
            a_line = int(raw["a_line"])
            a_end = int(raw["a_end"])
            r_line = int(raw["r_line"])
            start = ctx.offset(a_line, int(raw["a_col"]))
            end = ctx.offset(int(raw["r_end_line"]), int(raw["r_end_col"]))
            lock = str(raw["lock"])
        except (KeyError, IndexError, TypeError, ValueError):
            return None
        if r_line <= a_end:
            return None
        source_lines = ctx.source.splitlines()
        try:
            body = source_lines[a_end : r_line - 1]
        except IndexError:
            return None
        if not body:
            body = [" " * (int(raw["a_col"]) + 4) + "pass"]
        indented = [("    " + line) if line.strip() else line for line in body]
        replacement = f"with {lock}:\n" + "\n".join(indented)
        if ctx.source[start:end] == replacement:
            return None
        return Fix(
            edits=(Edit(start, end, replacement),),
            note=f"wrap the critical section in `with {lock}:`",
        )


@register
class SwallowedPropagationRule(_LifecycleRule):
    id = "CW803"
    name = "broad-handler-swallows-propagation"
    description = (
        "A broad except (Exception/BaseException/bare) swallows an "
        "exception the interprocedural fixpoint proves is propagated from "
        "project code: no re-raise, and the bound variable is never used."
    )

    def message(self, record: Dict[str, object]) -> str:
        caught = ", ".join(record["caught"])  # type: ignore[arg-type]
        types = ", ".join(record["types"])  # type: ignore[arg-type]
        return (
            f"`except {caught}` in {record['func']}() silently swallows "
            f"{types} propagated from project code — narrow the catch, "
            "re-raise, or record the exception"
        )


@register
class AtomicPersistenceRule(_LifecycleRule):
    id = "CW804"
    name = "atomic-persistence-violation"
    description = (
        "Code staging through tempfile.mkstemp and publishing with "
        "os.replace/rename skips the fsync before the rename, or never "
        "unlinks the staged temp file when the write fails."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"in {record['func']}(): {record['reason']} — follow the "
            "mkstemp -> write -> flush+fsync -> os.replace protocol "
            "with an except/finally unlink"
        )


@register
class StaleCacheMutationRule(_LifecycleRule):
    id = "CW805"
    name = "mutation-without-invalidation"
    description = (
        "Served pipeline state (an attribute set up alongside a "
        "ResponseCache in the constructor) is mutated outside the "
        "constructor with no following cache invalidate(): handlers keep "
        "serving the stale generation."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"{record['class']}.{record['attr']} is mutated in "
            f"{record['func']}() without a following cache "
            "invalidate() — bump the generation so handlers stop "
            "serving stale responses"
        )


@register
class CacheBypassRule(_LifecycleRule):
    id = "CW806"
    name = "cache-bypass-from-handler"
    description = (
        "Handler-domain code reads the response cache's private internals "
        "(_entries, _generation, ...) directly instead of going through "
        "the cache API (lookup/store/stats/info)."
    )

    def message(self, record: Dict[str, object]) -> str:
        return (
            f"handler-reachable {record['func']}() reads "
            f"{record['attr']} directly — the cache's internals are "
            "guarded by its own lock and generation; use the public "
            "cache API"
        )
