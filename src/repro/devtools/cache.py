"""Per-file lint result cache.

Re-linting an unchanged tree should cost file reads and hash computations,
nothing more.  The cache maps *content* to findings:

* The entry key is ``sha256(module ∥ is_init ∥ rules ∥ source)`` — module
  name and ``__init__`` status are part of the key because rules like
  CW105/CW108 and the repro-only packs change behaviour with them, and the
  active rule selection is part of the key because a ``--select``/``--ignore``
  run must never replay findings cached by a different rule set.
* All entries live under ``.crowdlint-cache/<fingerprint>/`` where the
  fingerprint hashes every devtools source file (engine, flow, every rule
  pack...).  Editing any rule silently invalidates the whole cache — there
  is no version number to forget to bump.
* Entries are JSON and written atomically (tmp + ``os.replace``), so a
  parallel lint racing itself at worst rewrites an identical file.

The cache stores findings keyed by content, not location, so ``get``
rebinds the stored findings to the path being linted.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import List, Optional, Sequence

from .engine import Finding, LintCacheProtocol

__all__ = ["LintCache", "ruleset_fingerprint", "DEFAULT_CACHE_DIR"]

DEFAULT_CACHE_DIR = Path(".crowdlint-cache")

#: Cache-format version, folded into the fingerprint.
_FORMAT = "1"


def ruleset_fingerprint() -> str:
    """Hash of every devtools source file — the identity of the rule set."""
    digest = hashlib.sha256(_FORMAT.encode("utf-8"))
    root = Path(__file__).resolve().parent
    for file_path in sorted(root.rglob("*.py")):
        digest.update(str(file_path.relative_to(root)).encode("utf-8"))
        digest.update(b"\x00")
        try:
            digest.update(file_path.read_bytes())
        except OSError:
            digest.update(b"<unreadable>")
        digest.update(b"\x00")
    return digest.hexdigest()[:20]


class LintCache(LintCacheProtocol):
    """Content-addressed finding cache under ``root/<ruleset fingerprint>/``."""

    def __init__(self, root: Path = DEFAULT_CACHE_DIR, fingerprint: Optional[str] = None):
        self.root = Path(root)
        self.fingerprint = fingerprint or ruleset_fingerprint()
        self.dir = self.root / self.fingerprint
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(
        source: str,
        module: Optional[str],
        is_init: bool,
        rule_ids: Sequence[str] = (),
        extra: str = "",
    ) -> str:
        digest = hashlib.sha256()
        digest.update((module or "").encode("utf-8"))
        digest.update(b"\x00init\x00" if is_init else b"\x00mod\x00")
        digest.update(",".join(sorted(rule_ids)).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(extra.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def _entry(
        self,
        source: str,
        path: str,
        module: Optional[str],
        rule_ids: Sequence[str],
        extra: str = "",
    ) -> Path:
        is_init = Path(path).name == "__init__.py"
        key = self.key_for(source, module, is_init, rule_ids, extra)
        return self.dir / key[:2] / f"{key}.json"

    def get(
        self,
        source: str,
        path: str,
        module: Optional[str],
        rule_ids: Sequence[str],
        extra: str = "",
    ) -> Optional[List[Finding]]:
        entry = self._entry(source, path, module, rule_ids, extra)
        try:
            payload = json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.misses += 1
            return None
        try:
            findings = [
                Finding.from_dict({**item, "path": path})
                for item in payload["findings"]
            ]
        except (KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return findings

    def put(
        self,
        source: str,
        path: str,
        module: Optional[str],
        rule_ids: Sequence[str],
        findings: List[Finding],
        extra: str = "",
    ) -> None:
        entry = self._entry(source, path, module, rule_ids, extra)
        payload = {"findings": [finding.as_dict() for finding in findings]}
        self._write(entry, payload)

    # ---------------------------------------------------- module summaries

    def summary_key(self, source: str, module: Optional[str], is_init: bool) -> str:
        digest = hashlib.sha256(b"summary\x00")
        digest.update((module or "").encode("utf-8"))
        digest.update(b"\x00init\x00" if is_init else b"\x00mod\x00")
        digest.update(source.encode("utf-8"))
        return digest.hexdigest()

    def _summary_entry(self, source: str, module: Optional[str], is_init: bool) -> Path:
        key = self.summary_key(source, module, is_init)
        return self.dir / "summaries" / key[:2] / f"{key}.json"

    def get_summary(
        self, source: str, module: Optional[str], is_init: bool
    ) -> Optional[dict]:
        """A cached ``domains.extract_summary`` result, or ``None``.

        Summaries depend only on the module's own content, so unchanged files
        never re-parse even when the whole-program stage must re-run.
        """
        entry = self._summary_entry(source, module, is_init)
        try:
            return json.loads(entry.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None

    def put_summary(
        self, source: str, module: Optional[str], is_init: bool, summary: dict
    ) -> None:
        self._write(self._summary_entry(source, module, is_init), summary)

    # ---------------------------------------------------------- plumbing

    def _write(self, entry: Path, payload: dict) -> None:
        try:
            entry.parent.mkdir(parents=True, exist_ok=True)
            tmp = entry.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            os.replace(tmp, entry)
        except OSError:
            pass  # a cache that cannot write is merely slow, never wrong

    def clear(self) -> None:
        """Drop every entry for the current fingerprint."""
        if not self.dir.exists():
            return
        for entry in self.dir.rglob("*.json"):
            try:
                entry.unlink()
            except OSError:
                pass
