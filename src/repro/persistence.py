"""Saving and loading mined pattern profiles.

Mining is the expensive phase; the platform wants to restart without
repeating it.  Profiles serialize to a single JSON document (schema
versioned) and load back into :class:`~repro.patterns.UserPatternProfile`
objects that behave identically — the crowd layer can be rebuilt from them
plus the dataset.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, Mapping, Union

from .mining import SequentialPattern
from .patterns import UserPatternProfile
from .sequences import TimeBinning, TimedItem
from .taxonomy import AbstractionLevel

__all__ = ["save_profiles", "load_profiles", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1


def save_profiles(  # crowdlint: disable=CW604 -- writes the file `repro.web --profiles` reads
    profiles: Mapping[str, UserPatternProfile], path: Union[str, Path]
) -> Path:
    """Write all profiles to one JSON file, atomically.

    The document is staged in a temporary file in the target directory and
    moved into place with :func:`os.replace`, so a crash mid-save can never
    truncate a profiles file the platform restarts from: readers see either
    the old complete document or the new complete document.
    """
    path = Path(path)
    if not profiles:
        raise ValueError("refusing to save an empty profile collection")
    binnings = {p.binning.width_hours for p in profiles.values()}
    levels = {p.level for p in profiles.values()}
    if len(binnings) != 1 or len(levels) != 1:
        raise ValueError("all profiles must share one binning and one level")
    payload = {
        "schema": SCHEMA_VERSION,
        # Both sets were just checked to hold exactly one element, so
        # next(iter(...)) is deterministic here.
        "bin_width_hours": next(iter(binnings)),  # crowdlint: disable=CW204
        "level": next(iter(levels)).value,  # crowdlint: disable=CW204
        "profiles": {
            user_id: {
                "n_days": profile.n_days,
                "patterns": [
                    {
                        "items": [[item.bin, item.label] for item in p.items],
                        "count": p.count,
                        "support": p.support,
                    }
                    for p in profile.patterns
                ],
            }
            for user_id, profile in sorted(profiles.items())
        },
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    # Stage in the target directory (same filesystem) so the final rename
    # is atomic; clean the temporary up on any failure.
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.name}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def load_profiles(path: Union[str, Path]) -> Dict[str, UserPatternProfile]:
    """Load a profile collection written by :func:`save_profiles`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid profile JSON: {exc}") from exc
    schema = payload.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported profile schema {schema!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    try:
        binning = TimeBinning(float(payload["bin_width_hours"]))
        level = AbstractionLevel(payload["level"])
        out: Dict[str, UserPatternProfile] = {}
        for user_id, row in payload["profiles"].items():
            patterns = tuple(
                SequentialPattern(
                    items=tuple(TimedItem(int(b), str(l)) for b, l in p["items"]),
                    count=int(p["count"]),
                    support=float(p["support"]),
                )
                for p in row["patterns"]
            )
            out[user_id] = UserPatternProfile(
                user_id=user_id,
                patterns=patterns,
                n_days=int(row["n_days"]),
                binning=binning,
                level=level,
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed profile document: {exc}") from exc
    return out
