"""Output checks that hold for any seed; each returns a list of problems.

The build checks compare what the server serves against an independent
recomputation from the same TSV file: the crowd invariants of every
window, the user set of the activity filter, and a fixed sample of users'
patterns against ``modified_prefixspan_reference`` (the original miner).
The serving checks pin statuses, gzip bodies and ETag behaviour.
"""

from __future__ import annotations

import gzip
import json
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from client import Connection, Request

#: Users whose patterns are re-mined with the reference miner.
N_SAMPLE_WITH_PATTERNS = 4
N_SAMPLE_FIRST = 2


def _json(conn: Connection, path: str):
    response = conn.request(Request("GET", path))
    if response.status != 200:
        raise ValueError(f"{path} answered {response.status}")
    return json.loads(response.body)


def _pattern_rows(patterns) -> List[Tuple]:
    return [
        (tuple((item["bin"], item["label"]) for item in p["items"]), p["count"], p["support"])
        for p in patterns
    ]


def build_checks(port: int, tsv: Path) -> List[str]:
    """Crowd invariants, user set and sampled patterns of a built server."""
    # Imported here: the caller puts the source tree on the path first.
    from repro.data import preprocess, read_foursquare_tsv
    from repro.mining import closed_patterns, modified_prefixspan_reference
    from repro.sequences import build_user_database
    from repro.taxonomy import build_default_taxonomy
    from server import PIPELINE_CONFIG as config

    problems: List[str] = []
    with Connection(port) as conn:
        n_windows = _json(conn, "/api/tiles")["n_windows"]
        for w in range(n_windows):
            snapshot = _json(conn, f"/api/crowd/{w}")
            placed = [p["user_id"] for p in snapshot["placements"]]
            if len(placed) != len(set(placed)):
                problems.append(f"window {w}: a user is placed more than once")
            tile = _json(conn, f"/api/tiles/0/0/0?window={w}")
            if tile["n_users"] != snapshot["n_users"] or snapshot["n_users"] != len(placed):
                problems.append(f"window {w}: zoom-0 tile holds {tile['n_users']} users, "
                                f"snapshot {snapshot['n_users']}")
        users = _json(conn, "/api/users")["users"]
        served = {row["user_id"]: row["n_patterns"] for row in users}

        filtered, _report = preprocess(read_foursquare_tsv(tsv), config.window_months,
                                       config.activity)
        if sorted(served) != sorted(filtered.user_ids()):
            problems.append(f"served {len(served)} users, the activity filter keeps "
                            f"{filtered.n_users}")
        ordered = sorted(served)
        sample = [uid for uid in ordered if served[uid] > 0][:N_SAMPLE_WITH_PATTERNS]
        sample += [uid for uid in ordered[:N_SAMPLE_FIRST] if uid not in sample]
        taxonomy = build_default_taxonomy()
        for uid in sample:
            db = build_user_database(filtered, uid, taxonomy, config.level, config.binning,
                                     day_kind=config.day_kind)
            expected = modified_prefixspan_reference(db, config.mining, taxonomy=taxonomy,
                                                     n_bins=config.binning.n_bins)
            if config.closed_only:
                expected = closed_patterns(expected)
            want = [(tuple((i.bin, i.label) for i in p.items), p.count, round(p.support, 4))
                    for p in expected]
            got = _pattern_rows(_json(conn, f"/api/user/{uid}")["patterns"])
            if got != want:
                problems.append(f"user {uid}: served patterns differ from the reference miner")
    return problems


def verify_keys(port: int, keys: Sequence[str]) -> Tuple[List[str], Dict[str, str],
                                                          Dict[Tuple[str, bool], int]]:
    """Fetch each key plain, gzip and conditionally; returns ETags and lengths.

    Checks: every status is 200 (304 for the revalidation), a gzip body
    decompresses to the identity body, and the ETag does not move.
    """
    problems: List[str] = []
    etags: Dict[str, str] = {}
    lengths: Dict[Tuple[str, bool], int] = {}
    with Connection(port) as conn:
        for key in keys:
            plain = conn.request(Request("GET", key))
            packed = conn.request(Request("GET", key, gzip=True))
            if plain.status != 200 or packed.status != 200:
                problems.append(f"{key}: answered {plain.status}/{packed.status}")
                continue
            etag = plain.headers.get("etag", "")
            encoded = packed.headers.get("content-encoding") == "gzip"
            body = gzip.decompress(packed.body) if encoded else packed.body
            if body != plain.body:
                problems.append(f"{key}: gzip body differs from the identity body")
            if packed.headers.get("etag") != etag:
                problems.append(f"{key}: ETag moved between two reads")
            revalidated = conn.request(Request("GET", key, etag=etag))
            if revalidated.status != 304:
                problems.append(f"{key}: revalidation answered {revalidated.status}")
            etags[key] = etag
            lengths[(key, False)] = len(plain.body)
            lengths[(key, encoded)] = len(packed.body)
    return problems, etags, lengths


def etags_unchanged(port: int, etags: Dict[str, str]) -> List[str]:
    """With no refresh in between, every ETag is still the same."""
    problems = []
    with Connection(port) as conn:
        for key, etag in etags.items():
            response = conn.request(Request("GET", key))
            if response.status != 200 or response.headers.get("etag") != etag:
                problems.append(f"{key}: ETag changed without a refresh")
    return problems


def refresh_changes_etags(port: int, keys: Sequence[str]) -> List[str]:
    """ETags stay stable between refreshes and all change after one."""
    problems, before, _ = verify_keys(port, keys)
    with Connection(port) as conn:
        refreshed = conn.request(Request("POST", "/api/refresh"))
        if refreshed.status != 200:
            return problems + [f"refresh answered {refreshed.status}"]
    more, after, _ = verify_keys(port, keys)
    problems += more
    problems += [f"{key}: ETag survived a refresh" for key in keys
                 if key in before and before.get(key) == after.get(key)]
    problems += etags_unchanged(port, after)
    return problems
