"""Request schedules for the serving workloads, drawn from the run's seed.

``serve_hot`` draws over a key set that fits in the server's 512-entry
response cache; ``serve_churn`` draws over a long-tail key space several
times larger and refreshes the cache after a fixed number of reads.  Both
use a fixed share of conditional reads and of ``Accept-Encoding: gzip``.

No published traffic of a CrowdWeb deployment exists to copy.  Each
constant below therefore states where it comes from: a public measurement,
the repository's own pages, or the code path it is there to exercise.  Key
popularity is Zipf over a canonical, seed-independent key order, so the
seed changes which requests are drawn but not which kinds of route
dominate: runs on different seeds do the same kind of work.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, List, Sequence

from client import Request

#: Entries ``CrowdWebApp`` keeps in its response cache by default.
CACHE_ENTRIES = 512
#: The window ``GET /city`` opens on when none is given (``repro.web.server``).
#: A visitor lands there and scrubs the time slider outwards, so windows are
#: ranked by their distance from it.
CITY_DEFAULT_WINDOW = 9
#: Zipf exponent of key popularity.  Breslau et al., "Web Caching and
#: Zipf-like Distributions: Evidence and Implications" (IEEE INFOCOM 1999)
#: fit exponents of 0.64 to 0.83 to six web proxy traces; 0.75 lies near
#: the middle.  Both workloads use it: they differ in key space and
#: refreshes, not in how skewed their clients are.
ZIPF_S = 0.75
#: Share of reads that revalidate with ``If-None-Match``.  A code-path
#: share, not a measured one: the 304 path gets thousands of requests a
#: run, more than ten beyond the p99, while four reads in five still carry
#: a body, so ``wire_bytes_per_req`` is mostly body bytes.
CONDITIONAL_SHARE = 0.2
#: Share of reads that accept a gzip body.  A code-path share: browsers
#: nearly always send ``Accept-Encoding: gzip``, but the JSON API is also
#: read by scripts that do not.  Half and half loads the cache's two stored
#: encodings equally, so a change that speeds one by slowing the other
#: shows in ``p50_ms`` and ``wire_bytes_per_req``.
GZIP_SHARE = 0.5
#: Requests in the hot schedule before it repeats; more than one set-up's load sends.
HOT_SCHEDULE_LEN = 60_000
#: Reads between two ``POST /api/refresh`` (churn).  A code-path value: a
#: run holds a few dozen refreshes, enough for invalidation to show in
#: ``p99_ms`` and for the ETag checks, yet refreshes stay under 1% of
#: requests, so reads, not refreshes, set ``rps``.
READS_PER_REFRESH = 300
#: Refresh epochs in the churn schedule before it repeats.
CHURN_EPOCHS = 24
#: Routes with the heaviest renders, read exactly once per churn epoch, so
#: each epoch renders each of them once whatever the seed.  With the slow
#: per-user metrics renders they make more than 1% of requests, so the p99
#: falls inside this slow group, not on the cliff between it and the fast
#: renders.  In an in-process replay over five seeds, reading them one per
#: epoch in turn (and users uniformly) put the p99 on that cliff and raised
#: its spread from 0.12 to 0.37.
CHURN_SINGLES = ("/api/occupancy", "/api/communities", "/api/stats")
#: How the other churn reads split over route families.  Tiles lead because
#: one city view fetches all 2^z x 2^z tiles of its zoom (16 at zoom 2, 64
#: at zoom 3, see ``CrowdPages.city``).  Weighting a zoom-2 view, a zoom-3
#: view and one read of each other family alike would give tiles 80 of 83
#: reads (96%); 70% keeps 30 reads an epoch for each of the other three
#: render paths, so each has over a thousand samples a run.
CHURN_FAMILY_SHARES = (("tiles", 0.7), ("user_pages", 0.1), ("user_metrics", 0.1),
                       ("flows", 0.1))


def _window_order(n_windows: int) -> List[int]:
    return sorted(range(n_windows), key=lambda w: (abs(w - CITY_DEFAULT_WINDOW), w))


def hot_keys(n_windows: int, user_ids: Sequence[str]) -> List[str]:
    """The hot key set in popularity order; always fits in the cache."""
    keys = ["/", "/api/crowd", "/api/tiles", "/api/stats", "/users", "/api/users",
            "/api/occupancy"]
    for w in _window_order(n_windows):
        keys += [f"/api/tiles/0/0/0?window={w}", f"/api/crowd/{w}", f"/city?window={w}"]
        keys += [f"/api/tiles/1/{x}/{y}?window={w}" for x in (0, 1) for y in (0, 1)]
    keys += [f"/api/user/{uid}" for uid in user_ids]
    # Headroom for the first-tile key and anything warm-up left behind.
    return keys[: CACHE_ENTRIES - 32]


def churn_families(n_windows: int, user_ids: Sequence[str]) -> Dict[str, List[str]]:
    """The churn key space by route family, each in popularity order."""
    windows = _window_order(n_windows)
    return {
        "tiles": [f"/api/tiles/{z}/{x}/{y}?window={w}"
                  for w in windows for z in (2, 3)
                  for x in range(2 ** z) for y in range(2 ** z)],
        "user_pages": [f"/user/{uid}" for uid in user_ids],
        "user_metrics": [f"/api/metrics/{uid}" for uid in user_ids],
        "flows": [f"/api/flows/{w}" for w in windows if w < n_windows - 1],
    }


def _zipf_cum_weights(n: int) -> List[float]:
    return list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_S for rank in range(n)))


def _read(rng: random.Random, path: str) -> Request:
    """A read with the fixed gzip and conditional shares."""
    return Request("GET", path, gzip=rng.random() < GZIP_SHARE,
                   etag="" if rng.random() < CONDITIONAL_SHARE else None)


def hot_schedule(keys: Sequence[str], seed: int) -> List[Request]:
    """Zipf-drawn reads of the hot keys."""
    rng = random.Random(seed)
    drawn = rng.choices(keys, cum_weights=_zipf_cum_weights(len(keys)), k=HOT_SCHEDULE_LEN)
    return [_read(rng, key) for key in drawn]


def churn_schedule(families: Dict[str, List[str]], seed: int) -> List[Request]:
    """Epochs of reads, each ended by a refresh.

    Every epoch reads each heavy single route once and splits the other
    reads over the route families in fixed proportions, so each epoch does
    the same kind and amount of render work whatever the seed.
    """
    rng = random.Random(seed)
    weights = {name: _zipf_cum_weights(len(keys)) for name, keys in families.items()}
    n_drawn = READS_PER_REFRESH - len(CHURN_SINGLES)
    counts = {name: round(share * n_drawn) for name, share in CHURN_FAMILY_SHARES}
    schedule: List[Request] = []
    for _ in range(CHURN_EPOCHS):
        paths = list(CHURN_SINGLES)
        for name, count in counts.items():
            paths += rng.choices(families[name], cum_weights=weights[name], k=count)
        rng.shuffle(paths)
        schedule += [_read(rng, path) for path in paths]
        schedule.append(Request("POST", "/api/refresh"))
    return schedule
