"""Classic human-mobility metrics (Gonzalez et al. 2008; Song et al. 2010).

The paper's introduction rests on two findings from this literature: human
mobility is *highly regular* (hence patterns exist) yet *hard to predict
exactly* (hence the 8–25% accuracy ceiling).  This module computes the
standard quantities behind both claims for any check-in dataset:

* radius of gyration and jump-length distribution,
* visitation-frequency Zipf profile,
* regularity R(t) — probability of being at the top location by hour,
* location entropies (random / temporal-uncorrelated / LZ-estimated real).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..data.records import CheckInDataset
from ..geo import GeoPoint, centroid, centroid_lat_lon, haversine_pairs_m

__all__ = [
    "radius_of_gyration_m",
    "jump_lengths_m",
    "visitation_frequencies",
    "regularity_by_hour",
    "random_entropy",
    "uncorrelated_entropy",
    "lz_entropy_estimate",
    "UserMobilityMetrics",
    "user_mobility_metrics",
    "max_predictability",
]


def radius_of_gyration_m(points: Sequence[GeoPoint]) -> float:
    """Root-mean-square distance from the trajectory's center of mass."""
    if not points:
        raise ValueError("radius of gyration of an empty trajectory is undefined")
    center = centroid(points)
    squared = [center.distance_to(p) ** 2 for p in points]
    return math.sqrt(sum(squared) / len(squared))


def jump_lengths_m(points: Sequence[GeoPoint]) -> List[float]:  # crowdlint: disable=CW604 -- test oracle
    """Displacements between consecutive fixes, in meters."""
    return [a.distance_to(b) for a, b in zip(points, points[1:])]


def visitation_frequencies(labels: Sequence[str]) -> List[Tuple[str, float]]:
    """(location, visit share) sorted by rank — the Zipf profile.

    Gonzalez et al.: the k-th most visited location's share decays roughly
    as a power law; the top location alone absorbs a large share.
    """
    if not labels:
        return []
    counts = Counter(labels)
    total = sum(counts.values())
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(label, count / total) for label, count in ranked]


def regularity_by_hour(dataset: CheckInDataset, user_id: str) -> Dict[int, float]:
    """R(t): per local hour, the probability the user's check-in at that
    hour is at their single most-visited venue.

    The signature regularity finding: R(t) peaks at night/work hours and
    dips during midday flexibility windows.
    """
    lo, hi = dataset.user_span(user_id)
    if lo == hi:
        return {}
    venues = dataset.columns.venue[lo:hi]
    top_venue, _ = Counter(venues.tolist()).most_common(1)[0]
    hours = dataset.local_times_us(lo, hi) // 3_600_000_000 % 24
    checkins = np.bincount(hours, minlength=24).tolist()
    hits = np.bincount(hours[venues == top_venue], minlength=24).tolist()
    return {hour: hits[hour] / n for hour, n in enumerate(checkins) if n}


def random_entropy(n_distinct_locations: int) -> float:
    """S_rand = log2 N — entropy if every known place were equally likely."""
    if n_distinct_locations < 1:
        raise ValueError("need at least one location")
    return math.log2(n_distinct_locations)


def uncorrelated_entropy(labels: Sequence[str]) -> float:
    """S_unc = -Σ p log2 p — visit-frequency entropy (order ignored)."""
    if not labels:
        raise ValueError("need at least one visit")
    counts = Counter(labels)
    total = sum(counts.values())
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def lz_entropy_estimate(sequence: Sequence[str]) -> float:
    """Lempel-Ziv estimator of the *real* (temporally correlated) entropy.

    Kontoyiannis et al. estimator used by Song et al. (2010):
    ``S_est = (n log2 n) / Σ Λ_i`` where Λ_i is the length of the shortest
    substring starting at i that never appeared before i (capped at the
    remaining length + 1).  Needs a reasonably long sequence to be
    meaningful; raises on sequences shorter than 2.
    """
    n = len(sequence)
    if n < 2:
        raise ValueError("LZ entropy needs a sequence of length >= 2")
    # One code point per distinct element, so "seq[i:i+k] appears entirely
    # within seq[:i]" is a substring search of one str.
    codes: Dict[object, int] = {}
    text = "".join(chr(codes.setdefault(element, len(codes))) for element in sequence)
    lambdas = 0
    k = 1
    for i in range(n):
        # Λ_i = the shortest k whose text[i:i+k] is not found before i, or
        # n - i + 1 when every length is.  Any substring of a found one is
        # found too, so Λ_{i+1} >= Λ_i - 1 and the search resumes there.
        while i + k <= n and text.find(text[i:i + k], 0, i) >= 0:
            k += 1
        lambdas += k
        k = max(1, k - 1)
    return (n / lambdas) * math.log2(n)


@dataclass(frozen=True)
class UserMobilityMetrics:
    """The standard per-user mobility profile."""

    user_id: str
    n_checkins: int
    n_distinct_venues: int
    radius_of_gyration_m: float
    median_jump_m: float
    top_location_share: float
    s_random: float
    s_uncorrelated: float
    s_estimated: float

    @property
    def predictability_bound(self) -> float:
        """Π_max from Fano's inequality on the estimated entropy."""
        return max_predictability(self.s_estimated, self.n_distinct_venues)


def max_predictability(entropy_bits: float, n_locations: int) -> float:
    """Solve Fano's inequality for the predictability upper bound Π_max.

    ``S = H(Π) + (1 - Π) log2(N - 1)`` with ``H`` the binary entropy.
    Bisection on Π ∈ [1/N, 1]; returns 1.0 when the entropy is ~0 and the
    uniform bound 1/N when the entropy saturates.
    """
    if n_locations < 1:
        raise ValueError("need at least one location")
    if n_locations == 1:
        return 1.0
    if entropy_bits <= 0:
        return 1.0

    def fano(p: float) -> float:
        h = 0.0
        for q in (p, 1.0 - p):
            if 0.0 < q < 1.0:
                h -= q * math.log2(q)
        return h + (1.0 - p) * math.log2(n_locations - 1)

    lo, hi = 1.0 / n_locations, 1.0 - 1e-12
    if entropy_bits >= fano(lo):
        return lo
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:  # adjacent floats: every later step returns mid
            return mid
        if fano(mid) > entropy_bits:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def user_mobility_metrics(dataset: CheckInDataset, user_id: str) -> UserMobilityMetrics:
    """Compute the full metric bundle for one user (venue-level).

    Read from the user's columns; every value equals the one
    :func:`radius_of_gyration_m`, :func:`jump_lengths_m` and the entropy
    functions give on the user's points and venue ids.
    """
    lo, hi = dataset.user_span(user_id)
    n = hi - lo
    if n < 2:
        raise ValueError(f"user {user_id!r} needs at least two check-ins")
    columns = dataset.columns
    lat, lon = columns.lat[lo:hi], columns.lon[lo:hi]
    to_center = haversine_pairs_m(*centroid_lat_lon(lat, lon), lat, lon)
    jumps = haversine_pairs_m(lat[:-1], lon[:-1], lat[1:], lon[1:])
    venues = columns.venue[lo:hi].tolist()
    n_venues = len(set(venues))
    return UserMobilityMetrics(
        user_id=user_id,
        n_checkins=n,
        n_distinct_venues=n_venues,
        radius_of_gyration_m=math.sqrt(sum([d ** 2 for d in to_center]) / n),
        median_jump_m=float(np.median(jumps)),
        top_location_share=max(Counter(venues).values()) / n,
        s_random=random_entropy(n_venues),
        s_uncorrelated=uncorrelated_entropy(venues),
        s_estimated=lz_entropy_estimate(venues),
    )
