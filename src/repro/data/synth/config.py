"""Configuration for the synthetic GTSM (Foursquare-like) generator.

Defaults are calibrated to the statistics the paper reports for the real
Foursquare NYC dump: 1,083 users, ≈227k check-ins over 11 months
(April 2012 – February 2013), mean ≈210 / median ≈153 records per user
(right-skewed, i.e. sparse voluntary check-ins), with April–June the densest
quarter.  See DESIGN.md §2 for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date
from typing import Dict, Tuple

from ...geo import NYC_BBOX, BoundingBox

__all__ = ["CityEvent", "SynthConfig", "SMALL_CONFIG"]


@dataclass(frozen=True)
class CityEvent:
    """A one-off mass gathering injected into the simulation.

    On ``day``, each agent attends with ``attendance_prob``, adding a visit
    to one venue of ``venue_category`` at ``start_hour``; attendees check in
    with boosted probability (people broadcast events).  Used by the
    crowd-anomaly example and tests.
    """

    name: str
    day: date
    venue_category: str = "Stadium"
    start_hour: float = 19.5
    attendance_prob: float = 0.4
    checkin_boost: float = 3.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.start_hour < 24.0):
            raise ValueError("start_hour out of range")
        if not (0.0 <= self.attendance_prob <= 1.0):
            raise ValueError("attendance_prob must be a probability")
        if self.checkin_boost < 1.0:
            raise ValueError("checkin_boost must be >= 1")


@dataclass(frozen=True)
class SynthConfig:
    """All knobs of the synthetic-city simulation.

    The generator is fully deterministic given ``seed``.
    """

    seed: int = 20230701
    #: Study area the city is laid out in.
    bbox: BoundingBox = NYC_BBOX
    #: Number of simulated users (paper: 1,083).
    n_users: int = 1083
    #: Number of venues in the city (the real dump has ~38k; a few thousand
    #: keeps generation fast while preserving venue-choice flexibility).
    n_venues: int = 4000
    #: Number of neighborhood hotspots venues cluster around.
    n_neighborhoods: int = 24
    #: Std-dev of venue scatter around a neighborhood center, meters.
    neighborhood_sigma_m: float = 900.0
    #: Simulation period (paper: 2012-04-03 .. 2013-02-16).
    start_date: date = date(2012, 4, 3)
    end_date: date = date(2013, 2, 16)
    #: Per-month check-in propensity multipliers; the Apr–Jun boost makes the
    #: spring quarter the densest, matching the paper's window selection.
    monthly_seasonality: Dict[int, float] = field(
        default_factory=lambda: {
            1: 0.80, 2: 0.78, 3: 0.95, 4: 1.30, 5: 1.35, 6: 1.28,
            7: 1.00, 8: 0.95, 9: 1.00, 10: 0.95, 11: 0.85, 12: 0.82,
        }
    )
    #: Lognormal sigma of the casual users' check-in propensity.  Together
    #: with the power-user mixture below this reproduces the paper's
    #: mean ≈ 210 / median ≈ 153 records-per-user shape.
    checkin_rate_sigma: float = 0.45
    #: Mean of the casual users' Bernoulli check-in probability.
    checkin_rate_mean: float = 0.128
    #: Clamp range of the per-user check-in probability.
    checkin_rate_clamp: Tuple[float, float] = (0.01, 0.97)
    #: Fraction of users who check in near-compulsively.  These are the users
    #: that survive the paper's >50-qualifying-days activity filter and form
    #: the crowd in the city-scale view.
    power_user_fraction: float = 0.065
    #: Uniform check-in probability range of power users.
    power_user_range: Tuple[float, float] = (0.65, 0.97)
    #: Probability that a routine stop happens at all on a given day.
    stop_skip_noise: float = 0.08
    #: Probability of exploring a brand-new venue instead of a preferred one.
    exploration_prob: float = 0.10
    #: Number of preferred venues a user keeps per category slot.
    preferred_venues_per_slot: int = 3
    #: Std-dev of visit-time jitter in minutes.
    time_jitter_min: float = 25.0
    #: Timezone offset applied to all records (NYC is UTC-240 in the dump).
    tz_offset_min: int = -240
    #: Fraction of weekday routines that are "worker" (vs student/freelancer).
    worker_fraction: float = 0.62
    student_fraction: float = 0.18
    #: One-off mass gatherings injected into the simulation.
    events: Tuple[CityEvent, ...] = ()

    def __post_init__(self) -> None:
        if self.n_users < 1 or self.n_venues < 10 or self.n_neighborhoods < 1:
            raise ValueError("population sizes out of range")
        if self.end_date <= self.start_date:
            raise ValueError("end_date must be after start_date")
        if not (0.0 <= self.exploration_prob <= 1.0):
            raise ValueError("exploration_prob must be a probability")
        if not (0.0 < self.checkin_rate_mean < 1.0):
            raise ValueError("checkin_rate_mean must be in (0, 1)")
        lo, hi = self.checkin_rate_clamp
        if not (0.0 < lo < hi <= 1.0):
            raise ValueError("checkin_rate_clamp must satisfy 0 < lo < hi <= 1")
        if not (0.0 <= self.power_user_fraction <= 1.0):
            raise ValueError("power_user_fraction must be a probability")
        plo, phi = self.power_user_range
        if not (0.0 < plo < phi <= 1.0):
            raise ValueError("power_user_range must satisfy 0 < lo < hi <= 1")
        if self.worker_fraction + self.student_fraction > 1.0:
            raise ValueError("worker_fraction + student_fraction must not exceed 1")
        missing = set(range(1, 13)) - set(self.monthly_seasonality)
        if missing:
            raise ValueError(f"monthly_seasonality missing months {sorted(missing)}")

    @property
    def n_days(self) -> int:
        return (self.end_date - self.start_date).days + 1


#: A small fast dataset for tests and examples (~60 users, ~2.5 months).
SMALL_CONFIG = SynthConfig(
    seed=7,
    n_users=60,
    n_venues=600,
    n_neighborhoods=8,
    start_date=date(2012, 4, 1),
    end_date=date(2012, 6, 15),
)
