"""The GTSM simulation loop: agents live their routines, sometimes check in.

Day by day, every agent walks through their routine; each stop happens with
its own probability (humans skip stops), the concrete venue is drawn from the
stop's preference pool with preferential return + exploration, and finally a
*voluntary check-in* coin flip (per-user propensity × monthly seasonality)
decides whether the visit becomes a record.  That last flip is what makes the
output sparse in exactly the way the paper describes.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ...taxonomy import build_default_taxonomy
from ..records import CheckIn, CheckInDataset, Venue
from .agents import AgentProfile, RoutineStop, build_agents
from .city import SyntheticCity, build_city
from .config import SMALL_CONFIG, SynthConfig

__all__ = ["GenerationResult", "generate", "synthetic_dataset", "small_dataset"]

#: Zipf-style weights over a preference pool of size n: 1/rank, normalized.
def _preference_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=float)
    return w / w.sum()


class GenerationResult:
    """Everything the simulation produced: data plus ground truth.

    Keeping the city and agent profiles alongside the dataset lets tests and
    the ground-truth experiment validate mined patterns against the *actual* routines that
    generated the records — ground truth the real Foursquare dump never had.
    """

    def __init__(
        self,
        dataset: CheckInDataset,
        city: SyntheticCity,
        agents: Sequence[AgentProfile],
        config: SynthConfig,
    ) -> None:
        self.dataset = dataset
        self.city = city
        self.agents = tuple(agents)
        self.config = config
        self.agents_by_id: Dict[str, AgentProfile] = {a.user_id: a for a in agents}

    def __repr__(self) -> str:
        return f"GenerationResult({self.dataset!r}, {len(self.agents)} agents)"


def _choose_venue(
    rng: np.random.Generator,
    city: SyntheticCity,
    agent: AgentProfile,
    stop: RoutineStop,
    exploration_prob: float,
) -> Optional[Venue]:
    """Pick today's venue for a routine stop (None if no venue exists)."""
    if stop.pool_kind == "fixed":
        return city.venues_by_id.get(stop.target)
    pool = agent.preferred.get(stop.slot_key)
    if not pool:
        return None
    if rng.random() < exploration_prob:
        # Explore: any venue of the category, anywhere in the city.
        if stop.pool_kind == "leaf":
            candidates = city.venues_of_leaf(stop.target)
        else:
            candidates = city.venues_of_root(stop.target)
        if candidates:
            return candidates[int(rng.integers(len(candidates)))]
        return None
    weights = _preference_weights(len(pool))
    return pool[int(rng.choice(len(pool), p=weights))]


def _local_timestamp(
    day: datetime, hour: float, jitter_min: float, rng: np.random.Generator, tz_offset_min: int
) -> datetime:
    """A timezone-aware UTC timestamp for ``hour`` local on ``day``."""
    minutes = hour * 60.0 + rng.normal(0.0, jitter_min)
    minutes = float(np.clip(minutes, 0.0, 24 * 60 - 1))
    local_tz = timezone(timedelta(minutes=tz_offset_min))
    local = day.replace(tzinfo=local_tz) + timedelta(minutes=minutes)
    return local.astimezone(timezone.utc)


def generate(config: SynthConfig = SynthConfig()) -> GenerationResult:
    """Run the full simulation for ``config`` (deterministic in ``config.seed``)."""
    rng = np.random.default_rng(config.seed)
    taxonomy = build_default_taxonomy()
    city = build_city(
        config.bbox,
        config.n_neighborhoods,
        config.n_venues,
        config.neighborhood_sigma_m,
        rng,
        taxonomy,
    )
    agents = build_agents(city, config, rng)

    # Resolve each injected event to a concrete venue (first of its category,
    # deterministic) once, up front.
    events_by_day = {}
    for event in config.events:
        venues = city.venues_of_leaf(event.venue_category) or city.venues_of_root(
            event.venue_category
        )
        if not venues:
            raise ValueError(
                f"event {event.name!r}: no venue of category "
                f"{event.venue_category!r} in the city"
            )
        events_by_day.setdefault(event.day, []).append((event, venues[0]))

    checkins: List[CheckIn] = []
    day0 = datetime(config.start_date.year, config.start_date.month, config.start_date.day)
    for day_index in range(config.n_days):
        day = day0 + timedelta(days=day_index)
        season = config.monthly_seasonality[day.month]
        weekday = day.weekday()
        todays_events = events_by_day.get(day.date(), ())
        for agent in agents:
            routine = agent.routine_for(weekday)
            p_checkin = min(1.0, agent.checkin_prob * season)
            for event, event_venue in todays_events:
                if rng.random() >= event.attendance_prob:
                    continue
                if rng.random() >= min(1.0, p_checkin * event.checkin_boost):
                    continue
                ts = _local_timestamp(day, event.start_hour, config.time_jitter_min,
                                      rng, config.tz_offset_min)
                checkins.append(
                    CheckIn(
                        user_id=agent.user_id,
                        venue_id=event_venue.venue_id,
                        category_id=event_venue.category_id,
                        category_name=event_venue.category_name,
                        lat=event_venue.lat,
                        lon=event_venue.lon,
                        tz_offset_min=config.tz_offset_min,
                        timestamp=ts,
                    )
                )
            for stop in routine:
                if rng.random() >= stop.prob * (1.0 - config.stop_skip_noise):
                    continue  # the stop did not happen today
                venue = _choose_venue(rng, city, agent, stop, config.exploration_prob)
                if venue is None:
                    continue
                if rng.random() >= p_checkin:
                    continue  # visited, but did not check in (voluntary sparsity)
                ts = _local_timestamp(day, stop.hour, config.time_jitter_min, rng,
                                      config.tz_offset_min)
                checkins.append(
                    CheckIn(
                        user_id=agent.user_id,
                        venue_id=venue.venue_id,
                        category_id=venue.category_id,
                        category_name=venue.category_name,
                        lat=venue.lat,
                        lon=venue.lon,
                        tz_offset_min=config.tz_offset_min,
                        timestamp=ts,
                    )
                )

    dataset = CheckInDataset(checkins, dict(city.venues_by_id), name="synthetic-nyc")
    return GenerationResult(dataset, city, agents, config)


def synthetic_dataset(config: SynthConfig = SynthConfig()) -> CheckInDataset:
    """Just the dataset (see :func:`generate` for the full result)."""
    return generate(config).dataset


def small_dataset(seed: int = 7) -> CheckInDataset:
    """A small fast dataset for tests, examples, and docs."""
    config = SMALL_CONFIG if seed == SMALL_CONFIG.seed else SynthConfig(
        **{**SMALL_CONFIG.__dict__, "seed": seed}
    )
    return generate(config).dataset
