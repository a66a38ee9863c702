"""The GTSM simulation loop: agents live their routines, sometimes check in.

Day by day, every agent walks through their routine; each stop happens with
its own probability (humans skip stops), the concrete venue is drawn from the
stop's preference pool with preferential return + exploration, and finally a
*voluntary check-in* coin flip (per-user propensity × monthly seasonality)
decides whether the visit becomes a record.  That last flip is what makes the
output sparse in exactly the way the paper describes.
"""

from __future__ import annotations

from bisect import bisect_right
from datetime import datetime, timedelta, timezone
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ...taxonomy import build_default_taxonomy
from ..records import CheckInDataset, StoreBuilder, Venue, check_tz_offset, to_epoch_us
from .agents import AgentProfile, RoutineStop, build_agents
from .city import SyntheticCity, build_city
from .config import SMALL_CONFIG, SynthConfig

__all__ = ["GenerationResult", "generate", "synthetic_dataset", "small_dataset"]

_US = timedelta(microseconds=1)

#: Zipf-style weights over a preference pool of size n: 1/rank, normalized.
def _preference_weights(n: int) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=float)
    return w / w.sum()


@lru_cache(maxsize=None)
def _preference_cdf(n: int) -> Tuple[float, ...]:
    """The CDF ``rng.choice(n, p=_preference_weights(n))`` searches.

    ``Generator.choice`` with ``p`` and no ``size`` normalizes ``p.cumsum()``
    by its last entry, draws one ``random()`` double ``u`` and returns
    ``searchsorted(cdf, u, side="right")``.  ``bisect_right`` over this tuple
    with the same double gives the same index and leaves the stream where
    ``choice`` would, without numpy's per-call validation of ``p``.
    Pool sizes are bounded by ``preferred_venues_per_slot``, so the cache is
    small; the tuple is immutable because every caller shares it.
    """
    cdf = _preference_weights(n).cumsum()
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


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


class _StopPlan(NamedTuple):
    """One routine stop of one agent, resolved once, outside the day loop."""

    hour: float
    #: The stop happens on a day when the occurrence double falls below this.
    threshold: float
    #: The venue of a fixed stop (``None`` for a flexible one, or if missing).
    venue: Optional[Venue]
    #: The ranked preference pool of a flexible stop; ``None`` means no
    #: venue draw: the stop is fixed, or the agent has no pool for it.
    pool: Optional[Tuple[Venue, ...]]
    cdf: Optional[Tuple[float, ...]]
    #: Every venue of the stop's category, for exploration (not copied).
    candidates: Sequence[Venue]


def _stop_plans(
    city: SyntheticCity,
    agent: AgentProfile,
    routine: Sequence[RoutineStop],
    stop_skip_noise: float,
    candidates_of: Dict[Tuple[str, str], List[Venue]],
) -> List[_StopPlan]:
    """Resolve each stop of ``routine`` to the values its daily draws need.

    ``candidates_of`` caches the explore candidates per
    ``(pool_kind, target)`` across agents.
    """
    plans: List[_StopPlan] = []
    for stop in routine:
        threshold = stop.prob * (1.0 - stop_skip_noise)
        if stop.pool_kind == "fixed":
            venue = city.venues_by_id.get(stop.target)
            plans.append(_StopPlan(stop.hour, threshold, venue, None, None, ()))
            continue
        pool = agent.preferred.get(stop.slot_key)
        if not pool:
            plans.append(_StopPlan(stop.hour, threshold, None, None, None, ()))
            continue
        key = (stop.pool_kind, stop.target)
        if key not in candidates_of:
            candidates_of[key] = (city.venues_of_leaf(stop.target) if stop.pool_kind == "leaf"
                                  else city.venues_of_root(stop.target))
        plans.append(_StopPlan(stop.hour, threshold, None, pool, _preference_cdf(len(pool)),
                               candidates_of[key]))
    return plans


def generate(config: SynthConfig = SynthConfig()) -> GenerationResult:
    """Run the full simulation for ``config`` (deterministic in ``config.seed``).

    Every stop of every day makes its draws in a fixed order and kind: the
    occurrence double; for a flexible stop the explore double, then either
    an explore ``integers`` or a preference double; the check-in double;
    the time-jitter normal.  Output at a seed depends on exactly that order.
    """
    tz_offset_min = check_tz_offset(config.tz_offset_min)
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

    candidates_of: Dict[Tuple[str, str], List[Venue]] = {}
    plans = [
        tuple(_stop_plans(city, agent, routine, config.stop_skip_noise, candidates_of)
              for routine in (agent.weekday_routine, agent.weekend_routine))
        for agent in agents
    ]

    random, integers, normal = rng.random, rng.integers, rng.normal
    exploration_prob = config.exploration_prob
    jitter_min = config.time_jitter_min
    local_tz = timezone(timedelta(minutes=tz_offset_min))
    # One row per check-in: the agent's index, the venue, UTC epoch µs.
    agent_rows: List[int] = []
    venue_rows: List[Venue] = []
    time_rows: List[int] = []
    last_minute = 24 * 60 - 1.0
    checkin_probs = [agent.checkin_prob for agent in agents]
    day0 = datetime(config.start_date.year, config.start_date.month, config.start_date.day)
    for day_index in range(config.n_days):
        day = day0 + timedelta(days=day_index)
        # A check-in ``minutes`` after local midnight, clamped into the day,
        # is at ``day_us + timedelta(minutes=clamped) // _US`` UTC epoch µs:
        # ``timedelta`` rounds the float minutes to whole µs, exactly as
        # adding it to the aware local midnight does.
        day_us = to_epoch_us(day.replace(tzinfo=local_tz))
        season = config.monthly_seasonality[day.month]
        is_weekend = day.weekday() >= 5
        todays_events = events_by_day.get(day.date(), ())
        for a, (agent_plans, checkin_prob) in enumerate(zip(plans, checkin_probs)):
            p_checkin = min(1.0, checkin_prob * season)
            for event, event_venue in todays_events:
                if random() >= event.attendance_prob:
                    continue
                if random() >= min(1.0, p_checkin * event.checkin_boost):
                    continue
                minutes = event.start_hour * 60.0 + normal(0.0, jitter_min)
                agent_rows.append(a)
                venue_rows.append(event_venue)
                time_rows.append(day_us + timedelta(
                    minutes=min(max(minutes, 0.0), last_minute)) // _US)
            for hour, threshold, venue, pool, cdf, candidates in agent_plans[is_weekend]:
                if random() >= threshold:
                    continue  # the stop did not happen today
                if pool is not None:  # a flexible stop: today's venue is drawn
                    if random() < exploration_prob:
                        # Explore: any venue of the category, anywhere in the city.
                        venue = candidates[int(integers(len(candidates)))] if candidates else None
                    else:
                        venue = pool[bisect_right(cdf, random())]
                if venue is None:
                    continue
                if random() >= p_checkin:
                    continue  # visited, but did not check in (voluntary sparsity)
                minutes = hour * 60.0 + normal(0.0, jitter_min)
                agent_rows.append(a)
                venue_rows.append(venue)
                time_rows.append(day_us + timedelta(
                    minutes=min(max(minutes, 0.0), last_minute)) // _US)

    user_ids = [agent.user_id for agent in agents]
    builder = StoreBuilder()
    builder.add(
        [user_ids[a] for a in agent_rows], [v.venue_id for v in venue_rows],
        [v.category_id for v in venue_rows], [v.category_name for v in venue_rows],
        time_rows, np.full(len(time_rows), tz_offset_min, dtype=np.int16),
        [v.location.lat for v in venue_rows], [v.location.lon for v in venue_rows],
    )
    dataset = CheckInDataset.from_store(builder.build(), dict(city.venues_by_id),
                                        name="synthetic-nyc")
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
