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


class _RawReader:
    """``Generator.random``/``integers``/``normal`` draws from PCG64 raw blocks.

    The day loop makes ~1.4M scalar draws, and numpy's per-call overhead
    would be most of their cost.  The reader takes the raw 64-bit
    outputs in blocks of ``block`` (``bit_generator.random_raw``) and keeps
    them twice: as a ``uint64`` array, which only the two helpers below
    read, and as a list of the doubles numpy's PCG64 ``next_double`` makes
    of them, ``(raw >> 11) * 2**-53``.  A caller holds ``dbl`` and a
    read index ``i`` and reads ``u = dbl[i]; i += 1`` inline: that is
    ``Generator.random()`` bit for bit, at the same place in the stream.

    * :meth:`integers` is numpy's scalar ``integers(n)``: Lemire's bounded
      draw over ``next_uint32``, with its rejection loop.  ``next_uint32``
      halves a raw output and buffers the high half, so the reader carries
      that half, starting from the one ``bg.state`` holds on entry; the
      doubles never touch it.  ``n == 1`` draws nothing.
    * :meth:`normal` is numpy's own ``normal``, called on a second PCG64
      moved forward (``advance``) to the read position.  How many raw
      outputs the ziggurat used is found by matching that generator's next
      raw output in the block; numpy does not expose its tables.

    ``rng`` must be a PCG64 ``Generator`` (``default_rng`` makes one).  The
    reader moves it forward a whole block at a time, so it is only valid if
    nothing draws from ``rng`` after it: it must be the last user of the
    generator.  :meth:`room` refills when fewer than ``margin``
    outputs are left past ``i``; the helpers call it before they return, so
    a caller that reads at most ``margin`` doubles between two calls never
    runs off the end.  A refill drops the part already read and appends a
    new block, in place, so ``dbl`` stays the list the caller holds and
    never grows past ``block + margin``.
    ``TestRawReader`` pins all of this against numpy's methods.
    """

    def __init__(self, rng: np.random.Generator, margin: int, block: int = 1 << 14) -> None:
        bit_generator = rng.bit_generator
        state = bit_generator.state
        self._random_raw = bit_generator.random_raw
        self._margin = margin
        self._block = max(block, margin)
        self._half: Optional[int] = state["uinteger"] if state["has_uint32"] else None
        self._shadow = np.random.Generator(np.random.PCG64())
        self._shadow.bit_generator.state = state
        self._shadow_pos = 0  # stream position of the shadow's next output
        self._base = 0  # stream position of ``dbl[0]``
        self.dbl: List[float] = []
        self._raw = np.zeros(0, dtype=np.uint64)

    def room(self, i: int) -> int:
        """``i``, or 0 after a refill if fewer than ``margin`` outputs are left."""
        return i if len(self.dbl) - i >= self._margin else self._refill(i)

    def _refill(self, i: int) -> int:
        del self.dbl[:i]
        self._base += i
        raw = self._random_raw(self._block)
        self._raw = np.concatenate((self._raw[i:], raw))
        self.dbl.extend(((raw >> 11) * 2.0**-53).tolist())
        return 0

    def integers(self, i: int, n: int) -> Tuple[int, int]:
        """``(int(rng.integers(n)), i')`` for ``1 <= n <= 2**32``."""
        if n == 1:
            return 0, i
        threshold = (1 << 32) % n
        while True:
            half = self._half
            if half is None:
                if i == len(self.dbl):
                    i = self._refill(i)
                word = int(self._raw[i])
                i += 1
                half, self._half = word & 0xFFFFFFFF, word >> 32
            else:
                self._half = None
            scaled = half * n
            if scaled & 0xFFFFFFFF >= threshold:
                return scaled >> 32, self.room(i)

    def normal(self, i: int, scale: float) -> Tuple[float, int]:
        """``(rng.normal(0.0, scale), i')``."""
        if i == len(self.dbl):
            i = self._refill(i)
        shadow = self._shadow.bit_generator
        shadow.advance(self._base + i - self._shadow_pos)
        value = self._shadow.normal(0.0, scale)
        following = shadow.random_raw()
        i += 1
        while True:
            if i == len(self.dbl):
                i = self._refill(i)
            if int(self._raw[i]) == following:
                break
            i += 1
        self._shadow_pos = self._base + i + 1
        return value, self.room(i)


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
    The loop reads them through a :class:`_RawReader`, the last user of
    ``rng``.
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

    # The most doubles one agent-day reads inline: two per event, and four
    # per stop (occurrence, explore, preference, check-in).
    margin = (2 * max(map(len, events_by_day.values()), default=0)
              + 4 * max((len(p) for agent_plans in plans for p in agent_plans), default=0))
    reader = _RawReader(rng, margin)
    dbl, room, integers, normal = reader.dbl, reader.room, reader.integers, reader.normal
    i = 0
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
            if len(dbl) - i < margin:
                i = room(i)
            for event, event_venue in todays_events:
                u = dbl[i]
                i += 1
                if u >= event.attendance_prob:
                    continue
                u = dbl[i]
                i += 1
                if u >= min(1.0, p_checkin * event.checkin_boost):
                    continue
                jitter, i = normal(i, jitter_min)
                minutes = event.start_hour * 60.0 + jitter
                agent_rows.append(a)
                venue_rows.append(event_venue)
                time_rows.append(day_us + timedelta(
                    minutes=min(max(minutes, 0.0), last_minute)) // _US)
            for hour, threshold, venue, pool, cdf, candidates in agent_plans[is_weekend]:
                u = dbl[i]
                i += 1
                if u >= threshold:
                    continue  # the stop did not happen today
                if pool is not None:  # a flexible stop: today's venue is drawn
                    u = dbl[i]
                    i += 1
                    if u < exploration_prob:
                        # Explore: any venue of the category, anywhere in the city.
                        venue = None
                        if candidates:
                            k, i = integers(i, len(candidates))
                            venue = candidates[k]
                    else:
                        venue = pool[bisect_right(cdf, dbl[i])]
                        i += 1
                if venue is None:
                    continue
                u = dbl[i]
                i += 1
                if u >= p_checkin:
                    continue  # visited, but did not check in (voluntary sparsity)
                jitter, i = normal(i, jitter_min)
                minutes = hour * 60.0 + jitter
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
