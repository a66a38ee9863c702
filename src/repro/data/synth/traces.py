"""Raw GPS-trace simulation on top of the agent model.

Check-ins are sparse, voluntary point events; the DBSCAN+RNN prediction
baseline (paper ref [10]) instead consumes *continuous* GPS traces.  This
module turns an agent's day into such a trace: dwell fixes scattered around
each visited venue, walking fixes interpolated between venues at pedestrian
speed, all with GPS noise — the raw-signal counterpart of the same
ground-truth routine the check-in generator samples.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from datetime import date as date_type
from datetime import datetime, timedelta, timezone
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..records import Fix, Venue
from .agents import AgentProfile
from .city import SyntheticCity
from .config import SynthConfig
from .generator import _stop_plans

__all__ = ["TraceConfig", "simulate_day_trace", "simulate_traces"]


@dataclass(frozen=True)
class TraceConfig:
    """Sampling parameters of the simulated GPS receiver."""

    sample_interval_s: float = 120.0
    walking_speed_mps: float = 1.4
    gps_noise_m: float = 12.0
    dwell_minutes_mean: float = 45.0
    dwell_minutes_sigma: float = 15.0

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise ValueError("sample_interval_s must be positive")
        if self.walking_speed_mps <= 0:
            raise ValueError("walking_speed_mps must be positive")
        if self.gps_noise_m < 0:
            raise ValueError("gps_noise_m must be non-negative")
        if self.dwell_minutes_mean <= 0:
            raise ValueError("dwell_minutes_mean must be positive")


def _noisy_fix(
    ts: datetime, lat: float, lon: float, noise_m: float, rng: np.random.Generator
) -> Fix:
    dlat = rng.normal(0.0, noise_m) / 111_320.0
    dlon = rng.normal(0.0, noise_m) / (111_320.0 * max(np.cos(np.radians(lat)), 1e-6))
    return Fix(timestamp=ts, lat=lat + dlat, lon=lon + dlon)


def simulate_day_trace(
    agent: AgentProfile,
    city: SyntheticCity,
    day: date_type,
    rng: np.random.Generator,
    synth: SynthConfig,
    trace: TraceConfig = TraceConfig(),
) -> List[Fix]:
    """One agent-day as a GPS trace.

    Visits are sampled exactly like the check-in generator (same stop
    probabilities, same flexible venue choice); between consecutive visits
    the agent walks in a straight line at ``walking_speed_mps``; every
    ``sample_interval_s`` a noisy fix is emitted.
    """
    routine = agent.routine_for(day.weekday())
    visits: List[tuple] = []  # (hour, venue)
    for plan in _stop_plans(city, agent, routine, synth.stop_skip_noise, {}):
        if rng.random() >= plan.threshold:
            continue
        if plan.pool is None:
            venue = plan.venue
        elif rng.random() < synth.exploration_prob:
            candidates = plan.candidates
            venue = candidates[int(rng.integers(len(candidates)))] if candidates else None
        else:
            venue = plan.pool[bisect_right(plan.cdf, rng.random())]
        if venue is not None:
            visits.append((plan.hour, venue))
    if not visits:
        return []
    visits.sort(key=lambda pair: pair[0])

    day0 = datetime(day.year, day.month, day.day,
                    tzinfo=timezone(timedelta(minutes=synth.tz_offset_min)))
    fixes: List[Fix] = []
    interval = timedelta(seconds=trace.sample_interval_s)

    previous_venue: Optional[Venue] = None
    cursor: Optional[datetime] = None
    for hour, venue in visits:
        arrival = day0 + timedelta(hours=float(hour))
        if previous_venue is not None and cursor is not None:
            # Walk from the previous venue; clamp the leg so it fits the gap.
            distance = previous_venue.location.distance_to(venue.location)
            travel_s = distance / trace.walking_speed_mps
            available_s = max(0.0, (arrival - cursor).total_seconds())
            travel_s = min(travel_s, available_s)
            steps = int(travel_s // trace.sample_interval_s)
            for k in range(1, steps + 1):
                f = k / (steps + 1)
                ts = cursor + timedelta(seconds=k * trace.sample_interval_s)
                lat = previous_venue.lat + (venue.lat - previous_venue.lat) * f
                lon = previous_venue.lon + (venue.lon - previous_venue.lon) * f
                fixes.append(_noisy_fix(ts, lat, lon, trace.gps_noise_m, rng))
        # Dwell at the venue.
        dwell_min = max(10.0, rng.normal(trace.dwell_minutes_mean,
                                         trace.dwell_minutes_sigma))
        departure = arrival + timedelta(minutes=dwell_min)
        ts = arrival
        while ts <= departure:
            fixes.append(_noisy_fix(ts, venue.lat, venue.lon,
                                    trace.gps_noise_m, rng))
            ts += interval
        previous_venue = venue
        cursor = departure

    fixes.sort(key=lambda f: f.timestamp)
    return fixes


def simulate_traces(
    agents: Sequence[AgentProfile],
    city: SyntheticCity,
    days: Sequence[date_type],
    synth: SynthConfig,
    trace: TraceConfig = TraceConfig(),
    seed: int = 0,
) -> Dict[str, Dict[date_type, List[Fix]]]:
    """Traces for several agents over several days:
    ``{user_id: {day: [fixes]}}`` (empty days omitted)."""
    rng = np.random.default_rng(seed)
    out: Dict[str, Dict[date_type, List[Fix]]] = {}
    for agent in agents:
        per_day: Dict[date_type, List[Fix]] = {}
        for day in days:
            day_fixes = simulate_day_trace(agent, city, day, rng, synth, trace)
            if day_fixes:
                per_day[day] = day_fixes
        if per_day:
            out[agent.user_id] = per_day
    return out
