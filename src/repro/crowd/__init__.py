"""Crowd layer: synchronization, aggregation, snapshots, flows, animation."""

from .aggregate import CrowdAggregator, CrowdTimeline
from .animation import AnimatedDot, AnimationFrame, build_animation
from .anomaly import CellSpike, detect_spikes
from .communities import Community, detect_communities, similarity_links
from .flows import Flow, timeline_flows, window_flows
from .forecast import ForecastEvaluation, evaluate_crowd_forecast, observed_occupancy
from .snapshot import CrowdGroup, CrowdSnapshot
from .sync import UserPlacement, VisitIndex, place_user
from .windows import TimeWindow, windows_for

__all__ = [
    "AnimatedDot",
    "AnimationFrame",
    "CellSpike",
    "Community",
    "CrowdAggregator",
    "CrowdGroup",
    "CrowdSnapshot",
    "CrowdTimeline",
    "Flow",
    "ForecastEvaluation",
    "TimeWindow",
    "UserPlacement",
    "VisitIndex",
    "build_animation",
    "detect_communities",
    "detect_spikes",
    "evaluate_crowd_forecast",
    "observed_occupancy",
    "place_user",
    "similarity_links",
    "timeline_flows",
    "window_flows",
    "windows_for",
]
