"""Synthetic GTSM data: the paper-dataset substitution (see DESIGN.md §2)."""

from .agents import AgentProfile, RoutineStop, build_agents
from .city import Neighborhood, SyntheticCity, build_city
from .config import SMALL_CONFIG, CityEvent, SynthConfig
from .generator import GenerationResult, generate, small_dataset, synthetic_dataset
from .traces import TraceConfig, simulate_day_trace, simulate_traces

__all__ = [
    "AgentProfile",
    "CityEvent",
    "GenerationResult",
    "Neighborhood",
    "RoutineStop",
    "SMALL_CONFIG",
    "SyntheticCity",
    "SynthConfig",
    "TraceConfig",
    "build_agents",
    "build_city",
    "generate",
    "simulate_day_trace",
    "simulate_traces",
    "small_dataset",
    "synthetic_dataset",
]
