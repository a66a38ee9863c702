"""Crowd-movement animation frames (the paper's stated future work).

"In the future, we plan to ... automate the crowd movement animation."
This module builds that feature: a frame sequence interpolating each user's
position between consecutive window placements, ready for the SVG renderer
or the web UI to play back.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .aggregate import CrowdTimeline

__all__ = ["AnimatedDot", "AnimationFrame", "build_animation"]


@dataclass(frozen=True)
class AnimatedDot:
    """One user's rendered position in one frame."""

    user_id: str
    lat: float
    lon: float
    label: str
    moving: bool


@dataclass(frozen=True)
class AnimationFrame:
    """One rendered instant: interpolation ``t`` between two windows."""

    window_label: str
    t: float  # 0.0 = at the from-window placement, 1.0 = at the to-window one
    dots: Tuple[AnimatedDot, ...]

    def to_dict(self) -> Dict:
        return {
            "window": self.window_label,
            "t": round(self.t, 4),
            "dots": [
                {
                    "user_id": d.user_id,
                    "lat": d.lat,
                    "lon": d.lon,
                    "label": d.label,
                    "moving": d.moving,
                }
                for d in self.dots
            ],
        }


def _lerp(a: float, b: float, t: float) -> float:
    return a + (b - a) * t


def build_animation(
    timeline: CrowdTimeline, steps_per_transition: int = 4
) -> List[AnimationFrame]:
    """Interpolated frames across the whole timeline.

    Each consecutive window pair contributes ``steps_per_transition`` frames.
    Users present in both windows glide linearly between their placements;
    users present in only one window appear static in the frames of that
    window's side.  A final resting frame shows the last window.
    """
    if steps_per_transition < 1:
        raise ValueError("steps_per_transition must be >= 1")
    snaps = list(timeline)
    frames: List[AnimationFrame] = []
    if not snaps:
        return frames

    for a, b in zip(snaps, snaps[1:]):
        at_a = {p.user_id: p for p in a.placements}
        at_b = {p.user_id: p for p in b.placements}
        for step in range(steps_per_transition):
            t = step / steps_per_transition
            dots: List[AnimatedDot] = []
            for user_id, pa in sorted(at_a.items()):
                pb = at_b.get(user_id)
                if pb is None:
                    dots.append(AnimatedDot(user_id, pa.lat, pa.lon, pa.label, moving=False))
                else:
                    moving = (pa.lat, pa.lon) != (pb.lat, pb.lon)
                    dots.append(
                        AnimatedDot(
                            user_id,
                            _lerp(pa.lat, pb.lat, t),
                            _lerp(pa.lon, pb.lon, t),
                            pb.label if t >= 0.5 else pa.label,
                            moving=moving and 0.0 < t,
                        )
                    )
            frames.append(AnimationFrame(window_label=a.window.label, t=t, dots=tuple(dots)))

    last = snaps[-1]
    frames.append(
        AnimationFrame(
            window_label=last.window.label,
            t=0.0,
            dots=tuple(
                AnimatedDot(p.user_id, p.lat, p.lon, p.label, moving=False)
                for p in sorted(last.placements, key=lambda p: p.user_id)
            ),
        )
    )
    return frames
