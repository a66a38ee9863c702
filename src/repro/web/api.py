"""The platform's JSON API, as plain functions over a pipeline result.

Keeping the API socket-free (dicts in, dicts out) makes it directly
testable; :mod:`repro.web.server` only adds HTTP plumbing on top.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..analysis import user_mobility_metrics
from ..crowd import build_animation, detect_communities, detect_spikes, window_flows
from ..data import dataset_stats
from ..pipeline import PipelineResult
from .tiles import TileIndex

__all__ = ["CrowdWebAPI"]


class CrowdWebAPI:
    """Query surface of the platform (users, patterns, crowd, flows)."""

    def __init__(self, result: PipelineResult) -> None:
        self.result = result
        self.tiles = TileIndex(result.grid, result.timeline)

    # --------------------------------------------------------------- users

    def users(self) -> Dict:
        """All users with their headline pattern stats."""
        rows = []
        for user_id in sorted(self.result.profiles):
            profile = self.result.profiles[user_id]
            rows.append(
                {
                    "user_id": user_id,
                    "n_patterns": profile.n_patterns,
                    "n_days": profile.n_days,
                    "top_labels": profile.labels()[:5],
                }
            )
        return {"n_users": len(rows), "users": rows}

    def user(self, user_id: str) -> Optional[Dict]:
        """One user's full profile, or ``None`` if unknown."""
        profile = self.result.profiles.get(user_id)
        if profile is None:
            return None
        return profile.to_dict()

    # --------------------------------------------------------------- crowd

    def crowd(self, bin_index: int) -> Dict:
        """The crowd snapshot whose window starts at ``bin_index``."""
        timeline = self.result.timeline
        n = len(timeline)
        if not (0 <= bin_index < n):
            raise IndexError(f"bin {bin_index} out of range [0, {n})")
        return timeline[bin_index].to_dict()

    def crowd_summary(self) -> Dict:
        """Occupancy of every window (the time slider's data)."""
        return {
            "windows": [
                {"index": i, "label": snap.window.label, "n_users": snap.n_users}
                for i, snap in enumerate(self.result.timeline)
            ]
        }

    def flows(self, bin_index: int) -> Dict:
        """Flows from window ``bin_index`` to the next window."""
        timeline = self.result.timeline
        n = len(timeline)
        if not (0 <= bin_index < n - 1):
            raise IndexError(f"flow source bin {bin_index} out of range [0, {n - 1})")
        flows = window_flows(timeline[bin_index], timeline[bin_index + 1])
        return {
            "from": timeline[bin_index].window.label,
            "to": timeline[bin_index + 1].window.label,
            "flows": [
                {
                    "origin": list(f.origin),
                    "destination": list(f.destination),
                    "users": list(f.user_ids),
                }
                for f in flows
            ],
        }

    def animation(self, steps_per_transition: int = 3) -> Dict:
        """The crowd-movement animation frame sequence."""
        frames = build_animation(self.result.timeline, steps_per_transition)
        return {"n_frames": len(frames), "frames": [f.to_dict() for f in frames]}

    def occupancy(self) -> Dict:
        """Per-microcell occupancy over all windows (the heatmap's data)."""
        matrix = self.result.timeline.cell_occupancy_matrix()
        return {
            "windows": [snap.window.label for snap in self.result.timeline],
            "cells": [
                {"cell": list(cell), "cell_id": self.result.grid.cell(cell).cell_id,
                 "counts": counts}
                for cell, counts in sorted(matrix.items())
            ],
        }

    # --------------------------------------------------------------- tiles

    def tile(self, z: int, x: int, y: int, window: int = 9) -> Dict:
        """One city-view tile: aggregated cells at zoom ``z`` (see tiles.py)."""
        return self.tiles.tile(z, x, y, window)

    def tile_scheme(self) -> Dict:
        """The tile coordinate scheme (zooms, factors, grid bbox)."""
        return self.tiles.scheme()

    # --------------------------------------------------------- communities

    def communities(self, min_similarity: float = 0.05) -> Dict:
        """Behavioural communities over the profiled users."""
        communities = detect_communities(self.result.profiles,
                                         min_similarity=min_similarity)
        return {
            "min_similarity": min_similarity,
            "communities": [
                {"id": c.community_id, "size": c.size, "users": list(c.user_ids)}
                for c in communities
            ],
        }

    def spikes(self, z_threshold: float = 4.0) -> Dict:
        """Crowd-anomaly spikes detected in the pipeline's dataset."""
        found = detect_spikes(self.result.dataset, self.result.grid,
                              z_threshold=z_threshold)
        return {
            "z_threshold": z_threshold,
            "spikes": [
                {
                    "day": spike.day.isoformat(),
                    "cell": list(spike.cell),
                    "cell_id": self.result.grid.cell(spike.cell).cell_id,
                    "count": spike.count,
                    "baseline_mean": round(spike.baseline_mean, 2),
                    "z_score": round(spike.z_score, 2),
                    "n_users": spike.n_users,
                }
                for spike in found[:50]
            ],
        }

    # ----------------------------------------------------------- analytics

    def user_metrics(self, user_id: str) -> Optional[Dict]:
        """Mobility analytics for one user, or ``None`` if unknown/too thin."""
        if user_id not in self.result.profiles:
            return None
        try:
            metrics = user_mobility_metrics(self.result.dataset, user_id)
        except ValueError:
            return None
        return {
            "user_id": metrics.user_id,
            "n_checkins": metrics.n_checkins,
            "n_distinct_venues": metrics.n_distinct_venues,
            "radius_of_gyration_m": round(metrics.radius_of_gyration_m, 1),
            "median_jump_m": round(metrics.median_jump_m, 1),
            "top_location_share": round(metrics.top_location_share, 4),
            "entropy_random": round(metrics.s_random, 4),
            "entropy_uncorrelated": round(metrics.s_uncorrelated, 4),
            "entropy_estimated": round(metrics.s_estimated, 4),
            "predictability_bound": round(metrics.predictability_bound, 4),
        }

    # --------------------------------------------------------------- stats

    def stats(self) -> Dict:
        """Dataset statistics of the filtered dataset the pipeline used."""
        stats = dataset_stats(self.result.dataset)
        payload = {key: value for key, value in stats.as_rows()}
        payload["preprocess"] = {k: v for k, v in self.result.report.as_rows()}
        return payload
