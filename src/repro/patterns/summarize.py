"""Plain-language summaries of detected patterns.

The demo booth pitch of the paper is "select a user, see their routine".
These helpers render a profile as readable sentences for the CLI, the web
UI's user page, and the examples.
"""

from __future__ import annotations

from typing import List

from ..mining import SequentialPattern
from .model import UserPatternProfile

__all__ = ["describe_pattern", "summarize_profile"]


def describe_pattern(pattern: SequentialPattern, profile: UserPatternProfile) -> str:
    """One pattern as a sentence, e.g.
    ``"Eatery around 12:00-13:00, then Work around 14:00-15:00 — on 74% of days (56/76)"``.
    """
    steps = []
    for item in pattern.items:
        steps.append(f"{item.label} around {profile.binning.label(item.bin)}")
    route = ", then ".join(steps)
    return f"{route} — on {pattern.support:.0%} of days ({pattern.count}/{profile.n_days})"


def summarize_profile(profile: UserPatternProfile, k: int = 8) -> str:
    """A multi-line textual summary of a user's routine."""
    lines: List[str] = [
        f"User {profile.user_id}: {profile.n_patterns} patterns over "
        f"{profile.n_days} recorded days "
        f"(abstraction: {profile.level.value}, bins: {profile.binning.width_hours:g}h)"
    ]
    if not profile.patterns:
        lines.append("  no routine detected — not enough regular check-ins")
        return "\n".join(lines)
    for pattern in profile.top(k):
        lines.append(f"  - {describe_pattern(pattern, profile)}")
    remaining = profile.n_patterns - k
    if remaining > 0:
        lines.append(f"  … and {remaining} more")
    return "\n".join(lines)
