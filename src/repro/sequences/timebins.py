"""Time-of-day binning for pattern items and crowd windows.

CrowdWeb annotates every visit with a coarse time-of-day bin ("9–10 am") and
aligns crowds on those bins.  ``TimeBinning`` maps local hours to bin
indexes; bins are half-open ``[start, end)`` and tile the 24-hour day.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np

__all__ = ["TimeBinning", "HOURLY"]


@dataclass(frozen=True)
class TimeBinning:
    """Partition the day into equal bins of ``width_hours``.

    ``width_hours`` must divide 24 evenly so bins tile the day exactly.
    """

    width_hours: float = 1.0

    def __post_init__(self) -> None:
        if self.width_hours <= 0:
            raise ValueError("bin width must be positive")
        n = 24.0 / self.width_hours
        if abs(n - round(n)) > 1e-9:
            raise ValueError(f"bin width {self.width_hours} must divide 24 evenly")

    @property
    def n_bins(self) -> int:
        return round(24.0 / self.width_hours)

    def bin_of_hour(self, hour: float) -> int:
        """Bin index of a local hour in [0, 24)."""
        if not (0.0 <= hour < 24.0):
            raise ValueError(f"hour {hour} out of range [0, 24)")
        return min(int(hour / self.width_hours), self.n_bins - 1)

    def bins_of_seconds(self, seconds: np.ndarray) -> np.ndarray:
        """Bin indexes of local times of day given in whole seconds.

        Each second's float hour ``h + m / 60 + s / 3600``, truncated into
        its bin as :meth:`bin_of_hour` does; ``tests/sequences/test_timebins.py``
        checks every second of the day against a scalar ``datetime`` reading.
        """
        hour = seconds // 3600 + (seconds // 60 % 60) / 60.0 + (seconds % 60) / 3600.0
        return np.minimum((hour / self.width_hours).astype(np.int64), self.n_bins - 1)

    def bounds(self, bin_index: int) -> Tuple[float, float]:
        """(start_hour, end_hour) of a bin."""
        if not (0 <= bin_index < self.n_bins):
            raise ValueError(f"bin index {bin_index} out of range [0, {self.n_bins})")
        return bin_index * self.width_hours, (bin_index + 1) * self.width_hours

    def label(self, bin_index: int) -> str:
        """Human label like ``"09:00-10:00"``."""
        start, end = self.bounds(bin_index)
        return f"{self._fmt(start)}-{self._fmt(end)}"

    @staticmethod
    def _fmt(hour: float) -> str:
        h = int(hour)
        m = int(round((hour - h) * 60))
        if m == 60:
            h, m = h + 1, 0
        return f"{h:02d}:{m:02d}"

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_bins))


#: The paper's crowd views step in one-hour windows ("9–10 am").
HOURLY = TimeBinning(1.0)
