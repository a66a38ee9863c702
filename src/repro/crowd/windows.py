"""Time windows for the city-scale crowd view.

The crowd view steps through windows like "9–10 am" (Figs. 3–4).  Windows
are just labeled spans of time bins; :func:`windows_for`'s ``bins_per_window``
implements the paper's future-work feature of letting the operator scale the
time frame (e.g. from hourly to 3-hour windows) without re-mining anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from ..sequences import TimeBinning

__all__ = ["TimeWindow", "windows_for"]


@dataclass(frozen=True)
class TimeWindow:
    """A half-open span of time bins ``[start_bin, end_bin)`` of a binning."""

    start_bin: int
    end_bin: int
    binning: TimeBinning

    def __post_init__(self) -> None:
        if not (0 <= self.start_bin < self.end_bin <= self.binning.n_bins):
            raise ValueError(
                f"window bins [{self.start_bin}, {self.end_bin}) out of range "
                f"for {self.binning.n_bins} bins"
            )

    @property
    def bins(self) -> range:
        return range(self.start_bin, self.end_bin)

    @property
    def start_hour(self) -> float:
        return self.binning.bounds(self.start_bin)[0]

    @property
    def end_hour(self) -> float:
        return self.binning.bounds(self.end_bin - 1)[1]

    @property
    def label(self) -> str:
        """Label like ``"09:00-10:00"``."""
        return f"{TimeBinning._fmt(self.start_hour)}-{TimeBinning._fmt(self.end_hour)}"

    def __iter__(self) -> Iterator[int]:
        return iter(self.bins)


def windows_for(binning: TimeBinning, bins_per_window: int = 1) -> List[TimeWindow]:
    """Tile the day into consecutive windows of ``bins_per_window`` bins.

    The day must tile evenly (e.g. 24 hourly bins into 1/2/3/4/6/8/12-bin
    windows).
    """
    if bins_per_window < 1:
        raise ValueError("bins_per_window must be >= 1")
    if binning.n_bins % bins_per_window != 0:
        raise ValueError(
            f"{bins_per_window} bins per window does not tile {binning.n_bins} bins"
        )
    return [
        TimeWindow(start, start + bins_per_window, binning)
        for start in range(0, binning.n_bins, bins_per_window)
    ]
