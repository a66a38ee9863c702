"""The execution-layer configuration knob."""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = ["ExecConfig"]


@dataclass(frozen=True)
class ExecConfig:
    """How per-item work (per-user mining, per-window snapshots) executes.

    Parameters
    ----------
    workers:
        What a ``--workers N`` CLI flag means: ``1`` (the default) runs
        in-process, ``N > 1`` fans items out over ``N`` worker processes
        with a deterministic ordered merge, and ``0`` uses every core.  A
        resolved count of one runs in-process (a single worker would only
        add pickling overhead).
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be non-negative (0 = all cores)")

    def resolve_workers(self, n_items: int) -> int:
        """Effective worker count for ``n_items`` work items."""
        if self.workers == 1 or n_items <= 1:
            return 1
        workers = self.workers or (os.cpu_count() or 1)
        return max(1, min(workers, n_items))
