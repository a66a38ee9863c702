"""Execution backends: serial or multi-process fan-out with ordered merge.

Phase 2 of the pipeline mines every user independently and phase 3 renders
every time window independently — both are embarrassingly parallel.  This
package is the one place that knows how to fan such per-item work out over
a :class:`concurrent.futures.ProcessPoolExecutor` while keeping the output
*deterministic*: results are always merged back in input order, so the
process backend is output-identical to the serial one.

The package sits below every analytics layer (it imports nothing from the
rest of ``repro``); callers pass an :class:`ExecConfig` down from
:class:`repro.pipeline.PipelineConfig` or the CLI's ``--workers`` flag.
"""

from .config import ExecConfig
from .pool import ordered_map

__all__ = ["ExecConfig", "ordered_map"]
