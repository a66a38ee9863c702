"""Deterministic parallel map over a process pool.

``ordered_map`` is the execution layer's single primitive: apply a picklable
function to every item and return the results *in input order*, regardless
of which worker finished first.  Because each item is processed
independently and the merge is ordered, the process pool is
output-identical to the in-process loop — the parity suite asserts this for
the mining fan-out.

Every call runs in an ``exec.ordered_map`` span and each task's latency
lands in the ``repro_exec_task_latency_s`` histogram (both no-ops when
observability is off, :mod:`repro.obs`).  Task time is measured wherever
the task runs, inside the worker for the process pool (the wrapper returns
``(elapsed, result)`` pairs, unwrapped at the parent), so pickling overhead
is visible as the gap between summed task time and wall clock — surfaced as
the ``repro_exec_worker_utilization_ratio`` gauge.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from typing import Callable, Iterable, List, Optional, Tuple, TypeVar

from ..obs import get_observer
from .config import ExecConfig

__all__ = ["ordered_map"]

ItemT = TypeVar("ItemT")
ResultT = TypeVar("ResultT")

#: The function being mapped, installed into each worker process by the
#: pool initializer so it (and any shared context bound into a partial) is
#: pickled once per worker instead of once per chunk.
_worker_fn: Optional[Callable] = None


def _install_worker_fn(fn: Callable) -> None:
    global _worker_fn
    _worker_fn = fn


def _apply_worker_fn(item):
    assert _worker_fn is not None, "worker pool used before initialization"
    return _worker_fn(item)


def _timed_call(fn: Callable[[ItemT], ResultT], item: ItemT) -> Tuple[float, ResultT]:
    """Apply ``fn`` and return ``(elapsed_seconds, result)``.

    Module-level so the process pool can ship it as a partial; the timing
    happens wherever the work happens (worker process included).
    """
    start = time.perf_counter()
    result = fn(item)
    return time.perf_counter() - start, result


def _chunk_size(n_items: int, workers: int) -> int:
    """Items per pickled work unit: about four chunks per worker (amortizes
    argument pickling while keeping the pool load-balanced)."""
    return max(1, -(-n_items // (workers * 4)))


def _pool_map(fn: Callable, items: List, workers: int) -> List:
    """Map ``fn`` over ``items`` on ``workers`` processes, in input order.

    On failure the queued chunks are cancelled: without that, the ``with``
    block's ``shutdown(wait=True)`` finishes every queued chunk before the
    worker's exception re-raises — at real scale that is minutes of doomed
    work after the first failure.
    """
    chunk_size = _chunk_size(len(items), workers)
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_install_worker_fn, initargs=(fn,)
    ) as pool:
        try:
            # Executor.map preserves submission order, which is all the
            # determinism guarantee needs.
            return list(pool.map(_apply_worker_fn, items, chunksize=chunk_size))
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise


def _task_label(fn: Callable, label: str) -> str:
    if label:
        return label
    return getattr(getattr(fn, "func", fn), "__name__", "task")


def ordered_map(
    fn: Callable[[ItemT], ResultT],
    items: Iterable[ItemT],
    config: ExecConfig = ExecConfig(),
    label: str = "",
) -> List[ResultT]:
    """Apply ``fn`` to every item, returning results in input order.

    A resolved worker count of one simply loops in-process.  More workers
    require ``fn`` and the items to be picklable: pass a module-level
    function, or a ``functools.partial`` of one carrying the shared
    read-only context — it is shipped once per worker via the pool
    initializer, so only the items and results cross the process boundary
    per chunk.

    ``label`` names the task family in observability output (metric labels,
    span attributes); it defaults to the mapped function's name.
    """
    items = list(items)
    workers = config.resolve_workers(len(items))
    observer = get_observer()
    name = _task_label(fn, label)
    with observer.span(
        "exec.ordered_map", label=name, n_items=len(items), workers=workers
    ) as span:
        wall0 = time.perf_counter()
        timed_fn = partial(_timed_call, fn)
        if workers <= 1:
            timed = [timed_fn(item) for item in items]
        else:
            timed = _pool_map(timed_fn, items, workers)
        wall_s = time.perf_counter() - wall0

        busy_s = 0.0
        results: List[ResultT] = []
        for task_s, result in timed:
            busy_s += task_s
            observer.observe("repro_exec_task_latency_s", task_s, label=name)
            results.append(result)
        utilization = busy_s / (workers * wall_s) if wall_s > 0 else 0.0
        observer.inc("repro_exec_tasks_total", len(items), label=name)
        observer.set_gauge(
            "repro_exec_worker_utilization_ratio", round(utilization, 4), label=name
        )
        span.set("utilization", round(utilization, 4))
    return results
