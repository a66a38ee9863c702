"""How fast a CPU of this host runs Python right now.

On a shared virtual machine the speed of the same Python work drifts by up
to 2x over seconds to minutes, and the two vCPUs drift apart from each
other.  No statistic over one run removes a drift that lasts longer than
the run.  What does track it is the same CPU's speed on a fixed loop,
probed close in time to the measured work: over 0.1 s slices of a JSON
round trip or of pipe syscalls alternated with 2 ms probes on one vCPU,
the work's rate varied by 9-15% (coefficient of variation over 4-10 s
spans), and its ratio to the probe's rate by 2-4%.

So every timed figure of an untraced run is scaled to a fixed reference
speed: ``time_at_reference = wall_time * speed / REFERENCE``.  A change to
CrowdWeb moves the wall time and not the probe, so it moves the figure in
full; host drift moves both, and cancels.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Iterable, Optional

#: Fixed loops per probe.  One loop takes about 25 us, so a probe under 2 ms.
LOOPS = 64
#: Loops per second that count as the reference speed: about the speed of
#: one vCPU of the 2-vCPU Xeon host (2.1 GHz, Python 3.11) this benchmark
#: was written on when its neighbours were quiet, so figures read close to
#: that host's wall-clock times then.
REFERENCE = 40_000.0


def _loop() -> None:
    counts = {}
    for i in range(300):
        counts[i % 97] = counts.get(i % 97, 0) + i


def probe(cpus: Optional[Iterable[int]] = None) -> float:
    """Loops per second of the fixed loop, on ``cpus`` when given.

    The median loop time is robust to the odd preemption, which matters
    when the probe shares its CPU with a running build.  The calling
    thread's affinity is restored afterwards.
    """
    saved = os.sched_getaffinity(0) if cpus else None
    if cpus:
        os.sched_setaffinity(0, set(cpus))
    try:
        clock = time.perf_counter
        times = []
        for _ in range(LOOPS):
            start = clock()
            _loop()
            times.append(clock() - start)
    finally:
        if saved:
            os.sched_setaffinity(0, saved)
    return 1.0 / statistics.median(times)
