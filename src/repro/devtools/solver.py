"""The one worklist solver behind every crowdlint fixpoint.

Each analysis states its fixpoint as keys (functions, CFG blocks), an
``update`` that recomputes one key's value from the current state, and the
keys that read that value.  :func:`solve` runs the updates
to convergence.  There is no pass bound: every lattice the analyses use has
finite height, so each key can change only finitely often.

* entry locksets only shrink, from ⊤ (no caller seen) over a finite set of
  locks;
* thread-domain marks, may-raise sets and reaching definitions only grow.

Results never depend on the order files are listed in: every analysis seeds
the worklist from sorted keys, and each also ignores queue order outright —
it iterates a monotone function to its unique fixpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable, Iterable, TypeVar

__all__ = ["solve"]

K = TypeVar("K", bound=Hashable)


def solve(
    seeds: Iterable[K],
    update: Callable[[K], bool],
    dependents: Callable[[K], Iterable[K]],
) -> None:
    """Run ``update`` over a worklist until no key changes.

    ``update(key)`` returns ``True`` when it changed the key's value; every
    key in ``dependents(key)`` is then queued again (once, however often it
    is named).  The queue starts with ``seeds`` in the order given.
    """
    queue = deque(dict.fromkeys(seeds))
    queued = set(queue)
    while queue:
        key = queue.popleft()
        queued.discard(key)
        if update(key):
            for dependent in dependents(key):
                if dependent not in queued:
                    queued.add(dependent)
                    queue.append(dependent)
