"""CW3xx — the concurrency pack.

The execution layer's contract (PR 2) is that ``exec.ordered_map`` is
output-identical to a serial loop, and worker processes re-import every
module they run.  This rule checks what that re-import does:

* **CW302** — fork-unsafe module-level side effects: locks, threads,
  pools, sockets, open file handles, or global-RNG seeding executed at
  import time.  Worker processes re-import the module; each worker then
  owns a *different* copy of the resource (or, under ``fork``, an
  inherited lock in an undefined state).
"""

from __future__ import annotations

import ast

from ..engine import FileContext, Rule, register
from .common import callee_name, identifier_of

#: Constructors whose module-level invocation is a fork hazard.
_FORK_UNSAFE_CONSTRUCTORS = frozenset({
    "Barrier", "BoundedSemaphore", "Condition", "Event", "Lock", "Manager",
    "Pool", "ProcessPoolExecutor", "RLock", "Semaphore", "Thread",
    "ThreadPoolExecutor", "Timer",
    "open", "socket", "connect", "create_connection", "urlopen",
})


@register
class ForkUnsafeModuleInitRule(Rule):
    id = "CW302"
    name = "fork-unsafe-module-init"
    description = (
        "Module-level creation of locks/threads/pools/sockets/files or "
        "global-RNG seeding — worker re-imports duplicate the resource."
    )

    def check_module(self, ctx: FileContext) -> None:
        if not ctx.module or not ctx.module.startswith("repro"):
            return  # library code is what workers re-import
        for call in ctx.flow.module_toplevel_calls():
            name = callee_name(call)
            if name in _FORK_UNSAFE_CONSTRUCTORS:
                ctx.report(
                    self,
                    call,
                    f"{name}() at import time is fork-unsafe: every worker "
                    "process re-runs it and owns a divergent copy; create it "
                    "lazily inside a function",
                )
            elif name == "seed" and isinstance(call.func, ast.Attribute):
                if identifier_of(call.func.value) == "random":
                    ctx.report(
                        self,
                        call,
                        "seeding the global RNG at import time hides the seed "
                        "from callers and resets on every worker re-import; "
                        "thread an explicit Generator instead",
                    )
