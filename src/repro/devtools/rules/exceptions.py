"""CW106/CW107: bare excepts and swallowed exceptions.

A multi-stage aggregation pipeline that catches everything and continues
produces *partial* crowd maps that look complete.  Two rules:

* **CW106** — ``except:`` with no exception type also traps
  ``KeyboardInterrupt``/``SystemExit`` and hides programming errors.
* **CW107** — ``except Exception: pass`` (a broad catch whose body neither
  re-raises, logs, nor records anything) silently drops the failure.  Narrow
  catches (``except KeyError: pass``) are allowed: they encode an expected
  condition.
"""

from __future__ import annotations

import ast
import re

from ..engine import Edit, FileContext, Fix, Rule, register
from ..exceptions import _BROAD, _body_is_silent, _caught_type_names


@register
class BareExceptRule(Rule):
    id = "CW106"
    name = "bare-except"
    description = "except: with no exception type traps SystemExit and hides bugs."
    fixable = True

    _HEAD_RE = re.compile(r"except\s*:")

    def visit_ExceptHandler(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            fix = None
            match = self._HEAD_RE.match(ctx.text(node))
            if match:
                start, _ = ctx.span(node)
                fix = Fix(
                    edits=(Edit(start, start + match.end(), "except Exception:"),),
                    note="narrow to Exception (SystemExit/KeyboardInterrupt pass)",
                )
            ctx.report(
                self,
                node,
                "bare 'except:' — catch a specific exception type "
                "(or at least Exception)",
                fix=fix,
            )


@register
class SwallowedExceptionRule(Rule):
    id = "CW107"
    name = "swallowed-exception"
    description = (
        "Broad except Exception whose body silently discards the error."
    )

    def visit_ExceptHandler(self, ctx: FileContext, node: ast.ExceptHandler) -> None:
        if node.type is None:
            return  # CW106's finding; don't double-report
        if not any(name in _BROAD for name in _caught_type_names(node)):
            return
        if _body_is_silent(node.body):
            ctx.report(
                self,
                node,
                "broad exception swallowed silently; log it, re-raise, or "
                "narrow the caught type",
            )
