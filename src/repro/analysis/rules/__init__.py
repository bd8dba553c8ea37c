"""The shipped invariant rules.

Importing this package registers every rule module with
:mod:`repro.analysis.registry`; a new rule is a new module here plus an
import line below (deliberately explicit, so grep finds the full rule
set and no filesystem scanning happens at import time).
"""

from repro.analysis.rules import (  # noqa: F401  (imports register the rules)
    asyncblocking,
    clocks,
    determinism,
    locks,
    noprint,
    sharedmem,
    topk,
)

__all__ = [
    "asyncblocking",
    "clocks",
    "determinism",
    "locks",
    "noprint",
    "sharedmem",
    "topk",
]
