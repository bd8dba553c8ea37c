"""Repo-specific static analysis: the codebase's invariants as lint rules.

The train → stream → serve stack makes hard guarantees — bit-identical
rankings across shard counts and retrieval modes, seeded end-to-end
reproducibility, zero-stale hot swaps, disciplined lock and
shared-memory lifecycles.  Until this package existed those contracts
were enforced only by convention and by tests that had to remember to
check them; the PR 5 tie-break bug happened precisely because one call
site bypassed the :mod:`repro.core.topk` total order.  ``repro.analysis``
turns each hand-enforced contract into a machine-checked rule over the
stdlib ``ast``:

========  ==========================================================
REP001    determinism — no module-level / unseeded RNG outside
          ``repro.utils.rng``; thread seeded Generators everywhere
REP002    top-k total order — no raw ``argsort``/``argpartition``/
          ``sort`` on score arrays outside ``core/topk.py``
REP003    monotonic clocks — ``time.time()`` is for timestamps, not
          durations or deadlines
REP004    lock discipline — an attribute guarded by a lock somewhere
          in a class must be guarded everywhere (outside ``__init__``)
REP005    shared-memory lifecycle — ``SharedMemory``/``SharedFactors``
          creation needs a reachable ``close``/``unlink``/``release``
          in a ``finally`` block or a cleanup method
REP007    no ``print()`` in library code — use logging
REP008    no blocking calls (``time.sleep``, sync sockets, untimed
          ``queue.get``) on the gateway's asyncio event loop
========  ==========================================================

Run it as ``python -m repro.analysis [paths...]`` or ``python -m repro
lint``.  Findings can be suppressed inline with a justified comment::

    order = np.argsort(-scores)  # repro: noqa[REP002] -- full ranking, not a top-k

(the justification after ``--`` is mandatory; a bare ``noqa`` is itself
a finding), or grandfathered in a committed baseline file
(``analysis-baseline.json``) whose entries each carry a justification.
New rules plug in by subclassing :class:`~repro.analysis.registry.Rule`
and decorating with :func:`~repro.analysis.registry.register` — see
``docs/analysis.md``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, load_baseline, write_baseline
from repro.analysis.engine import AnalysisResult, run_analysis
from repro.analysis.findings import Finding, Severity, fingerprint
from repro.analysis.registry import Rule, all_rules, register
from repro.analysis.reporters import render_json, render_text

__all__ = [
    "AnalysisResult",
    "Baseline",
    "BaselineEntry",
    "Finding",
    "Rule",
    "Severity",
    "all_rules",
    "fingerprint",
    "load_baseline",
    "register",
    "render_json",
    "render_text",
    "run_analysis",
    "write_baseline",
]
