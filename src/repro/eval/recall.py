"""Recall-versus-throughput curves for approximate retrieval modes.

The exact serving paths (``retrieval="exact"`` / ``"pruned"``) return
provably identical rankings, so they need no quality measurement.  The
approximate tiers (``retrieval="budget"`` / ``"ivf"``) trade recall for
throughput behind a single knob — this module measures that trade so the
knob can be *chosen* instead of guessed:

* :func:`recall_vs_reference` — mean per-row overlap between an
  approximate ranking page and the exact reference (the standard
  recall@k of ANN evaluation);
* :func:`sweep_recall` — run a :class:`~repro.serving.index.SubtreeIndex`
  over a grid of budgets and nprobes and emit a
  :class:`RecallCurve`: one :class:`RecallPoint` per operating point with
  its recall@k, scan time, rows/sec, and the fraction of the catalog it
  actually scored.

``benchmarks/bench_index.py`` archives the curve in ``BENCH_index.json``
and gates the shipped operating points (>= 95% recall@10 at >= 5x
brute-force throughput on the full-mode catalog); the property suite in
``tests/test_retrieval_properties.py`` uses the same helpers to assert
recall is monotone non-decreasing in the knob.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.serving.index import RetrievalPlan, SubtreeIndex


def recall_vs_reference(
    candidate_items: np.ndarray, reference_items: np.ndarray
) -> float:
    """Mean per-row fraction of the reference ranking that was recovered.

    Both arguments are ``(n_rows, k)`` ranking pages as the serving paths
    return them — int64 item indices, best first, padded with ``-1``.
    Order inside a page is ignored (recall, not rank correlation); pad
    slots are ignored on both sides.  Rows whose reference page holds no
    real items (fully-banned users, empty catalogs) are skipped; if every
    row is skipped the recall is defined as ``1.0`` — there was nothing
    to miss.

    Examples
    --------
    >>> import numpy as np
    >>> approx = np.array([[3, 1, -1], [9, 8, 7]])
    >>> exact = np.array([[1, 2, 3], [7, 8, 9]])
    >>> round(recall_vs_reference(approx, exact), 4)
    0.8333
    """
    candidate_items = np.asarray(candidate_items, dtype=np.int64)
    reference_items = np.asarray(reference_items, dtype=np.int64)
    if candidate_items.ndim != 2 or reference_items.ndim != 2:
        raise ValueError(
            f"ranking pages must be 2-d, got {candidate_items.shape} "
            f"and {reference_items.shape}"
        )
    if candidate_items.shape[0] != reference_items.shape[0]:
        raise ValueError(
            f"got {candidate_items.shape[0]} candidate rows for "
            f"{reference_items.shape[0]} reference rows"
        )
    fractions: List[float] = []
    for row in range(reference_items.shape[0]):
        wanted = reference_items[row]
        wanted = wanted[wanted >= 0]
        if wanted.size == 0:
            continue
        got = candidate_items[row]
        got = got[got >= 0]
        hits = int(np.isin(wanted, got).sum())
        fractions.append(hits / wanted.size)
    if not fractions:
        return 1.0
    return float(np.mean(fractions))


@dataclass(frozen=True)
class RecallPoint:
    """One measured operating point of an approximate retrieval mode.

    Attributes
    ----------
    mode:
        ``"budget"`` or ``"ivf"``.
    knob:
        The budget / nprobe value measured (``None`` = exhaustive).
    recall:
        recall@k against the exact reference ranking (1.0 = identical
        candidate sets).
    seconds:
        Total scan wall time over all repeats.
    rows_per_second:
        Query rows ranked per second of scan time.
    nodes_scored:
        Dot products one sweep pass computed (the paper's
        hardware-independent work measure).
    scanned_fraction:
        ``nodes_scored / (n_rows * n_indexed)`` — the fraction of the
        brute-force work this operating point actually did.
    """

    mode: str
    knob: Optional[int]
    recall: float
    seconds: float
    rows_per_second: float
    nodes_scored: int
    scanned_fraction: float

    def as_dict(self) -> Dict[str, object]:
        """Flat JSON-ready summary (one curve sample)."""
        return {
            "mode": self.mode,
            "knob": self.knob,
            "recall": self.recall,
            "seconds": self.seconds,
            "rows_per_second": self.rows_per_second,
            "nodes_scored": self.nodes_scored,
            "scanned_fraction": self.scanned_fraction,
        }


@dataclass(frozen=True)
class RecallCurve:
    """A recall@k-vs-throughput sweep over budget / nprobe grids.

    ``points`` holds one :class:`RecallPoint` per measured knob, budget
    points first (in the order swept), then nprobe points.
    """

    k: int
    n_rows: int
    n_indexed: int
    points: Tuple[RecallPoint, ...]

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready payload (what the benchmark archives)."""
        return {
            "k": self.k,
            "n_rows": self.n_rows,
            "n_indexed": self.n_indexed,
            "points": [point.as_dict() for point in self.points],
        }

    def best(
        self, mode: str, min_recall: float
    ) -> Optional[RecallPoint]:
        """The fastest measured *mode* point with recall >= *min_recall*.

        ``None`` when no swept knob reaches the floor — the caller
        should widen the sweep rather than ship a knob that misses its
        recall target.
        """
        eligible = [
            point
            for point in self.points
            if point.mode == mode and point.recall >= min_recall
        ]
        if not eligible:
            return None
        return max(eligible, key=lambda point: point.rows_per_second)


def sweep_recall(
    index: SubtreeIndex,
    queries: np.ndarray,
    *,
    k: int = 10,
    budgets: Sequence[int] = (),
    nprobes: Sequence[int] = (),
    banned: Optional[Sequence[Optional[np.ndarray]]] = None,
    repeats: int = 1,
) -> RecallCurve:
    """Measure recall@*k* and scan throughput over knob grids.

    The exact reference is one :meth:`SubtreeIndex.top_k` pass (provably
    identical to brute force), so the sweep never materializes a dense
    ``(n_rows, n_items)`` score matrix.  Each knob is scanned *repeats*
    times; the recorded seconds cover all repeats and
    ``rows_per_second`` amortizes over them, damping timer noise on
    small catalogs.

    Parameters
    ----------
    index:
        A :class:`~repro.serving.index.SubtreeIndex` built with
        ``approx=True``.
    queries:
        ``(n_rows, K)`` query vectors, as the serving paths produce.
    k:
        Ranking depth of both the reference and the approximate pages.
    budgets, nprobes:
        Knob grids to sweep (either may be empty).
    banned:
        Optional per-row banned ids, forwarded to every scan — sweep
        with the same bans the serving path would apply.
    repeats:
        Scans averaged per point (>= 1).
    """
    if not index.approx:
        raise ValueError(
            "sweep_recall needs an index built with approx=True"
        )
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    queries = np.asarray(queries, dtype=np.float64)
    reference = index.top_k(queries, k, banned=banned)
    points: List[RecallPoint] = []
    n_rows = int(queries.shape[0])
    brute_nodes = max(1, n_rows * index.n_indexed)
    grids = [("budget", "budget", budgets), ("ivf", "nprobe", nprobes)]
    for mode, knob_name, knob_values in grids:
        for knob in knob_values:
            plan = RetrievalPlan(mode, **{knob_name: knob})
            started = time.perf_counter()
            for _ in range(repeats):
                page = index.search(queries, k, banned, plan)
            seconds = max(time.perf_counter() - started, 1e-12)
            points.append(
                RecallPoint(
                    mode=mode,
                    knob=getattr(plan, knob_name),
                    recall=recall_vs_reference(
                        page.items, reference.items
                    ),
                    seconds=seconds,
                    rows_per_second=n_rows * repeats / seconds,
                    nodes_scored=int(page.nodes_scored),
                    scanned_fraction=page.nodes_scored / brute_nodes,
                )
            )
    return RecallCurve(
        k=int(k),
        n_rows=n_rows,
        n_indexed=int(index.n_indexed),
        points=tuple(points),
    )
