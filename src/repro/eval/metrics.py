"""Ranking metrics (paper Sec. 7.3) plus standard IR extras.

The paper reports two metrics:

* **AUC** — ``1/(|T||X\\T|) Σ_{x∈T, y∉T} δ(r(x) < r(y))``: the probability
  that a random bought item outranks a random non-bought item;
* **average mean rank** — the mean (1-based, best = 1) rank of the bought
  items, averaged per user then across users; more sensitive than AUC when
  the candidate set is huge.

Ties are handled by mid-rank averaging (Mann-Whitney convention), which is
what makes cascaded inference's ``-inf`` scores for pruned items behave as
"random order among the pruned".  The top-*k* membership metrics
(hit/precision/recall/NDCG) select through :func:`repro.core.topk.top_k`,
so a tie straddling the k-th score resolves to the same candidates every
ranking path in the library would serve.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.topk import top_k


def _as_positive_indices(positives: Iterable[int], size: int) -> np.ndarray:
    idx = np.unique(np.asarray(list(positives), dtype=np.int64))
    if idx.size and (idx.min() < 0 or idx.max() >= size):
        raise ValueError("positive index out of range")
    return idx


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ascending ranks; each run of tied values gets its mean rank.

    A stable sort groups equal values into runs; a run occupying sorted
    positions ``i..j`` (0-based) ranks ``(i + j + 2) / 2``, which is exact
    in float64.  ``-inf`` ties like any other value.  Any NaN makes every
    rank NaN, so metrics built on the ranks come out NaN as well.

    Examples
    --------
    >>> average_ranks(np.array([3.0, 1.0, 3.0, -np.inf]))
    array([3.5, 2. , 3.5, 1. ])
    """
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        return np.full(values.size, np.nan)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def ranks_from_scores(scores: np.ndarray) -> np.ndarray:
    """1-based descending ranks with tie averaging (best score → rank 1)."""
    scores = np.asarray(scores, dtype=np.float64)
    return scores.size + 1.0 - average_ranks(scores)


def auc(scores: np.ndarray, positives: Iterable[int]) -> float:
    """The paper's AUC over one candidate list.

    Equivalent to the Mann-Whitney statistic: ties count one half.
    Returns ``nan`` when there are no positives or no negatives.
    """
    scores = np.asarray(scores, dtype=np.float64)
    pos = _as_positive_indices(positives, scores.size)
    n_pos = pos.size
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return float("nan")
    ascending = average_ranks(scores)
    pos_rank_sum = float(ascending[pos].sum())
    u_statistic = pos_rank_sum - n_pos * (n_pos + 1) / 2.0
    return u_statistic / (n_pos * n_neg)


def mean_rank(scores: np.ndarray, positives: Iterable[int]) -> float:
    """Mean 1-based rank of the positives (ties averaged; 1 = best)."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = _as_positive_indices(positives, scores.size)
    if pos.size == 0:
        return float("nan")
    return float(ranks_from_scores(scores)[pos].mean())


def hit_at_k(scores: np.ndarray, positives: Iterable[int], k: int) -> float:
    """1.0 if any positive appears in the top *k*, else 0.0."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = set(int(p) for p in _as_positive_indices(positives, scores.size))
    if not pos:
        return float("nan")
    top = top_k(scores, min(k, scores.size))
    return 1.0 if any(int(t) in pos for t in top) else 0.0


def precision_at_k(scores: np.ndarray, positives: Iterable[int], k: int) -> float:
    """Fraction of the top *k* that are positives."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = set(int(p) for p in _as_positive_indices(positives, scores.size))
    if not pos:
        return float("nan")
    k = min(k, scores.size)
    top = top_k(scores, k)
    return sum(1 for t in top if int(t) in pos) / k


def recall_at_k(scores: np.ndarray, positives: Iterable[int], k: int) -> float:
    """Fraction of the positives that appear in the top *k*."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = set(int(p) for p in _as_positive_indices(positives, scores.size))
    if not pos:
        return float("nan")
    top = top_k(scores, min(k, scores.size))
    return sum(1 for t in top if int(t) in pos) / len(pos)


def reciprocal_rank(scores: np.ndarray, positives: Iterable[int]) -> float:
    """1 / rank of the best-ranked positive (ties averaged)."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = _as_positive_indices(positives, scores.size)
    if pos.size == 0:
        return float("nan")
    return float(1.0 / ranks_from_scores(scores)[pos].min())


def ndcg_at_k(scores: np.ndarray, positives: Iterable[int], k: int) -> float:
    """Binary-relevance NDCG@k."""
    scores = np.asarray(scores, dtype=np.float64)
    pos = set(int(p) for p in _as_positive_indices(positives, scores.size))
    if not pos:
        return float("nan")
    k = min(k, scores.size)
    order = top_k(scores, k)
    gains = np.array([1.0 if int(i) in pos else 0.0 for i in order])
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    dcg = float((gains * discounts[: gains.size]).sum())
    ideal_hits = min(len(pos), k)
    ideal = float(discounts[:ideal_hits].sum())
    return dcg / ideal if ideal > 0 else float("nan")


def nanmean(values: Sequence[float]) -> float:
    """Mean ignoring NaNs; NaN when every value is NaN (no warning)."""
    arr = np.asarray(list(values), dtype=np.float64)
    good = arr[~np.isnan(arr)]
    return float(good.mean()) if good.size else float("nan")
