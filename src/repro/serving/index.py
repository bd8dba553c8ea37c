"""Taxonomy-pruned exact top-k retrieval for large catalogs.

The brute-force serving path scores every catalog item for every request
row — one ``(n_rows, n_items)`` GEMM plus a full-width partition.  That is
unbeatable for small catalogs, but at hundreds of thousands of items most
of the work scores items that never had a chance of entering the top-k.

:class:`SubtreeIndex` is a two-stage **exact** maximum-inner-product
retrieval layer that exploits the same structure the paper's model learns
from: the taxonomy.  Items under one subtree share the ancestor offsets of
Eq. 1, so their effective factors cluster tightly around the subtree's
ancestor sum — which makes per-subtree score upper bounds sharp enough to
prune with.

Build stage (once per model generation)
    Items are partitioned by their ancestor subtree at one taxonomy depth
    (:meth:`repro.taxonomy.tree.Taxonomy.item_groups_at_level`).  For each
    group the index precomputes its factor centroid ``c_g``, covering
    radius ``r_g = max_i ||f_i - c_g||``, and maximum chain bias.

Query stage (per batch)
    For every request row the Cauchy–Schwarz bound

    ``score(q, i) = q·f_i + b_i  <=  q·c_g + ||q||·r_g + max_bias_g``

    caps what any item of group ``g`` can score (with an all-zero
    centroid this reduces to the plain group-max-norm × query-norm
    bound).  Groups are scanned in descending bound order in blocks sized
    for one GEMM each; each block's local top-k page is folded into the
    row's running top-k with :func:`repro.core.topk.merge_top_k_pages`,
    and a row retires as soon as its running k-th score **strictly**
    beats the best bound of every unscanned group.

Exactness
---------
The result is *provably identical* to the brute-force ranking, including
tie behavior:

* every scanned item's score is the same dot product the dense pass
  computes, so scanned candidates sort identically;
* block pages and the running merge both order candidates by
  (score desc, item asc) — the deterministic total order
  :func:`repro.core.topk.top_k_rows` applies — so assembling the top-k
  from blocks cannot reorder or drop tied candidates;
* a row only stops once its k-th score is **strictly** above the bound of
  every remaining group, so an unscanned item can never tie its way into
  the top-k; with tied scores everywhere (bound never strictly beaten)
  the index degrades gracefully to a full — still exact — scan.

``benchmarks/bench_index.py`` enforces this bit-for-bit on a 100k-item
catalog (including forced score ties and fully-banned rows) and gates the
pruned path at >= 2x brute-force batch throughput at full scale.

Approximate tiers (``approx=True``)
-----------------------------------
Exactness caps how much the bound-ordered scan can skip: past ~1M items
the strict stop rule still touches most groups.  An index built with
``approx=True`` additionally serves two *sub-linear* plans through
:meth:`SubtreeIndex.search` that trade recall for throughput while
staying **deterministic**:

* ``RetrievalPlan("budget", budget=n)`` — the paper's cascaded-inference
  idea: per row, rank the subtree cells by the same Cauchy–Schwarz bound
  and stop selecting once the cumulative catalog-wide cell size reaches
  a node *budget*; only items of selected cells are scored.
* ``RetrievalPlan("ivf", nprobe=n)`` — classic IVF probing with the
  taxonomy as the coarse quantizer: per row, score only the
  top-``nprobe`` cells by centroid affinity.

Both select cells per row from **catalog-global** statistics (an
item-sliced shard still ranks the full catalog's cells and then scores
only its local members), so the selected candidate set — and therefore
the merged ranking — is a pure function of (model, plan): byte-identical
across runs *and* across shard counts.  A knob of ``None`` (or any knob
covering every cell) selects the whole catalog and is bit-identical to
:meth:`SubtreeIndex.top_k` / the dense pass; recall@k is monotone
non-decreasing in the knob because a larger budget/nprobe only ever
*adds* cells to each row's selection.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.topk import PAD_ITEM, merge_top_k_pages, top_k_rows
from repro.taxonomy.tree import Taxonomy

#: Relative inflation applied to precomputed radii/bias caps so float
#: rounding in the bound arithmetic can never undercut a true score.
_BOUND_SLACK = 1e-9

#: Every known-user ranking strategy the serving layer accepts: two exact
#: ("exact" dense pass, "pruned" SubtreeIndex scan with bit-identical
#: output) and two approximate-but-deterministic ("budget" bound-ordered
#: scan under a node budget, "ivf" top-nprobe cell probing).
RETRIEVAL_MODES = ("exact", "pruned", "budget", "ivf")

#: The subset of :data:`RETRIEVAL_MODES` that trades recall for speed.
#: Same model + same knobs still means byte-identical rankings across
#: runs and shard counts — approximate refers to recall, not determinism.
APPROX_RETRIEVAL_MODES = ("budget", "ivf")

#: The one mode each knob applies to.
_KNOB_MODES = {"budget": "budget", "nprobe": "ivf"}


def _count(name: str, value, minimum: int) -> int:
    """*value* as a plain int >= *minimum*; refuses floats, bools, strings."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


@dataclass(frozen=True)
class RetrievalPlan:
    """How known users are ranked against the catalog, as one value.

    Built once — by :class:`~repro.serving.service.RecommenderService`
    and :class:`~repro.serving.sharding.ShardRouter` from their
    ``retrieval=``/``budget=``/``nprobe=`` keywords, or by the CLI from
    its flags and the bundle's hints — and handed unchanged to every
    :meth:`SubtreeIndex.search`, in process or inside a shard worker.
    The constructor is the only place a mode or a knob is validated.

    Attributes
    ----------
    mode:
        One of :data:`RETRIEVAL_MODES`.
    budget:
        Per-row node budget of ``"budget"`` (``None`` = scan everything,
        the exact ranking); refused with any other mode.
    nprobe:
        Cells probed per row by ``"ivf"`` (``None`` = probe everything);
        refused with any other mode.
    level:
        Taxonomy depth of the index's subtree grouping (``None`` = auto),
        a build-time setting (the service's ``index_level=``).

    Knobs are integers — Python or numpy, never ``bool`` — at least 1
    (``level`` at least 0); anything else is refused, not truncated.

    Examples
    --------
    >>> RetrievalPlan("ivf", nprobe=4)
    RetrievalPlan(mode='ivf', budget=None, nprobe=4, level=None)
    >>> RetrievalPlan("budget", budget=7.9)
    Traceback (most recent call last):
        ...
    ValueError: budget must be an integer, got 7.9
    """

    mode: str = "exact"
    budget: Optional[int] = None
    nprobe: Optional[int] = None
    level: Optional[int] = None

    def __post_init__(self):
        if self.mode not in RETRIEVAL_MODES:
            raise ValueError(
                f"retrieval must be one of {'/'.join(RETRIEVAL_MODES)}, "
                f"got {self.mode!r}"
            )
        for name, mode in _KNOB_MODES.items():
            value = getattr(self, name)
            if value is None:
                continue
            if self.mode != mode:
                raise ValueError(
                    f"{name}= only applies to retrieval={mode!r}, "
                    f"got retrieval={self.mode!r}"
                )
            object.__setattr__(self, name, _count(name, value, 1))
        if self.level is not None:
            object.__setattr__(self, "level", _count("level", self.level, 0))

    @property
    def indexed(self) -> bool:
        """Whether a :class:`SubtreeIndex` serves it (all but ``"exact"``)."""
        return self.mode != "exact"

    @property
    def approx(self) -> bool:
        """Whether its index must be built with ``approx=True``."""
        return self.mode in APPROX_RETRIEVAL_MODES

    def keywords(self) -> dict:
        """The ``retrieval=``/``budget=``/``nprobe=`` keywords that rebuild
        this plan on :class:`~repro.serving.service.RecommenderService` or
        :class:`~repro.serving.sharding.ShardRouter` (``level`` travels as
        the service's ``index_level=``)."""
        return {"retrieval": self.mode, "budget": self.budget, "nprobe": self.nprobe}

    def check_cascade(self, cascade) -> None:
        """Refuse an index-backed plan together with cascaded inference.

        Shared by the service and the shard router, so a fleet and a
        single process refuse the same configurations with the same
        message.
        """
        if self.indexed and cascade is not None:
            raise ValueError(
                f"retrieval={self.mode!r} already prunes the catalog scan "
                "('pruned' exactly, 'budget'/'ivf' approximately) and cannot "
                "be combined with cascaded (approximate) inference; drop one"
            )


def _bound_stats(
    effective: np.ndarray, bias: np.ndarray, groups: Sequence[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group centroid, slack-inflated covering radius and max bias."""
    centroids = np.zeros((len(groups), effective.shape[1]))
    radii = np.zeros(len(groups))
    max_bias = np.zeros(len(groups))
    for g, rows in enumerate(groups):
        block = effective[rows]
        centroids[g] = block.mean(axis=0)
        radii[g] = np.sqrt(((block - centroids[g]) ** 2).sum(axis=1).max())
        max_bias[g] = bias[rows].max()
    scale = np.abs(max_bias) + radii + 1.0
    return centroids, radii + _BOUND_SLACK * scale, max_bias


def _bounds(queries, centroids, radii, max_bias) -> np.ndarray:
    """Cauchy–Schwarz caps ``q·c_g + ||q||·r_g + max_bias_g`` per row, group."""
    norms = np.linalg.norm(queries, axis=1)
    return queries @ centroids.T + norms[:, None] * radii[None, :] + max_bias[None, :]


def _ban(
    scores: np.ndarray,
    rows: np.ndarray,
    query_rows: np.ndarray,
    banned_rows: Optional[List[Optional[np.ndarray]]],
) -> None:
    """Score ``-inf`` where a query's banned row is among the scored *rows*.

    ``scores[slot]`` belongs to batch row ``query_rows[slot]``; *rows* are
    the ascending snapshot rows its columns scored.
    """
    if banned_rows is None:
        return
    for slot, row in enumerate(query_rows):
        hits = banned_rows[row]
        if hits is None:
            continue
        at = np.searchsorted(rows, hits)
        inside = at < rows.size
        at, hits = at[inside], hits[inside]
        at = at[rows[at] == hits]
        if at.size:
            scores[slot, at] = -np.inf


@dataclass(frozen=True)
class RetrievalPage:
    """The result of one pruned top-k batch.

    Attributes
    ----------
    items:
        ``(n_rows, width)`` int64 dense item indices, best first, padded
        with :data:`repro.core.topk.PAD_ITEM` — exactly what the
        brute-force ``top_k_rows`` pass would have returned.
    scores:
        Matching float scores (``-inf`` in pad slots), so callers merging
        further (the item-partitioned shard router) keep exact ordering.
    nodes_scored:
        Dot products actually computed — the paper's hardware-independent
        work measure; compare against ``n_rows * n_indexed`` for the
        brute-force cost.
    groups_scanned:
        Subtree groups whose items were scored (over all rows scanning
        stops independently, so this counts block work, not per-row work).
    """

    items: np.ndarray
    scores: np.ndarray
    nodes_scored: int
    groups_scanned: int


class SubtreeIndex:
    """Exact taxonomy-pruned top-k over a (subset of a) factored catalog.

    Parameters
    ----------
    effective:
        ``(n_catalog, K)`` effective item factors — the matrix the dense
        pass multiplies against (``FactorSet.effective_items()``).  A
        full-catalog index references it zero-copy (so a shard fleet
        never duplicates the factors); do not mutate it in place while
        the index is live — rebuild on ``swap_model`` instead, as the
        serving layer does.  Subset indexes gather a private copy of
        their rows.
    bias:
        ``(n_catalog,)`` summed chain biases (``bias_of_items()``).
    taxonomy:
        The item taxonomy the grouping is derived from.
    level:
        Taxonomy depth of the grouping subtrees.  Default (``None``)
        picks the depth whose group count is closest to
        ``sqrt(n_indexed)`` — balancing per-group bound sharpness against
        per-group scan overhead.
    items:
        Dense item indices this index covers (default: the whole
        catalog).  Item-partitioned shards index only their slice;
        returned pages still carry *global* dense indices.
    block_items:
        Minimum items per scan block: consecutive groups (in bound
        order) are packed until a block reaches this size, so each block
        is one worthwhile GEMM instead of one tiny GEMV per subtree.
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; each
        :meth:`top_k` / :meth:`search` call then records its wall time in the
        ``repro_index_scan_seconds`` histogram and its work in the
        ``repro_index_nodes_scored_total`` / ``repro_index_rows_total``
        counters (pruning effectiveness = nodes scored per row versus
        ``n_indexed``).  ``None`` (default) records nothing.
    approx:
        Build the approximate-query machinery on top of the exact scan:
        catalog-**global** cell statistics (anchors, centroids, radii,
        sizes at :attr:`level`, computed over *all* ``n_catalog`` items
        even when *items* restricts the scan to a slice) that
        the approximate plans of :meth:`search` select cells from.
        Global statistics are what make the approximate modes invariant
        to sharding: every item-sliced index ranks the same cells with
        the same keys, so the union of the slices' candidates is exactly
        the single-process candidate set.  When ``approx=True`` and
        *level* is ``None`` the grouping depth is also chosen from the
        full catalog, for the same reason.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.topk import top_k_rows
    >>> from repro.taxonomy.tree import Taxonomy
    >>> tax = Taxonomy([-1, 0, 0, 1, 1, 2, 2])    # two 2-leaf subtrees
    >>> rng = np.random.default_rng(0)
    >>> eff = rng.normal(size=(4, 3))
    >>> bias = rng.normal(size=4)
    >>> queries = rng.normal(size=(2, 3))
    >>> index = SubtreeIndex(eff, bias, tax, level=1)
    >>> page = index.top_k(queries, k=2)
    >>> bool(np.array_equal(page.items, top_k_rows(queries @ eff.T + bias, 2)))
    True
    """

    def __init__(
        self,
        effective: np.ndarray,
        bias: np.ndarray,
        taxonomy: Taxonomy,
        *,
        level: Optional[int] = None,
        items: Optional[np.ndarray] = None,
        block_items: int = 4096,
        registry=None,
        approx: bool = False,
    ):
        self._scan_seconds = None
        self._nodes_counter = None
        self._rows_counter = None
        if registry is not None:
            self._scan_seconds = registry.histogram(
                "repro_index_scan_seconds",
                help="Wall time of one pruned top-k batch scan.",
            )
            self._nodes_counter = registry.counter(
                "repro_index_nodes_scored_total",
                help="Dot products computed by pruned scans.",
            )
            self._rows_counter = registry.counter(
                "repro_index_rows_total",
                help="Query rows served by pruned scans.",
            )
        effective = np.asarray(effective, dtype=np.float64)
        bias = np.asarray(bias, dtype=np.float64)
        if effective.ndim != 2:
            raise ValueError(
                f"effective must be 2-d, got shape {effective.shape}"
            )
        if bias.shape != (effective.shape[0],):
            raise ValueError(
                f"bias shape {bias.shape} does not match "
                f"{effective.shape[0]} items"
            )
        if effective.shape[0] != taxonomy.n_items:
            raise ValueError(
                f"effective has {effective.shape[0]} rows for a taxonomy "
                f"of {taxonomy.n_items} items"
            )
        if block_items < 1:
            raise ValueError(f"block_items must be >= 1, got {block_items}")
        self.taxonomy = taxonomy
        #: The tree generation the cells were carved from — checkable
        #: against the serving state's version, so a refined taxonomy can
        #: never be paired with an index built over the previous tree.
        self.taxonomy_version = taxonomy.version
        self.block_items = int(block_items)
        self._n_catalog = int(effective.shape[0])

        if items is None:
            indexed = np.arange(self._n_catalog, dtype=np.int64)
        else:
            indexed = np.unique(np.asarray(items, dtype=np.int64))
            if indexed.size and (
                indexed[0] < 0 or indexed[-1] >= self._n_catalog
            ):
                raise ValueError(
                    f"items out of range 0..{self._n_catalog - 1}"
                )
        self._indexed_items = indexed
        self.approx = bool(approx)
        if level is None:
            # Approximate cell selection must rank the SAME cells on every
            # shard, so the default depth is chosen from the full catalog,
            # not from whatever slice this index happens to cover.
            pick_items = (
                np.arange(self._n_catalog, dtype=np.int64)
                if self.approx
                else indexed
            )
            self.level = self._pick_level(taxonomy, pick_items)
        else:
            self.level = int(level)
        if not 0 <= self.level <= taxonomy.max_depth:
            raise ValueError(
                f"level must be in 0..{taxonomy.max_depth}, got {self.level}"
            )

        # Full-catalog indexes reference the caller's matrices directly:
        # both serving call sites hand in freshly-computed (or shared,
        # read-only) snapshots and rebuild the index on every swap, and
        # copying here would duplicate the factors once per shard worker
        # — the very thing the shared-memory fleet design avoids.  Subset
        # indexes must gather their rows (fancy indexing copies anyway).
        if indexed.size == self._n_catalog:
            self._eff = np.ascontiguousarray(effective)
            self._bias = np.ascontiguousarray(bias)
        else:
            self._eff = np.ascontiguousarray(effective[indexed])
            self._bias = np.ascontiguousarray(bias[indexed])
        # Row position of each global item inside the snapshot (-1 when
        # the item is outside this index) — resolves banned-item ids.
        self._row_of = np.full(self._n_catalog, -1, dtype=np.int64)
        self._row_of[indexed] = np.arange(indexed.size)

        groups = taxonomy.item_groups_at_level(self.level, items=indexed)
        self.anchors = np.asarray(
            [node for node, _members in groups], dtype=np.int64
        )
        # Member ids are ascending and `indexed` is sorted, so the row
        # positions of each group are ascending in global item id too —
        # the order the determinism contract ranks ties by.
        self._group_rows: List[np.ndarray] = [
            self._row_of[members] for _node, members in groups
        ]
        self._group_sizes = np.asarray(
            [rows.size for rows in self._group_rows], dtype=np.int64
        )

        self._centroids, self._radii, self._max_bias = _bound_stats(
            self._eff, self._bias, self._group_rows
        )

        # Approximate-mode cell statistics, always over the FULL catalog:
        # item-sliced shard indexes must rank identical cells with
        # identical keys so the per-row selection is a global function of
        # (model, knob) — that is what makes budget/ivf rankings
        # invariant to the shard count.
        if self.approx:
            if indexed.size == self._n_catalog:
                self._cell_anchors = self.anchors
                self._cell_centroids = self._centroids
                self._cell_radii = self._radii
                self._cell_max_bias = self._max_bias
                self._cell_sizes = self._group_sizes
            else:
                cells = taxonomy.item_groups_at_level(self.level)
                self._cell_anchors = np.asarray(
                    [node for node, _members in cells], dtype=np.int64
                )
                members = [rows for _node, rows in cells]
                (
                    self._cell_centroids,
                    self._cell_radii,
                    self._cell_max_bias,
                ) = _bound_stats(effective, bias, members)
                self._cell_sizes = np.asarray(
                    [rows.size for rows in members], dtype=np.int64
                )
            # Position of each locally-present cell in the global ranking.
            self._local_cell = np.searchsorted(
                self._cell_anchors, self.anchors
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_indexed(self) -> int:
        """Number of catalog items this index covers."""
        return int(self._indexed_items.size)

    @property
    def n_groups(self) -> int:
        """Number of subtree groups the catalog is partitioned into."""
        return len(self._group_rows)

    @property
    def n_cells(self) -> int:
        """Catalog-global cell count the approximate modes select from.

        Raises :class:`ValueError` unless built with ``approx=True``.
        ``nprobe >= n_cells`` makes an ``"ivf"`` :meth:`search`
        exhaustive, the same way ``budget >= n_catalog`` does for a
        ``"budget"`` one.
        """
        self._require_approx("n_cells")
        return int(self._cell_anchors.size)

    def _require_approx(self, what: str) -> None:
        if not self.approx:
            raise ValueError(
                f"{what} requires an index built with approx=True "
                "(this one only supports the exact top_k scan)"
            )

    @staticmethod
    def _pick_level(taxonomy: Taxonomy, items: np.ndarray) -> int:
        """The deepest depth whose bound stage stays cheap.

        Deeper groupings are strictly better for pruning — smaller
        subtrees have smaller covering radii, so their Cauchy–Schwarz
        bounds hug the true scores tighter — until the per-group
        overhead (the ``(n_rows, n_groups)`` bound GEMM and the group
        bookkeeping) stops being negligible next to the scan it saves.
        Pick the deepest level with at most ``n_indexed / 8`` groups
        averaging at least 8 items each; fall back to the level whose
        group count is closest to ``sqrt(n_indexed)`` when no level
        qualifies (very flat or very skewed taxonomies).
        """
        if taxonomy.max_depth <= 1 or items.size == 0:
            return min(1, taxonomy.max_depth)
        counts = {}
        for level in range(1, taxonomy.max_depth + 1):
            anchors = taxonomy.item_category(items, level)
            counts[level] = int(np.unique(anchors).size)
        eligible = [
            level
            for level, count in counts.items()
            if count * 8 <= items.size
        ]
        if eligible:
            return max(eligible)
        target = np.sqrt(items.size)
        return min(counts, key=lambda level: abs(counts[level] - target))

    # ------------------------------------------------------------------
    # Query stage
    # ------------------------------------------------------------------
    def top_k(
        self,
        queries: np.ndarray,
        k: int,
        banned: Optional[Sequence[Optional[np.ndarray]]] = None,
    ) -> RetrievalPage:
        """Exact top-``k`` of the indexed items for a batch of queries.

        The reference scan (:meth:`search` under an ``"exact"`` or
        ``"pruned"`` plan).

        Parameters
        ----------
        queries:
            ``(n_rows, K)`` query vectors (``model.query_matrix`` output).
        k:
            Ranking depth; the page width is ``min(k, n_indexed)``.
        banned:
            Optional per-row arrays of *global* dense item indices to
            exclude (a user's past purchases); ids outside this index are
            ignored, banned slots score ``-inf`` exactly like the dense
            pass.

        Returns
        -------
        A :class:`RetrievalPage` whose ``items`` are bit-identical to
        ``top_k_rows`` over the dense scores of the indexed items.
        """
        return self.search(queries, k, banned)

    def search(
        self,
        queries: np.ndarray,
        k: int,
        banned: Optional[Sequence[Optional[np.ndarray]]] = None,
        plan: RetrievalPlan = RetrievalPlan(),
    ) -> RetrievalPage:
        """Top-``k`` under *plan* — the one entry point of every serving path.

        Takes the arguments of :meth:`top_k` plus the plan.  ``"exact"``
        and ``"pruned"`` plans run the exact scan.  The approximate plans
        need an index built with ``approx=True`` and score only a per-row
        selection of the catalog-global cells:

        * ``"budget"`` — the paper's cascaded-inference idea on the
          index's own ordering: cells are ranked by the same
          Cauchy–Schwarz bound the exact scan orders by and selected
          until the cumulative catalog-global cell size reaches
          ``plan.budget``, so the budget caps the dot products a row may
          spend, to within one cell (at least one cell is always
          selected);
        * ``"ivf"`` — the subtrees as an IVF coarse quantizer: cells are
          ranked by centroid affinity ``q·c_g + max_bias_g`` and only the
          top ``plan.nprobe`` are scored.

        Ties in the cell ranking break by ascending cell anchor.  A knob
        of ``None`` (or one covering every cell) selects the whole
        catalog and returns the exact ranking bit-for-bit; a larger knob
        only adds cells to each row's selection, so recall@k is monotone
        in it.  Because the selection is catalog-global even on an
        item-sliced index, merged shard pages reproduce the
        single-process ranking byte-for-byte for any shard count.
        ``plan.level`` is a build-time setting and is not read here.

        Examples
        --------
        >>> import numpy as np
        >>> from repro.taxonomy.tree import Taxonomy
        >>> tax = Taxonomy([-1, 0, 0, 1, 1, 2, 2])
        >>> rng = np.random.default_rng(0)
        >>> eff, bias = rng.normal(size=(4, 3)), rng.normal(size=4)
        >>> index = SubtreeIndex(eff, bias, tax, level=1, approx=True)
        >>> queries = rng.normal(size=(2, 3))
        >>> plan = RetrievalPlan("budget", budget=4)
        >>> exhaustive = index.search(queries, 2, plan=plan)
        >>> bool(np.array_equal(exhaustive.items, index.top_k(queries, 2).items))
        True
        """
        if plan.approx:
            self._require_approx(f"retrieval={plan.mode!r}")
            scan = functools.partial(self._scan_cells, plan=plan)
        else:
            scan = self._scan_exact
        started = time.perf_counter()
        queries = np.asarray(queries, dtype=np.float64)
        if queries.ndim != 2:
            raise ValueError(
                f"queries must be 2-d, got shape {queries.shape}"
            )
        n_rows = queries.shape[0]
        width = min(int(k), self.n_indexed)
        items_out = np.full((n_rows, width), PAD_ITEM, dtype=np.int64)
        scores_out = np.full((n_rows, width), -np.inf)
        if width <= 0 or n_rows == 0 or self.n_groups == 0:
            return RetrievalPage(items_out, scores_out, 0, 0)
        if banned is not None and len(banned) != n_rows:
            raise ValueError(
                f"got {len(banned)} banned rows for {n_rows} queries"
            )
        # Each scan fills the padded page in place and reports its work.
        nodes_scored, groups_scanned = scan(
            queries, self._resolve_banned(banned, n_rows), items_out, scores_out
        )
        if self._scan_seconds is not None:
            self._scan_seconds.observe(
                max(0.0, time.perf_counter() - started)
            )
            self._nodes_counter.inc(nodes_scored)
            self._rows_counter.inc(n_rows)
        return RetrievalPage(items_out, scores_out, nodes_scored, groups_scanned)

    def _scan_exact(
        self,
        queries: np.ndarray,
        banned_rows: Optional[List[Optional[np.ndarray]]],
        items_out: np.ndarray,
        scores_out: np.ndarray,
    ) -> Tuple[int, int]:
        """Blocked descending-bound scan with a per-row strict early stop."""
        width = items_out.shape[1]
        # Stage 1: per-row group bounds, one shared scan order (by mean
        # bound), and per-row suffix maxima so each row knows the best
        # bound among the groups it has not scanned yet.
        bounds = _bounds(queries, self._centroids, self._radii, self._max_bias)
        shared = np.argsort(-bounds.mean(axis=0), kind="stable")
        ordered = bounds[:, shared]
        suffix = np.maximum.accumulate(ordered[:, ::-1], axis=1)[:, ::-1]

        # Stage 2: blocked descending-bound scan with per-row early stop.
        active = np.arange(queries.shape[0])
        nodes_scored = 0
        groups_scanned = 0
        n_groups = self.n_groups
        g_pos = 0
        while g_pos < n_groups:
            # A row retires once its running k-th score STRICTLY beats
            # the best remaining bound: an unscanned item then scores
            # strictly below the k-th and cannot tie its way in.
            keep = ~(scores_out[active, width - 1] > suffix[active, g_pos])
            active = active[keep]
            if active.size == 0:
                break
            g_end = g_pos
            packed = 0
            while g_end < n_groups and (packed < self.block_items or g_end == g_pos):
                packed += int(self._group_sizes[shared[g_end]])
                g_end += 1
            rows = np.concatenate(
                [self._group_rows[shared[g]] for g in range(g_pos, g_end)]
            )
            # Ascending snapshot row == ascending global item id, so the
            # block-local tie order below matches the global contract.
            rows.sort()
            ids = self._indexed_items[rows]
            scores = queries[active] @ self._eff[rows].T + self._bias[rows]
            nodes_scored += scores.size
            groups_scanned += g_end - g_pos
            _ban(scores, rows, active, banned_rows)
            local = top_k_rows(scores, width)
            looked = np.clip(local, 0, None)
            page_scores = np.take_along_axis(scores, looked, axis=1)
            page_scores[local < 0] = -np.inf
            page_items = np.where(local >= 0, ids[looked], PAD_ITEM)
            merged_items, merged_scores = merge_top_k_pages(
                [items_out[active], page_items],
                [scores_out[active], page_scores],
                width,
            )
            items_out[active] = merged_items
            scores_out[active] = merged_scores
            g_pos = g_end
        return nodes_scored, groups_scanned

    def _select_cells(
        self, queries: np.ndarray, plan: RetrievalPlan
    ) -> np.ndarray:
        """Per-row boolean selection over the catalog-global cells.

        A pure per-row function of (model statistics, *plan*): no batch
        aggregate enters the keys, so a row selects the same cells
        whatever batch — or shard — it arrives in.  Selections are
        nested in the knob (a prefix of the same per-row cell ranking),
        which is what makes recall monotone in budget/nprobe.  ``ivf`` is
        the budget rule with a unit cost per cell.
        """
        n_cells = self._cell_anchors.size
        budgeted = plan.mode == "budget"
        knob = plan.budget if budgeted else plan.nprobe
        if knob is None:
            return np.ones((queries.shape[0], n_cells), dtype=bool)
        if budgeted:
            keys = _bounds(
                queries, self._cell_centroids, self._cell_radii, self._cell_max_bias
            )
            cost = self._cell_sizes
        else:
            keys = queries @ self._cell_centroids.T + self._cell_max_bias
            cost = np.ones(n_cells, dtype=np.int64)
        # Full per-row ranking under the global (key desc, cell asc)
        # order — cell positions are ascending anchors, so top_k_rows'
        # ascending-index tie-break is the ascending-anchor tie-break.
        order = top_k_rows(keys, n_cells)
        sizes = cost[order]
        spent = np.cumsum(sizes, axis=1) - sizes
        selected = np.zeros(order.shape, dtype=bool)
        np.put_along_axis(selected, order, spent < knob, axis=1)
        return selected

    def _scan_cells(
        self,
        queries: np.ndarray,
        banned_rows: Optional[List[Optional[np.ndarray]]],
        items_out: np.ndarray,
        scores_out: np.ndarray,
        plan: RetrievalPlan,
    ) -> Tuple[int, int]:
        """Score only the selected cells; merge under the global order."""
        # Candidate pool: per row, the local members of its selected
        # cells, gathered into one padded (ids, scores) page and merged
        # once under the global (score desc, item asc) order.  Pad slots
        # carry (PAD_ITEM, -inf), which the merge never promotes.
        n_rows = queries.shape[0]
        local_selected = self._select_cells(queries, plan)[:, self._local_cell]
        counts = (local_selected * self._group_sizes[None, :]).sum(axis=1)
        pool = int(counts.max())  # the batch has at least one row
        if pool == 0:
            return 0, 0
        pool_items = np.full((n_rows, pool), PAD_ITEM, dtype=np.int64)
        pool_scores = np.full((n_rows, pool), -np.inf)
        fill = np.zeros(n_rows, dtype=np.int64)
        nodes_scored = 0
        groups_scanned = 0
        for g in range(self.n_groups):
            hit = np.flatnonzero(local_selected[:, g])
            if hit.size == 0:
                continue
            rows = self._group_rows[g]
            ids = self._indexed_items[rows]
            scores = queries[hit] @ self._eff[rows].T + self._bias[rows]
            nodes_scored += scores.size
            groups_scanned += 1
            _ban(scores, rows, hit, banned_rows)
            for slot, row in enumerate(hit):
                offset = fill[row]
                pool_items[row, offset : offset + ids.size] = ids
                pool_scores[row, offset : offset + ids.size] = scores[slot]
                fill[row] += ids.size
        merged_items, merged_scores = merge_top_k_pages(
            [pool_items], [pool_scores], items_out.shape[1]
        )
        got = merged_items.shape[1]
        items_out[:, :got] = merged_items
        scores_out[:, :got] = merged_scores
        return nodes_scored, groups_scanned

    def _resolve_banned(
        self,
        banned: Optional[Sequence[Optional[np.ndarray]]],
        n_rows: int,
    ) -> Optional[List[Optional[np.ndarray]]]:
        """Per-row banned ids mapped to sorted snapshot row positions."""
        if banned is None:
            return None
        resolved: List[Optional[np.ndarray]] = []
        any_banned = False
        for row_banned in banned:
            if row_banned is None or len(row_banned) == 0:
                resolved.append(None)
                continue
            positions = self._row_of[np.asarray(row_banned, dtype=np.int64)]
            positions = np.sort(positions[positions >= 0])
            if positions.size:
                resolved.append(positions)
                any_banned = True
            else:
                resolved.append(None)
        return resolved if any_banned else None

    def __repr__(self) -> str:
        approx = ", approx=True" if self.approx else ""
        return (
            f"SubtreeIndex(n_indexed={self.n_indexed}, "
            f"n_groups={self.n_groups}, level={self.level}{approx})"
        )
