"""Batch-first request routing: the single front door for inference.

:class:`RecommenderService` is what a web tier would talk to.  Each request
is ``(user, k, history)`` and is routed by user type (Sec. 1's three
serving situations):

* **known user** — scored against the trained factors, either exactly (one
  vectorized pass over the items) or through
  :class:`~repro.core.cascade.CascadedRecommender` when a cascade is
  configured (Sec. 5.1);
* **cold user with a history** — folded in against frozen factors via
  :class:`~repro.serving.coldstart.FoldInRecommender`;
* **cold user without a history** — popularity fallback.

Known-user query vectors (``v^U_u + ctx``) are memoized in a bounded LRU
cache, so repeat traffic skips the context reconstruction entirely; every
request is accounted in :class:`ServingStats` (work in scored nodes, cache
hits, latency percentiles).  ``recommend_batch`` is the production path: it
serves all known users of a batch with one BLAS product and one row-wise
partition.

Hot swap
--------
The service supports **zero-downtime model replacement**: everything a
request needs (model, factor snapshots, fold-in adapter, cascade, history
log, fallback) lives in one immutable :class:`ModelState` that each request
reads exactly once, so a request in flight keeps scoring against a
consistent model while :meth:`RecommenderService.swap_model` installs a new
one.  Swapping (or :meth:`invalidate_cache`) bumps a **generation counter**
on the query-vector cache: entries written by requests that started before
the swap are rejected, so a post-swap request can never be served a vector
computed against retired factors.  ``repro.streaming`` drives this to apply
online updates between full retrains.
"""

from __future__ import annotations

import copy
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cascade import CascadedRecommender
from repro.core.popularity import PopularityModel
from repro.core.tf_model import TaxonomyFactorModel
from repro.core.topk import top_k_rows
from repro.data.transactions import TransactionLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.serving.coldstart import FoldInRecommender
from repro.serving.index import (  # noqa: F401 - re-exported
    APPROX_RETRIEVAL_MODES,
    RETRIEVAL_MODES,
    RetrievalPlan,
    SubtreeIndex,
)
from repro.serving.protocol import History
from repro.taxonomy.version import TaxonomyVersion
from repro.utils.config import CascadeConfig
from repro.utils.rng import RngLike


class ServingError(RuntimeError):
    """A request cannot be routed (e.g. no fallback model configured)."""


#: Sliding window of per-request latencies kept for percentile reporting.
#: Counters (requests, seconds, ...) are exact forever; only the latency
#: *distribution* is windowed, so a long-lived service stays bounded.
LATENCY_WINDOW = 10_000

#: Counter fields a ServingStats accounts, in as_dict order.  All are
#: integers except ``seconds``.
_STAT_FIELDS = (
    "requests",
    "known_user_requests",
    "fold_in_requests",
    "fallback_requests",
    "cache_hits",
    "cache_misses",
    "nodes_scored",
    "swaps",
    "seconds",
)


class ServingStats:
    """Cumulative accounting of everything the service has served.

    Since 1.6 the class is a thin view over a
    :class:`~repro.obs.metrics.MetricsRegistry`: every counter field
    (``requests``, ``nodes_scored``, ...) is backed by a Prometheus-style
    counter (``repro_serving_requests_total``, ...) and the latency
    distribution by the fixed-bucket histogram
    ``repro_serving_request_latency_seconds`` — so percentiles are O(1)
    per observation and ``registry.snapshot()`` exports everything the
    attribute API reports.  The public surface (field reads, :meth:`add`,
    :meth:`record_latency`, ``p50``/``p95``, :meth:`as_dict`) is
    unchanged.

    ``nodes_scored`` counts affinity dot products (the paper's
    hardware-independent work measure); :attr:`latencies` additionally
    keeps a bounded window of the most recent :data:`LATENCY_WINDOW`
    amortized per-call latencies for exact-sample inspection — a
    ``deque(maxlen=...)``, so recording is O(1), not the old list-slice
    trim, and a batch records **one** amortized entry instead of
    materializing ``count`` duplicates.

    Mutations go through :meth:`add` / :meth:`record_latency`; each
    backing instrument holds its own lock — the service promises requests
    keep flowing from multiple threads during a hot swap, and racy ``+=``
    read-modify-writes would silently drop counts under exactly that
    load.

    Parameters
    ----------
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` to record into; a
        private one is created when omitted.  Pass a shared registry to
        combine serving metrics with streaming/training telemetry in one
        snapshot.
    labels:
        Optional constant labels stamped on every backing series (the
        shard fleet uses ``{"shard": "3"}``).
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.labels = dict(labels) if labels else {}
        self._counters = {
            name: self.registry.counter(
                f"repro_serving_{name}_total",
                help=f"Cumulative serving {name.replace('_', ' ')}.",
                labels=self.labels,
            )
            for name in _STAT_FIELDS
        }
        self._latency = self.registry.histogram(
            "repro_serving_request_latency_seconds",
            help="Amortized per-request latency distribution.",
            labels=self.labels,
        )
        self._lock = threading.Lock()
        self._window: deque = deque(maxlen=LATENCY_WINDOW)

    def __getattr__(self, name: str):
        # Only consulted for attributes not found normally: resolve the
        # stat fields from their backing counters (ints except seconds).
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            value = counters[name].value
            return value if name == "seconds" else int(value)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    @property
    def latencies(self) -> List[float]:
        """The recent amortized per-call latencies (bounded window).

        One entry per :meth:`record_latency` call — a batch contributes a
        single amortized value, not ``count`` duplicates.  Percentiles
        (:meth:`latency_percentile`) come from the histogram, which
        weights batches by their request count; this window is the raw
        sample view for debugging and tests.
        """
        with self._lock:
            return list(self._window)

    @property
    def latency_histogram(self):
        """The backing request-latency :class:`~repro.obs.metrics.Histogram`."""
        return self._latency

    def add(self, **deltas: float) -> None:
        """Atomically increment the named counters."""
        counters = self._counters
        for name, delta in deltas.items():
            counter = counters.get(name)
            if counter is None:
                raise AttributeError(f"unknown serving stat {name!r}")
            counter.inc(delta)

    def record_latency(self, seconds: float, count: int = 1) -> None:
        """Account *count* requests served in *seconds* total — O(1).

        The histogram takes one weighted observation of the amortized
        per-request latency (``seconds / count`` with weight *count*) and
        the sample window keeps one amortized entry per call, so a 10k
        batch costs the same as a single request.
        """
        if count < 1:
            return
        amortized = seconds / count
        self._counters["requests"].inc(count)
        self._counters["seconds"].inc(max(0.0, seconds))
        self._latency.observe(max(0.0, amortized), count=count)
        with self._lock:
            self._window.append(amortized)

    def latency_percentile(self, q: float) -> float:
        """The *q*-th percentile of per-request latency, in seconds.

        Interpolated from the fixed-bucket histogram (every request ever
        recorded, batches weighted by size); ``nan`` when empty.
        """
        return self._latency.percentile(q)

    @property
    def p50(self) -> float:
        """Median per-request latency (histogram-interpolated), seconds."""
        return self.latency_percentile(50.0)

    @property
    def p95(self) -> float:
        """95th-percentile per-request latency, seconds."""
        return self.latency_percentile(95.0)

    @property
    def p99(self) -> float:
        """99th-percentile per-request latency, seconds."""
        return self.latency_percentile(99.0)

    @property
    def requests_per_second(self) -> float:
        """Lifetime throughput: requests divided by serving seconds."""
        seconds = self.seconds
        if seconds <= 0:
            return float("nan")
        return self.requests / seconds

    def as_dict(self) -> Dict[str, float]:
        """Flat summary (for logs, the CLI, and the benchmark payloads)."""
        summary: Dict[str, float] = {
            name: getattr(self, name) for name in _STAT_FIELDS
        }
        summary["requests_per_second"] = self.requests_per_second
        summary["latency_p50"] = self.p50
        summary["latency_p95"] = self.p95
        summary["latency_p99"] = self.p99
        return summary


class QueryVectorCache:
    """Bounded LRU map from user id to query vector (``capacity <= 0``
    disables caching).

    The cache is **generation-stamped**: :meth:`invalidate` clears all
    entries and bumps :attr:`generation`.  ``get``/``put`` accept the
    generation the caller's model state was built at; a mismatch is treated
    as a miss (``get``) or silently dropped (``put``), so a request that
    started before a model swap can neither read vectors computed for the
    new model nor poison the cache with vectors from the retired one.

    All operations hold one internal lock: the hot-swap design promises
    requests keep flowing from multiple threads during a swap, and an
    unlocked ``get`` racing a ``put`` eviction would raise ``KeyError``
    inside a live request.
    """

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self.generation = 0
        self._lock = threading.Lock()
        self._data: "OrderedDict[int, np.ndarray]" = OrderedDict()

    def get(
        self, user: int, generation: Optional[int] = None
    ) -> Optional[np.ndarray]:
        """The cached vector for *user*, or ``None`` on miss/stale stamp."""
        with self._lock:
            if generation is not None and generation != self.generation:
                return None
            vector = self._data.get(user)
            if vector is not None:
                self._data.move_to_end(user)
            return vector

    def put(
        self, user: int, vector: np.ndarray, generation: Optional[int] = None
    ) -> None:
        """Insert *vector* for *user*; dropped when *generation* is stale."""
        with self._lock:
            if self.capacity <= 0:
                return
            if generation is not None and generation != self.generation:
                return
            self._data[user] = vector
            self._data.move_to_end(user)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def invalidate(self) -> int:
        """Drop every entry and retire the current generation.

        Returns the new generation number; only puts stamped with it are
        accepted afterwards.
        """
        with self._lock:
            self.generation += 1
            self._data.clear()
            return self.generation

    def clear(self) -> None:
        """Drop every entry without retiring the current generation."""
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)


@dataclass(frozen=True)
class ModelState:
    """Everything one request needs, captured in a single attribute read.

    Immutable so that a swap can never expose a half-updated service to a
    request already in flight: either the whole old state or the whole new
    one.  ``generation`` stamps cache traffic (see :class:`QueryVectorCache`).

    The state is public API: :attr:`RecommenderService.model_state` hands
    out the current snapshot so external machinery — most importantly the
    :mod:`repro.serving.sharding` fleet, which exports the state's factor
    matrices into ``multiprocessing.shared_memory`` — can read one
    coherent (model, history, fallback, cascade, generation) tuple without
    racing a concurrent hot swap.

    Attributes
    ----------
    model:
        The fitted model all scoring runs against.
    history_log:
        History source for Markov context and purchased-item exclusion.
    popularity:
        Cold-user fallback (``None`` when unconfigured).
    cascade:
        Taxonomy-pruned inference wrapper (``None`` = exact scoring).
    fold_in:
        Adapter serving cold users with a history.
    effective, bias:
        Snapshots of the model's effective item factors and chain biases —
        the matrices one batched scoring pass multiplies against.
    generation:
        The cache generation this state was installed at.
    index:
        The :class:`~repro.serving.index.SubtreeIndex` built over this
        state's factor snapshots for the service's
        :class:`~repro.serving.index.RetrievalPlan` (``None`` for the
        ``"exact"`` dense pass; built with ``approx=True`` for the
        approximate modes).  Rebuilt by every swap, so it can never serve
        retired factors.
    taxonomy_version:
        The :class:`~repro.taxonomy.version.TaxonomyVersion` of the tree
        this state serves.  Everything in the state — factors, index,
        cascade — was derived from that one tree generation, so a single
        attribute read answers "which (model, taxonomy) generation am I
        on?" coherently even mid-swap.
    """

    model: TaxonomyFactorModel
    history_log: Optional[TransactionLog]
    popularity: Optional[PopularityModel]
    cascade: Optional[CascadedRecommender]
    fold_in: FoldInRecommender
    effective: np.ndarray
    bias: np.ndarray
    generation: int
    index: Optional[SubtreeIndex] = None
    taxonomy_version: Optional[TaxonomyVersion] = None


class RecommenderService:
    """Route recommendation requests to the right inference path.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.tf_model.TaxonomyFactorModel` (or
        :class:`~repro.core.mf_model.MFModel`).
    history_log:
        Per-user purchase histories for Markov context and purchased-item
        exclusion; defaults to the log the model was trained on.  When
        given, the service works on a shallow copy of the model with this
        log attached, so the query-vector context and the exclusion masks
        come from the same source (the standard pattern after
        ``ModelBundle.load``) without mutating the caller's model.
    popularity:
        Fallback for cold users without a history.  Built automatically
        from *history_log* when omitted.
    cascade:
        A :class:`~repro.utils.config.CascadeConfig` (or prebuilt
        :class:`~repro.core.cascade.CascadedRecommender`) to serve known
        users through taxonomy-pruned inference instead of the exact pass.
    fold_in_steps, fold_in_seed:
        Fold-in SGD budget and seed for cold users with a history.
    cache_size:
        Capacity of the known-user query-vector LRU cache (0 disables).
    retrieval:
        ``"exact"`` (default) ranks known users with one dense pass over
        the whole catalog; ``"pruned"`` serves the *same rankings* —
        bit-identical, ties included — through a
        :class:`~repro.serving.index.SubtreeIndex` that scans taxonomy
        subtrees in descending score-bound order and stops early, the
        fast path for large catalogs.  ``"budget"`` and ``"ivf"`` are the
        *sub-linear approximate* tiers for catalogs past ~1M items:
        budget stops the bound-ordered scan after *budget* catalog nodes
        per row (the paper's cascaded inference on the index's own
        ordering), ivf probes only the *nprobe* best taxonomy cells by
        centroid score.  Both stay deterministic — same model + same
        knobs means byte-identical rankings across runs and shard counts
        — and degrade to the exact ranking when their knob is ``None``.
        All three index-backed modes are incompatible with *cascade*
        (cascaded inference is its own — approximate — pruning scheme).
    index_level:
        Taxonomy depth of the index's subtree grouping (default: auto,
        about ``sqrt(n_items)`` groups).  Ignored when
        ``retrieval="exact"``.
    budget:
        Per-row node budget for ``retrieval="budget"`` (``None`` = scan
        everything, i.e. exact results).  Rejected with any other mode.
    nprobe:
        Cells probed per row for ``retrieval="ivf"`` (``None`` = probe
        everything, i.e. exact results).  Rejected with any other mode.

        The four retrieval keywords are validated once into
        :attr:`plan`, a :class:`~repro.serving.index.RetrievalPlan`;
        knobs must be integers >= 1 (never floats or ``bool``).
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry` the
        service's :class:`ServingStats` records into; a private registry
        is created when omitted.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When set, every
        :meth:`recommend_batch` call opens a root span (and the shard
        workers hang queue-wait/scan children under it); when ``None``
        (the default) tracing is skipped entirely on the hot path.

    Notes
    -----
    The service snapshots the model's effective item factors at
    construction; call :meth:`refresh` after mutating the model in place,
    or :meth:`swap_model` to atomically replace it with another one (the
    hot-swap path used by ``repro.streaming``).

    Examples
    --------
    >>> from repro import SyntheticConfig, TaxonomyFactorModel, generate_dataset
    >>> from repro.train import train_model
    >>> data = generate_dataset(SyntheticConfig(n_users=40, seed=0))
    >>> model = train_model(
    ...     TaxonomyFactorModel(data.taxonomy, factors=4, epochs=1, seed=0),
    ...     data.log,
    ... )
    >>> service = RecommenderService(model, history_log=data.log)
    >>> service.recommend_batch([0, 1, None], k=3).shape
    (3, 3)
    >>> service.stats.requests
    3
    """

    def __init__(
        self,
        model: TaxonomyFactorModel,
        history_log: Optional[TransactionLog] = None,
        popularity: Optional[PopularityModel] = None,
        cascade: Optional[Union[CascadeConfig, CascadedRecommender]] = None,
        fold_in_steps: int = 200,
        fold_in_seed: RngLike = 0,
        cache_size: int = 4096,
        retrieval: str = "exact",
        index_level: Optional[int] = None,
        budget: Optional[int] = None,
        nprobe: Optional[int] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        #: The validated :class:`~repro.serving.index.RetrievalPlan` every
        #: known-user scan runs under (constant across hot swaps).
        self.plan = RetrievalPlan(
            retrieval, budget=budget, nprobe=nprobe, level=index_level
        )
        self.plan.check_cascade(cascade)
        self.fold_in_steps = int(fold_in_steps)
        self.fold_in_seed = fold_in_seed
        self.query_cache = QueryVectorCache(cache_size)
        self.tracer = tracer
        self._stats = ServingStats(registry=registry)
        # Reentrant: refresh() re-enters swap_model() under the same lock.
        self._swap_lock = threading.RLock()
        self._state = self._build_state(
            model, history_log, popularity, cascade, generation=0
        )

    def _build_state(
        self,
        model: TaxonomyFactorModel,
        history_log: Optional[TransactionLog],
        popularity: Optional[PopularityModel],
        cascade: Optional[Union[CascadeConfig, CascadedRecommender]],
        generation: int,
    ) -> ModelState:
        factor_set = model.factor_set  # fail fast when unfitted
        if history_log is None:
            history_log = model._train_log
        elif history_log is not model._train_log:
            # Shallow copy: factors are shared (read-only here), only the
            # attached log differs — the caller's model stays untouched.
            model = copy.copy(model)
            model.attach_log(history_log)
        if popularity is None and history_log is not None:
            popularity = PopularityModel().fit(history_log)
        if isinstance(cascade, CascadeConfig):
            cascade = CascadedRecommender(model, cascade)
        fold_in = FoldInRecommender(
            model, steps=self.fold_in_steps, seed=self.fold_in_seed
        )
        effective = factor_set.effective_items()
        bias = factor_set.bias_of_items()
        index = None
        if self.plan.indexed:
            # Rebuilt on every swap/refresh: the index snapshots the
            # factors, so a stale index could silently serve a retired
            # model long after the dense path moved on.
            index = SubtreeIndex(
                effective,
                bias,
                model.taxonomy,
                level=self.plan.level,
                registry=self._stats.registry,
                approx=self.plan.approx,
            )
        return ModelState(
            model=model,
            history_log=history_log,
            popularity=popularity,
            cascade=cascade,
            fold_in=fold_in,
            effective=effective,
            bias=bias,
            generation=generation,
            index=index,
            taxonomy_version=model.taxonomy.version,
        )

    # ------------------------------------------------------------------
    # Introspection (reads delegate to the current state snapshot)
    # ------------------------------------------------------------------
    @property
    def model(self) -> TaxonomyFactorModel:
        """The model currently being served."""
        return self._state.model

    @property
    def history_log(self) -> Optional[TransactionLog]:
        """The history source of the current model state."""
        return self._state.history_log

    @property
    def fold_in(self) -> FoldInRecommender:
        """The fold-in adapter bound to the current model."""
        return self._state.fold_in

    @property
    def cascade(self) -> Optional[CascadedRecommender]:
        """The cascade bound to the current model (``None`` = exact)."""
        return self._state.cascade

    @property
    def popularity(self) -> Optional[PopularityModel]:
        """Fallback model for cold users without a history."""
        return self._state.popularity

    @popularity.setter
    def popularity(self, value: Optional[PopularityModel]) -> None:
        """Replace the fallback inside the immutable state (atomically)."""
        with self._swap_lock:
            self._state = replace(self._state, popularity=value)

    @property
    def generation(self) -> int:
        """Bumped by every swap / cache invalidation (0 at construction)."""
        return self._state.generation

    @property
    def taxonomy_version(self) -> Optional[TaxonomyVersion]:
        """The tree generation currently being served (digest + revision)."""
        return self._state.taxonomy_version

    @property
    def model_state(self) -> ModelState:
        """The current immutable :class:`ModelState` snapshot.

        One attribute read hands back everything a request (or an external
        exporter such as :class:`~repro.serving.sharding.ShardRouter`)
        needs, coherent even while another thread is mid-:meth:`swap_model`.
        """
        return self._state

    @property
    def stats(self) -> ServingStats:
        """Cumulative serving statistics since the last reset."""
        return self._stats

    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry the service's stats record into."""
        return self._stats.registry

    def reset_stats(self) -> ServingStats:
        """Zero the counters; returns the retired stats object.

        The replacement stats get a **fresh private registry** (counters
        are monotonic, so zeroing means new instruments); a shared
        registry passed at construction keeps the retired series.
        """
        retired = self._stats
        self._stats = ServingStats(labels=retired.labels)
        return retired

    # ------------------------------------------------------------------
    # Model lifecycle: invalidation, refresh, hot swap
    # ------------------------------------------------------------------
    def invalidate_cache(self) -> int:
        """Drop all cached query vectors and retire their generation.

        Returns the new generation.  This flushes the *cache only* — the
        item-factor snapshots the service scores against are untouched, so
        after mutating the model's factors in place (``partial_fit``,
        ``onboard_items``) call :meth:`refresh` (or :meth:`swap_model`),
        which re-snapshots them and invalidates the cache in one step.
        """
        with self._swap_lock:
            generation = self.query_cache.invalidate()
            self._state = replace(self._state, generation=generation)
        return generation

    def refresh(self) -> None:
        """Re-snapshot the current model's factors and drop cached vectors.

        Required after ``model.partial_fit`` / ``model.onboard_items`` so
        the service stops serving stale factors.
        """
        with self._swap_lock:
            state = self._state
            self.swap_model(
                state.model,
                history_log=state.history_log,
                popularity=state.popularity,
            )

    def swap_model(
        self,
        model: TaxonomyFactorModel,
        history_log: Optional[TransactionLog] = None,
        popularity: Optional[PopularityModel] = None,
    ) -> int:
        """Atomically replace the served model with *model* — zero downtime.

        The replacement state (factor snapshots, fold-in adapter, cascade
        rebuilt against the new model, fallback) is constructed *before*
        the switch, then installed with one reference assignment; requests
        in flight finish against the old state, later requests see only the
        new one.  The query-vector cache is invalidated, and its generation
        counter guarantees in-flight requests cannot re-poison it with
        vectors from the retired model.

        Lifecycle calls (``swap_model`` / ``refresh`` / ``invalidate_cache``)
        are serialized: the whole build-and-install runs under one lock, so
        two concurrent swappers cannot both build from the same retired
        state and silently lose one publication.  Requests never take this
        lock — serving continues throughout.

        Parameters
        ----------
        model:
            The fitted replacement model.
        history_log:
            History source for the new state; defaults to the log attached
            to *model* (``model.attach_log`` / training log).
        popularity:
            Replacement fallback; rebuilt from *history_log* when omitted.

        Returns the new cache generation.
        """
        with self._swap_lock:
            old = self._state
            cascade_cfg = old.cascade.config if old.cascade is not None else None
            state = self._build_state(
                model, history_log, popularity, cascade_cfg, generation=-1
            )
            generation = self.query_cache.invalidate()
            self._state = replace(state, generation=generation)
            self._stats.add(swaps=1)
        return generation

    def is_known(self, user: Optional[int]) -> bool:
        """Whether *user* indexes a trained user-factor row."""
        return self._known(self._state, user)

    @staticmethod
    def _known(state: ModelState, user: Optional[int]) -> bool:
        return user is not None and 0 <= int(user) < state.model.n_users

    # ------------------------------------------------------------------
    # Single-request path
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: Optional[int] = None,
        k: int = 10,
        history: Optional[History] = None,
    ) -> np.ndarray:
        """Top-*k* items for one request, routed by user type.

        ``user=None`` (or an out-of-range index) marks a cold user: with a
        *history* they are folded in, without one they get the popularity
        fallback.
        """
        state = self._state  # one read: the whole request sees one model
        started = time.perf_counter()
        if self._known(state, user):
            top = self._recommend_known(state, int(user), k, history)
            self._stats.add(known_user_requests=1)
        elif history:
            top = state.fold_in.recommend(k=k, history=history)
            self._stats.add(nodes_scored=state.model.n_items)
            self._stats.add(fold_in_requests=1)
        else:
            top = self._fallback(state, k)
            self._stats.add(fallback_requests=1)
        self._stats.record_latency(time.perf_counter() - started)
        return top

    def _recommend_known(
        self, state: ModelState, user: int, k: int, history: Optional[History]
    ) -> np.ndarray:
        if state.cascade is not None:
            result = state.cascade.rank(user, history)
            self._stats.add(nodes_scored=result.nodes_scored)
            items = result.items
            banned = self._banned_items(state, user)
            if banned.size:
                keep = ~np.isin(items, banned)
                items = items[keep]
            return items[:k]
        query = self._query_vector(state, user, history)
        banned = self._banned_items(state, user)
        if state.index is not None:
            page = state.index.search(query[None, :], k, [banned], self.plan)
            self._stats.add(nodes_scored=page.nodes_scored)
            row = page.items[0]
            return row[row >= 0]
        scores = state.effective @ query + state.bias
        self._stats.add(nodes_scored=scores.size)
        if banned.size:
            scores[banned] = -np.inf
        row = top_k_rows(scores[None, :], k)[0]
        return row[row >= 0]

    def _query_vector(
        self, state: ModelState, user: int, history: Optional[History]
    ) -> np.ndarray:
        if history is not None:
            # Explicit histories bypass the cache: the vector is
            # request-specific, not a property of the user.
            self._stats.add(cache_misses=1)
            return state.model.query_vector(user, history)
        cached = self.query_cache.get(user, state.generation)
        if cached is not None:
            self._stats.add(cache_hits=1)
            return cached
        self._stats.add(cache_misses=1)
        vector = state.model.query_vector(user)
        self.query_cache.put(user, vector, state.generation)
        return vector

    @staticmethod
    def _banned_items(state: ModelState, user: int) -> np.ndarray:
        log = state.history_log
        if log is None or user >= log.n_users:
            return np.empty(0, dtype=np.int64)
        return log.user_items(user)

    def _fallback(self, state: ModelState, k: int) -> np.ndarray:
        if state.popularity is None:
            raise ServingError(
                "no history and no popularity fallback configured; pass "
                "popularity= or history_log= to RecommenderService"
            )
        return state.popularity.recommend(0, k=k)

    # ------------------------------------------------------------------
    # Batch path
    # ------------------------------------------------------------------
    def recommend_batch(
        self,
        users: Sequence[Optional[int]],
        k: int = 10,
        histories: Optional[Sequence[Optional[History]]] = None,
    ) -> np.ndarray:
        """Serve a whole batch; the known-user fraction is fully vectorized.

        ``users`` may contain ``None`` / negative / out-of-range entries for
        cold users (routed per row like :meth:`recommend`).  Returns an
        ``(n, min(k, n_items))`` int64 array padded with ``-1``.

        When a :class:`~repro.obs.tracing.Tracer` is configured the call
        runs under a ``recommend_batch`` root span tagged with the batch
        size and model generation; with no tracer the span machinery is
        skipped entirely.
        """
        state = self._state  # one read: the whole batch sees one model
        started = time.perf_counter()
        if self.tracer is None:
            out = self._serve_batch(state, users, k, histories)
        else:
            with self.tracer.span(
                "recommend_batch",
                tags={"requests": len(users), "generation": state.generation},
            ):
                out = self._serve_batch(state, users, k, histories)
        self._stats.record_latency(
            time.perf_counter() - started, count=len(users)
        )
        return out

    def _serve_batch(
        self,
        state: ModelState,
        users: Sequence[Optional[int]],
        k: int,
        histories: Optional[Sequence[Optional[History]]],
    ) -> np.ndarray:
        user_ids = np.asarray(
            [-1 if u is None else int(u) for u in users], dtype=np.int64
        )
        n = user_ids.size
        if histories is not None and len(histories) != n:
            raise ValueError(f"got {len(histories)} histories for {n} users")
        width = min(int(k), state.model.n_items)
        out = np.full((n, width), -1, dtype=np.int64)

        known_mask = (user_ids >= 0) & (user_ids < state.model.n_users)
        known_rows = np.flatnonzero(known_mask)
        if known_rows.size:
            if state.cascade is not None:
                for row in known_rows:
                    history = None if histories is None else histories[row]
                    top = self._recommend_known(
                        state, int(user_ids[row]), width, history
                    )
                    out[row, : top.size] = top
            else:
                out[known_rows] = self._batch_known(
                    state,
                    user_ids[known_rows],
                    None
                    if histories is None
                    else [histories[row] for row in known_rows],
                    width,
                )
            self._stats.add(known_user_requests=int(known_rows.size))

        for row in np.flatnonzero(~known_mask):
            history = None if histories is None else histories[row]
            if history:
                top = state.fold_in.recommend(k=width, history=history)
                self._stats.add(nodes_scored=state.model.n_items)
                self._stats.add(fold_in_requests=1)
            else:
                top = self._fallback(state, width)
                self._stats.add(fallback_requests=1)
            out[row, : top.size] = top

        return out

    def _batch_known(
        self,
        state: ModelState,
        users: np.ndarray,
        histories: Optional[List[Optional[History]]],
        width: int,
    ) -> np.ndarray:
        """Known-user scoring: cache-assisted queries, then one BLAS
        product plus one row-wise partition (``retrieval="exact"``), a
        taxonomy-pruned scan returning the identical rankings
        (``retrieval="pruned"``), or a budgeted/IVF approximate scan
        (``retrieval="budget"`` / ``"ivf"``)."""
        factors = state.effective.shape[1]
        queries = np.empty((users.size, factors))
        miss_slots: List[int] = []
        for slot, user in enumerate(users):
            history = None if histories is None else histories[slot]
            if history is None:
                cached = self.query_cache.get(int(user), state.generation)
                if cached is not None:
                    queries[slot] = cached
                    self._stats.add(cache_hits=1)
                    continue
            miss_slots.append(slot)
        if miss_slots:
            miss_users = users[miss_slots]
            miss_histories = (
                None
                if histories is None
                else [histories[slot] for slot in miss_slots]
            )
            fresh = state.model.query_matrix(miss_users, miss_histories)
            for i, slot in enumerate(miss_slots):
                queries[slot] = fresh[i]
                if histories is None or histories[slot] is None:
                    # copy() so the cache holds a K-vector, not a view
                    # pinning the whole (n_miss, K) batch matrix alive.
                    self.query_cache.put(
                        int(users[slot]), fresh[i].copy(), state.generation
                    )
            self._stats.add(cache_misses=len(miss_slots))

        banned = [self._banned_items(state, int(user)) for user in users]
        if state.index is not None:
            page = state.index.search(queries, width, banned, self.plan)
            self._stats.add(nodes_scored=page.nodes_scored)
            return page.items
        scores = queries @ state.effective.T + state.bias[None, :]
        self._stats.add(nodes_scored=scores.size)
        for row, row_banned in enumerate(banned):
            if row_banned.size:
                scores[row, row_banned] = -np.inf
        return top_k_rows(scores, width)
