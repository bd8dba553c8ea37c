"""Sharded multi-process serving: one model, N worker processes, zero copies.

A single :class:`~repro.serving.service.RecommenderService` is bounded by
the GIL: one Python process can only push one scoring pass at a time, no
matter how many cores the box has.  This module turns the service into a
**fleet**:

* :class:`SharedFactors` publishes the model's factor matrices exactly
  once into POSIX shared memory (``multiprocessing.shared_memory``).
  Every shard worker maps the same pages and reconstructs a read-only
  :class:`~repro.core.factors.FactorSet` over them with
  :meth:`~repro.core.factors.FactorSet.from_arrays` — zero-copy reads,
  no per-worker model duplication;
* :func:`shard_of` hashes user ids onto shards (a Murmur3-style mixer,
  so striding or clustered id spaces still balance);
* each shard process hosts a full :class:`RecommenderService` (fold-in,
  popularity fallback, query cache, optional taxonomy cascade) over the
  shared factors and serves the users hashed to it;
* :class:`ShardRouter` is the front door: it batches each request's rows
  per shard, scatters them over duplex pipes, gathers the answers, and —
  in the item-partitioned mode — merges per-shard top-k pages with
  :func:`repro.core.topk.merge_top_k_rows`.

Partitioning modes
------------------
``partition="users"`` (default)
    Users are hashed across shards; every shard scores its users against
    the full catalog.  Results are **bit-identical** to the unsharded
    service — same arrays, same BLAS calls, same tie behavior — because
    each row runs the exact single-process code path inside one worker.
``partition="items"``
    Every shard serves all users but scores only its contiguous slice of
    the item catalog, returning a top-k *page* (items + scores); the
    router k-way merges the pages.  This is the shape for catalogs too
    large to score in one pass; cold users are routed whole to one shard
    (every shard maps the full factors, so any of them can).

Hot swap across the fleet
-------------------------
:meth:`ShardRouter.swap_model` extends the PR 2 swap-coherence
invariants across processes.  A publication (a) copies the new factors
into **generation-stamped** shared-memory segments, (b) sends a swap
message down every shard's pipe, and (c) waits for every shard to
acknowledge before retiring the previous generation's segments.  Pipes
are FIFO, batches and swaps are serialized through a readers/writer
lock (one batch sees one generation, exactly like the single-process
service), and each worker applies its local
:meth:`~repro.serving.service.RecommenderService.swap_model` (which
flushes and generation-stamps its query cache), so any request sent
after ``swap_model`` returns is served by the new model on every shard —
no stale reads, no downtime.  A publication that fails part-way closes
the router (fail-stop) rather than ever serving a split-brain fleet.
:class:`~repro.streaming.swap.HotSwapper` accepts a router wherever it
accepts a service, so a streaming pipeline publishes to the whole fleet
with one call.

Examples
--------
The shared-memory layer round-trips a factor set without copying:

>>> import numpy as np
>>> from repro import SyntheticConfig, TaxonomyFactorModel, generate_dataset
>>> from repro.train import train_model
>>> from repro.serving.sharding import SharedFactors, attach_factors
>>> data = generate_dataset(SyntheticConfig(n_users=50, seed=0))
>>> model = train_model(
...     TaxonomyFactorModel(data.taxonomy, factors=4, epochs=1, seed=0),
...     data.log,
... )
>>> shared = SharedFactors(model.factor_set, generation=0)
>>> fs, segments = attach_factors(shared.handle, data.taxonomy)
>>> bool(np.array_equal(fs.user, model.factor_set.user))
True
>>> fs.user.flags.writeable
False
>>> del fs  # drop the views before closing the mapping
>>> for segment in segments:
...     segment.close()
>>> shared.release()

Spinning up an actual fleet (see ``python -m repro serve-sharded`` and
``benchmarks/bench_sharding.py`` for complete runs)::

    router = ShardRouter(model, n_shards=4, history_log=split.train)
    with router:
        top = router.recommend_batch(users, k=10)   # == unsharded output
        router.swap_model(updater.snapshot())       # fleet-wide hot swap
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
import traceback
import uuid
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing as mp

import numpy as np

from repro.core.factors import FactorSet
from repro.core.popularity import PopularityModel
from repro.core.topk import PAD_ITEM, merge_top_k_rows, top_k_rows
from repro.data.transactions import TransactionLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, SpanContext, Tracer
from repro.serving.index import RetrievalPlan, SubtreeIndex
from repro.serving.protocol import History
from repro.serving.service import RecommenderService
from repro.taxonomy.tree import Taxonomy
from repro.utils.config import CascadeConfig, TrainConfig
from repro.utils.rng import RngLike


class ShardingError(RuntimeError):
    """A shard worker failed, died, or could not be reached in time."""


class DeadlineExceeded(ShardingError):
    """A request's deadline expired before the fleet could serve it.

    Raised router-side when a shard reports an ``expired`` status (the
    worker checked the request's deadline at dequeue and declined to
    scan) or when :meth:`ShardRouter.recommend_batch` finds the deadline
    already past on entry.  Typed separately from the transport errors
    so callers — the gateway maps it to ``504 Gateway Timeout`` — can
    tell "too late" apart from "broken".
    """


@dataclass(frozen=True)
class ShardRequest:
    """One versioned batch/page request payload on a shard pipe.

    The only payload the ``batch`` and ``page`` pipe messages carry:
    named fields let new ones (``deadline`` arrived this way) be added
    without reshuffling positional slots, and ``version`` lets a future
    revision change semantics detectably.

    Attributes
    ----------
    users:
        ``int64`` user ids for this shard's sub-batch (``-1`` = cold).
    k:
        Top-k width requested.
    histories:
        Optional per-row histories, aligned with ``users``.
    span_context:
        Optional :class:`~repro.obs.tracing.SpanContext` stamped by a
        traced router, parenting worker-side spans.
    deadline:
        Optional absolute :func:`time.monotonic` deadline; a worker
        that dequeues the request after this instant answers
        ``expired`` instead of scanning (monotonic clocks are
        host-wide, and shards are processes on the router's host).
    version:
        Payload schema version; currently ``1``.
    """

    users: np.ndarray
    k: int
    histories: Optional[list] = None
    span_context: Optional[SpanContext] = None
    deadline: Optional[float] = None
    version: int = 1


class _ReadWriteLock:
    """Writer-preferring readers/writer lock.

    Request batches take the read side (many may be in flight at once);
    a fleet swap takes the write side.  This restores the single-process
    batch contract across processes: a swap waits for every in-flight
    batch to finish gathering, and no batch can start while a swap is
    publishing — so one returned array never mixes rows from two model
    generations.  Writer preference keeps a steady request stream from
    starving publications.
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer_active = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer_active or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer_active or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer_active = True

    def release_write(self) -> None:
        with self._cond:
            self._writer_active = False
            self._cond.notify_all()


# ----------------------------------------------------------------------
# Shared-memory factor publication
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SharedArraySpec:
    """Where to find one factor matrix in shared memory.

    Attributes
    ----------
    name:
        The ``multiprocessing.shared_memory`` segment name.
    shape, dtype:
        How to view the raw buffer as an ndarray.
    """

    name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass(frozen=True)
class SharedFactorsHandle:
    """A picklable description of one published factor-set generation.

    The handle is what travels down a worker's pipe on startup and on
    every hot swap; :func:`attach_factors` turns it back into a
    zero-copy :class:`~repro.core.factors.FactorSet`.

    Attributes
    ----------
    generation:
        The fleet generation these factors belong to (stamped into the
        segment names, so two generations can coexist during a swap).
    levels, init_scale:
        :class:`~repro.core.factors.FactorSet` metadata that is not
        derivable from the arrays.
    arrays:
        One :class:`SharedArraySpec` per factor family (``user``, ``w``,
        ``bias``, and ``w_next`` when the model has a Markov term).
    """

    generation: int
    levels: int
    init_scale: float
    arrays: Dict[str, SharedArraySpec]


try:
    #: Whether this Python's SharedMemory supports ``track=False`` (3.13+).
    _TRACK_SUPPORTED = (
        "track" in inspect.signature(shared_memory.SharedMemory).parameters
    )
except (TypeError, ValueError):  # pragma: no cover - exotic interpreters
    _TRACK_SUPPORTED = False


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    On Python >= 3.13 ``track=False`` keeps the attaching process's
    resource tracker out of it.  Earlier versions register every attach
    with the tracker; worker processes neutralize that with
    :func:`_disown_attached_segments` instead (an explicit
    ``unregister`` here would corrupt the fork-shared tracker, which
    also holds the creating process's legitimate registration).
    """
    if _TRACK_SUPPORTED:  # pragma: no cover - depends on the Python version
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


def _disown_attached_segments() -> None:
    """Pre-3.13 fallback, called once inside each worker process.

    A spawned worker's resource tracker would otherwise adopt every
    segment the worker merely attaches and *unlink it* when the worker
    exits — yanking the factors out from under the rest of the fleet
    (python/cpython#82300).  Filtering ``shared_memory`` registrations
    out of this process is safe on every start method: workers never
    create segments, and the owning router's registration (in its own
    process) is untouched.
    """
    if _TRACK_SUPPORTED:  # pragma: no cover - track=False already opts out
        return
    from multiprocessing import resource_tracker

    original = resource_tracker.register

    def register(name: str, rtype: str) -> None:
        if rtype != "shared_memory":
            original(name, rtype)

    resource_tracker.register = register


class SharedFactors:
    """Owner of one generation of factor matrices in shared memory.

    Constructing one copies each factor family of *factor_set* into its
    own named segment — the **only** copy the whole fleet ever makes;
    every shard maps the same physical pages read-only.  The creating
    process must keep the object alive while any shard uses it and call
    :meth:`release` once the generation is retired.

    Parameters
    ----------
    factor_set:
        The fitted :class:`~repro.core.factors.FactorSet` to publish.
    generation:
        Generation stamp baked into the segment names.
    prefix:
        Name prefix shared by the fleet (random when omitted), so
        concurrent fleets on one host cannot collide.
    """

    def __init__(
        self,
        factor_set: FactorSet,
        generation: int = 0,
        prefix: Optional[str] = None,
    ):
        self.generation = int(generation)
        self._segments: List[shared_memory.SharedMemory] = []
        self._released = False
        prefix = prefix or uuid.uuid4().hex[:8]
        families: Dict[str, np.ndarray] = {
            "user": factor_set.user,
            "w": factor_set.w,
            "bias": factor_set.bias,
        }
        if factor_set.w_next is not None:
            families["w_next"] = factor_set.w_next
        specs: Dict[str, SharedArraySpec] = {}
        try:
            for i, (key, array) in enumerate(families.items()):
                array = np.ascontiguousarray(array)
                # Short names: macOS caps shm names at ~30 characters.
                name = f"rs{prefix}g{self.generation}a{i}"
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=max(1, array.nbytes)
                )
                self._segments.append(segment)
                view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
                view[...] = array
                del view  # keep no buffer exports: close() must not fail
                specs[key] = SharedArraySpec(
                    name=name, shape=tuple(array.shape), dtype=str(array.dtype)
                )
        except BaseException:
            self.release()
            raise
        self.handle = SharedFactorsHandle(
            generation=self.generation,
            levels=factor_set.levels,
            init_scale=factor_set.init_scale,
            arrays=specs,
        )

    def release(self) -> None:
        """Close and unlink every segment (idempotent).

        Workers still mapping the pages keep valid views until they close
        their own attachments — ``shm_unlink`` only removes the name.
        """
        if self._released:
            return
        self._released = True
        for segment in self._segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - no exports are kept
                pass
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.release()
        except Exception:
            pass


def attach_factors(
    handle: SharedFactorsHandle, taxonomy: Taxonomy
) -> Tuple[FactorSet, List[shared_memory.SharedMemory]]:
    """Map a published generation into this process, zero-copy.

    Returns the reconstructed read-only
    :class:`~repro.core.factors.FactorSet` plus the attached segments;
    the caller must drop every view *before* closing the segments
    (NumPy keeps the underlying ``mmap`` pinned while views exist).
    """
    segments: List[shared_memory.SharedMemory] = []
    views: Dict[str, np.ndarray] = {}
    try:
        for key, spec in handle.arrays.items():
            segment = _attach_shm(spec.name)
            segments.append(segment)
            view: np.ndarray = np.ndarray(
                spec.shape, dtype=np.dtype(spec.dtype), buffer=segment.buf
            )
            view.flags.writeable = False
            views[key] = view
        factor_set = FactorSet.from_arrays(
            taxonomy,
            user=views["user"],
            w=views["w"],
            bias=views["bias"],
            w_next=views.get("w_next"),
            levels=handle.levels,
            init_scale=handle.init_scale,
        )
    except BaseException:
        views.clear()
        for segment in segments:
            try:
                segment.close()
            except BufferError:
                pass
        raise
    return factor_set, segments


# ----------------------------------------------------------------------
# Shard assignment
# ----------------------------------------------------------------------
def shard_of(users: np.ndarray, n_shards: int) -> np.ndarray:
    """Deterministic shard index for each user id.

    A Murmur3-style 64-bit finalizer spreads arbitrary id spaces (dense,
    strided, clustered) uniformly, so ``users % n_shards`` pathologies —
    e.g. every even user landing on shard 0 of 2 when ids are doubled —
    cannot unbalance the fleet.  The mapping depends only on
    ``(user, n_shards)``: routers, tests, and external load generators
    all agree on where a user lives.

    Examples
    --------
    >>> import numpy as np
    >>> shards = shard_of(np.arange(1000), 4)
    >>> sorted(np.unique(shards).tolist())
    [0, 1, 2, 3]
    >>> bool((np.bincount(shards, minlength=4) > 150).all())
    True
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    mixed = np.asarray(users, dtype=np.int64).astype(np.uint64)
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xFF51AFD7ED558CCD)
    mixed ^= mixed >> np.uint64(33)
    mixed *= np.uint64(0xC4CEB9FE1A85EC53)
    mixed ^= mixed >> np.uint64(33)
    return (mixed % np.uint64(n_shards)).astype(np.int64)


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
@dataclass
class _ModelPayload:
    """Everything a worker needs to (re)build its model — factors excluded.

    The factor matrices travel as a :class:`SharedFactorsHandle`; the
    rest (taxonomy, config, histories, fallback) is pickled down the
    pipe once per publication.
    """

    handle: SharedFactorsHandle
    model_class: str
    config: TrainConfig
    taxonomy: Taxonomy
    history_log: Optional[TransactionLog]
    popularity: Optional[PopularityModel]
    #: Swap-only optimization: when the history is the same object the
    #: fleet already serves, the router ships ``history_log=None`` with
    #: this flag set and each worker keeps its current log + fallback
    #: instead of re-pickling the whole log down every pipe.
    reuse_history: bool = False


@dataclass
class _WorkerSpec:
    """Static per-shard configuration (constant across hot swaps)."""

    shard_index: int
    n_shards: int
    partition: str
    cascade: Optional[CascadeConfig]
    fold_in_steps: int
    fold_in_seed: RngLike
    cache_size: int
    payload: _ModelPayload
    plan: RetrievalPlan


def _slice_bounds(shard_index: int, n_shards: int, n_items: int) -> Tuple[int, int]:
    """The contiguous catalog slice an item-partitioned shard serves."""
    return (
        (n_items * shard_index) // n_shards,
        (n_items * (shard_index + 1)) // n_shards,
    )


class _WorkerState:
    """One generation of a worker's world: model, service, mapped segments."""

    def __init__(
        self,
        spec: _WorkerSpec,
        service: RecommenderService,
        segments: List[shared_memory.SharedMemory],
        slice_index: Optional[SubtreeIndex] = None,
    ):
        self.spec = spec
        self.service = service
        self.segments = segments
        #: Item-partitioned pruned retrieval over this shard's catalog
        #: slice (None in the user partition / exact mode).  Rebuilt with
        #: the rest of the state on every swap, so it always covers the
        #: live generation's factors.
        self.slice_index = slice_index

    @classmethod
    def build(
        cls,
        spec: _WorkerSpec,
        payload: _ModelPayload,
        previous: Optional["_WorkerState"] = None,
    ) -> "_WorkerState":
        from repro.serving.bundle import _FACTOR_MODELS

        if payload.model_class not in _FACTOR_MODELS:
            raise ShardingError(
                f"cannot shard a {payload.model_class}; supported: "
                f"{sorted(_FACTOR_MODELS)}"
            )
        history_log = payload.history_log
        popularity = payload.popularity
        if payload.reuse_history and previous is not None:
            previous_state = previous.service.model_state
            history_log = previous_state.history_log
            popularity = previous_state.popularity
        factor_set, segments = attach_factors(payload.handle, payload.taxonomy)
        model = _FACTOR_MODELS[payload.model_class](
            payload.taxonomy, payload.config
        )
        model._factors = factor_set
        if history_log is not None:
            model.attach_log(history_log)
        # In the item partition the service only ever serves cold users
        # (known traffic goes through page()), so a full catalog index
        # would be dead weight; the slice index below carries the plan.
        sliced = spec.partition == "items"
        service_plan = RetrievalPlan() if sliced else spec.plan
        service = RecommenderService(
            model,
            history_log=history_log,
            popularity=popularity,
            cascade=spec.cascade,
            fold_in_steps=spec.fold_in_steps,
            fold_in_seed=spec.fold_in_seed,
            cache_size=spec.cache_size,
            **service_plan.keywords(),
        )
        slice_index = None
        if sliced and spec.plan.indexed:
            state = service.model_state
            lo, hi = _slice_bounds(
                spec.shard_index, spec.n_shards, state.model.n_items
            )
            # Approximate slice indexes still rank the FULL catalog's
            # cells (global statistics over the shared factor pages), so
            # every shard selects the same cells per row and the merged
            # pages reproduce the single-process ranking byte-for-byte —
            # each slice simply serves its share of the global budget.
            slice_index = SubtreeIndex(
                state.effective,
                state.bias,
                payload.taxonomy,
                items=np.arange(lo, hi, dtype=np.int64),
                approx=spec.plan.approx,
            )
        return cls(spec, service, segments, slice_index)

    def swapped(self, payload: _ModelPayload) -> "_WorkerState":
        """Install *payload* as the new generation; retire this one."""
        fresh = _WorkerState.build(self.spec, payload, previous=self)
        # Count the publication on the surviving stats object, mirroring
        # what RecommenderService.swap_model would have recorded.
        fresh.service._stats = self.service._stats
        fresh.service._stats.add(swaps=1)
        self.release()
        return fresh

    def release(self) -> None:
        """Drop every factor view, then close the mapped segments."""
        import gc

        self.service = None
        self.slice_index = None
        gc.collect()  # the mmap stays pinned while ndarray views survive
        for segment in self.segments:
            try:
                segment.close()
            except BufferError:  # pragma: no cover - views still alive
                pass
        self.segments = []

    # -- request handlers ------------------------------------------------
    @staticmethod
    def _check_deadline(deadline: Optional[float]) -> None:
        """Refuse work whose deadline passed while it sat in the pipe."""
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"request deadline expired {time.monotonic() - deadline:.3f}s "
                "before the shard dequeued it"
            )

    def _traced(self, ctx: SpanContext, tracer: Tracer, name: str) -> Span:
        """Open a worker-side child span under the router's batch span."""
        return tracer.child_from_context(
            ctx, name, tags={"shard": self.spec.shard_index}
        )

    def _serve(
        self,
        request: ShardRequest,
        tracer: Optional[Tracer],
        scan: Callable[[], Any],
    ):
        """Run *scan* for *request*, traced when the router stamped it.

        Untraced requests return the scan's result; traced ones return
        ``(result, span_records)`` with a ``queue_wait`` span (the time
        between the router stamping the context and this worker picking
        the message off its FIFO pipe) and a ``scan`` span around *scan*.
        """
        self._check_deadline(request.deadline)
        ctx = request.span_context
        if ctx is None or tracer is None:
            return scan()
        wait = ctx.queue_wait()
        queued = self._traced(ctx, tracer, "queue_wait")
        queued.duration_s = wait
        queued.finish()
        with self._traced(ctx, tracer, "scan") as span:
            result = scan()
            span.set_tag("requests", int(np.asarray(request.users).size))
        records = [record.as_dict() for record in tracer.buffer.drain()]
        return result, records

    def batch(self, request: ShardRequest, tracer: Optional[Tracer] = None):
        """User-partitioned serving: this shard's users, whole catalog."""
        return self._serve(
            request,
            tracer,
            lambda: self.service.recommend_batch(
                request.users, k=request.k, histories=request.histories
            ),
        )

    def page(self, request: ShardRequest, tracer: Optional[Tracer] = None):
        """Item-partitioned scoring: this shard's slice of the catalog."""
        return self._serve(
            request,
            tracer,
            lambda: self._score_page(
                request.users, request.k, request.histories
            ),
        )

    def _score_page(
        self, users: np.ndarray, k: int, histories: Optional[list]
    ) -> Tuple[np.ndarray, np.ndarray]:
        started = time.perf_counter()
        state = self.service.model_state
        lo, hi = _slice_bounds(
            self.spec.shard_index, self.spec.n_shards, state.model.n_items
        )
        users = np.asarray(users, dtype=np.int64)
        queries = state.model.query_matrix(users, histories)
        log = state.history_log
        width = min(int(k), hi - lo)
        if self.slice_index is not None:
            banned = [
                RecommenderService._banned_items(state, int(user))
                for user in users
            ]
            result = self.slice_index.search(
                queries, width, banned, self.spec.plan
            )
            items, page_scores = result.items, result.scores
            nodes_scored = result.nodes_scored
        else:
            scores = queries @ state.effective[lo:hi].T + state.bias[None, lo:hi]
            if log is not None:
                for row, user in enumerate(users):
                    if user < log.n_users:
                        banned_row = log.user_items(int(user))
                        banned_row = banned_row[
                            (banned_row >= lo) & (banned_row < hi)
                        ]
                        if banned_row.size:
                            scores[row, banned_row - lo] = -np.inf
            local = top_k_rows(scores, width)
            page_scores = np.take_along_axis(
                scores, np.clip(local, 0, None), axis=1
            )
            page_scores[local < 0] = -np.inf
            items = np.where(local >= 0, local + lo, PAD_ITEM)
            nodes_scored = int(scores.size)
        stats = self.service.stats
        stats.add(known_user_requests=int(users.size), nodes_scored=nodes_scored)
        stats.record_latency(time.perf_counter() - started, count=int(users.size))
        return items, page_scores

    def stats(self) -> Dict[str, float]:
        payload = self.service.stats.as_dict()
        payload["shard"] = self.spec.shard_index
        payload["generation"] = self.service.generation
        return payload


def _shard_worker_main(conn, spec: _WorkerSpec) -> None:
    """Entry point of one shard process: a FIFO request loop over a pipe.

    FIFO is the swap-coherence backbone: a ``swap`` message is applied
    strictly after every batch that was sent before it, so once the
    router has the ack, later requests can only see the new generation.
    """
    _disown_attached_segments()
    #: Worker-side tracer: the per-shard prefix keeps span IDs minted
    #: here disjoint from the router's and from every other shard's, so
    #: stitched trees never collide.
    tracer = Tracer(prefix=f"w{spec.shard_index}")
    try:
        state = _WorkerState.build(spec, spec.payload)
    except BaseException:
        try:
            conn.send((-1, "error", traceback.format_exc()))
        finally:
            conn.close()
        return
    conn.send((-1, "ready", spec.shard_index))
    try:
        while True:
            try:
                req_id, kind, payload = conn.recv()
            except (EOFError, OSError, KeyboardInterrupt):
                break
            try:
                if kind == "stop":
                    conn.send((req_id, "ok", None))
                    break
                elif kind == "batch":
                    result: Any = state.batch(payload, tracer)
                elif kind == "page":
                    result = state.page(payload, tracer)
                elif kind == "swap":
                    state = state.swapped(payload)
                    result = payload.handle.generation
                elif kind == "stats":
                    result = state.stats()
                else:
                    raise ShardingError(f"unknown message kind {kind!r}")
                conn.send((req_id, "ok", result))
            except DeadlineExceeded as exc:
                conn.send((req_id, "expired", str(exc)))
            except BaseException:
                conn.send((req_id, "error", traceback.format_exc()))
    finally:
        state.release()
        conn.close()


# ----------------------------------------------------------------------
# Router-side link: one pipe, many requesting threads
# ----------------------------------------------------------------------
class _ShardLink:
    """Multiplex one worker pipe across concurrently requesting threads.

    Sends are stamped with a per-link request id; whichever thread is
    waiting becomes the designated reader and stashes other threads'
    responses as they arrive, so many in-flight requests (and a hot swap)
    can share one shard without a global serialize-everything lock.
    """

    def __init__(self, index: int, process, conn):
        self.index = index
        self.process = process
        self.conn = conn
        self._send_lock = threading.Lock()
        self._counter = itertools.count()
        self._state = threading.Condition()
        self._responses: Dict[int, Tuple[str, Any]] = {}
        self._reader_busy = False
        self._broken: Optional[BaseException] = None

    def send(self, kind: str, payload: Any) -> int:
        with self._send_lock:
            req_id = next(self._counter)
            try:
                self.conn.send((req_id, kind, payload))
            except (OSError, ValueError, BrokenPipeError) as exc:
                self._mark_broken(exc)
                raise ShardingError(
                    f"shard {self.index} is unreachable: {exc}"
                ) from exc
        return req_id

    def receive(self, req_id: int, timeout: float) -> Any:
        deadline = time.monotonic() + float(timeout)
        with self._state:
            while True:
                if req_id in self._responses:
                    return self._resolve(req_id)
                if self._broken is not None:
                    raise ShardingError(
                        f"shard {self.index} is down: {self._broken}"
                    )
                if not self._reader_busy:
                    self._reader_busy = True
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardingError(
                        f"shard {self.index} timed out after {timeout:.0f}s"
                    )
                self._state.wait(timeout=min(remaining, 0.1))
        try:
            return self._drain_until(req_id, deadline)
        finally:
            with self._state:
                self._reader_busy = False
                self._state.notify_all()

    def request(self, kind: str, payload: Any, timeout: float) -> Any:
        return self.receive(self.send(kind, payload), timeout)

    def _drain_until(self, req_id: int, deadline: float) -> Any:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ShardingError(f"shard {self.index} timed out")
            try:
                if not self.conn.poll(min(remaining, 0.2)):
                    if not self.process.is_alive():
                        exc = ShardingError(
                            f"shard {self.index} died (exit code "
                            f"{self.process.exitcode})"
                        )
                        self._mark_broken(exc)
                        raise exc
                    continue
                msg_id, status, value = self.conn.recv()
            except (EOFError, OSError) as exc:
                self._mark_broken(exc)
                raise ShardingError(
                    f"shard {self.index} connection lost: {exc}"
                ) from exc
            if msg_id == req_id:
                return self._decode(status, value)
            with self._state:
                self._responses[msg_id] = (status, value)
                self._state.notify_all()

    def _resolve(self, req_id: int) -> Any:
        status, value = self._responses.pop(req_id)
        return self._decode(status, value)

    def _decode(self, status: str, value: Any) -> Any:
        if status == "error":
            raise ShardingError(f"shard {self.index} request failed:\n{value}")
        if status == "expired":
            raise DeadlineExceeded(f"shard {self.index}: {value}")
        return value

    def _mark_broken(self, exc: BaseException) -> None:
        with self._state:
            if self._broken is None:
                self._broken = exc
            self._state.notify_all()


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
class ShardRouter:
    """Serve recommendation traffic through a fleet of shard processes.

    The router speaks the same request vocabulary as
    :class:`~repro.serving.service.RecommenderService` (``recommend`` /
    ``recommend_batch`` / ``swap_model``), so callers — including
    :class:`~repro.streaming.swap.HotSwapper` — can treat a fleet and a
    single process interchangeably.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.core.tf_model.TaxonomyFactorModel` or
        :class:`~repro.core.mf_model.MFModel`.  Its factor matrices are
        published once into shared memory; each worker maps them
        read-only.
    n_shards:
        Number of worker processes.
    history_log:
        Per-user histories for Markov context, purchased-item exclusion,
        and the popularity fallback (defaults to the model's training
        log, exactly like the single-process service).
    popularity:
        Explicit cold-user fallback; rebuilt from *history_log* in each
        worker when omitted.
    cascade:
        A :class:`~repro.utils.config.CascadeConfig` to serve known
        users through taxonomy-pruned cascaded inference inside every
        shard (``partition="users"`` only).
    fold_in_steps, fold_in_seed, cache_size:
        Forwarded to each worker's :class:`RecommenderService`.
    partition:
        ``"users"`` (hash-routed, bit-identical to unsharded) or
        ``"items"`` (catalog slices + top-k page merge); see the module
        docstring.
    retrieval:
        ``"exact"`` (dense scoring), ``"pruned"`` (taxonomy-pruned
        retrieval with bit-identical rankings), or the approximate
        sub-linear tiers ``"budget"`` / ``"ivf"`` — every shard serves
        known users through a
        :class:`~repro.serving.index.SubtreeIndex` over its catalog
        (its slice, in the item partition).  The approximate modes
        select taxonomy cells from catalog-**global** statistics, so an
        item-sliced fleet of any shard count returns the same bytes as
        a single process — each slice serves its share of the global
        budget/probe set.  Every index is rebuilt inside each worker on
        every :meth:`swap_model`, so hot swaps stay coherent.
    budget:
        Per-row node budget for ``retrieval="budget"`` (``None`` = scan
        everything, exact results); rejected with any other mode.
    nprobe:
        Cells probed per row for ``retrieval="ivf"`` (``None`` = probe
        everything, exact results); rejected with any other mode.  The
        three keywords are validated once into :attr:`plan`, which
        every worker receives in its spec.
    mp_context:
        A :mod:`multiprocessing` start-method name or context (defaults
        to the platform default — ``fork`` on Linux, ``spawn`` on
        macOS/Windows).
    start_timeout, request_timeout:
        Seconds to wait for worker startup / any single request.
    registry:
        Optional shared :class:`~repro.obs.metrics.MetricsRegistry`; the
        router records its request counter and — when traced — per-shard
        span-duration histograms
        (``repro_router_span_seconds{span=...,shard=...}``) into it.
    tracer:
        Optional :class:`~repro.obs.tracing.Tracer`.  When set, every
        :meth:`recommend_batch` opens a root span, ships a
        :class:`~repro.obs.tracing.SpanContext` down each shard's pipe,
        and adopts the workers' ``queue_wait`` / ``scan`` child spans
        back into its buffer so the whole request stitches into one tree
        (:func:`repro.obs.tracing.stitch`).  ``None`` (default) sends
        no span context down the pipes and adds zero tracing overhead.

    Notes
    -----
    The router owns OS resources (processes, pipes, shared memory); use
    it as a context manager or call :meth:`close` when done.
    """

    def __init__(
        self,
        model,
        n_shards: int = 2,
        *,
        history_log: Optional[TransactionLog] = None,
        popularity: Optional[PopularityModel] = None,
        cascade: Optional[CascadeConfig] = None,
        fold_in_steps: int = 200,
        fold_in_seed: RngLike = 0,
        cache_size: int = 4096,
        partition: str = "users",
        retrieval: str = "exact",
        budget: Optional[int] = None,
        nprobe: Optional[int] = None,
        mp_context: Union[str, Any, None] = None,
        start_timeout: float = 120.0,
        request_timeout: float = 120.0,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if partition not in ("users", "items"):
            raise ValueError(
                f"partition must be 'users' or 'items', got {partition!r}"
            )
        if partition == "items" and cascade is not None:
            raise ValueError(
                "cascaded inference prunes whole categories and cannot be "
                "combined with item-sliced shards; use partition='users'"
            )
        #: The validated :class:`~repro.serving.index.RetrievalPlan` every
        #: shard serves known users under.
        self.plan = RetrievalPlan(retrieval, budget=budget, nprobe=nprobe)
        self.plan.check_cascade(cascade)
        self.n_shards = int(n_shards)
        self.partition = partition
        self.request_timeout = float(request_timeout)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer
        if isinstance(mp_context, str):
            ctx = mp.get_context(mp_context)
        elif mp_context is not None:
            ctx = mp_context
        else:
            ctx = mp.get_context()
        self._token = uuid.uuid4().hex[:8]
        self._generation = 0
        self._swaps = 0
        self._swap_lock = threading.RLock()
        self._rw = _ReadWriteLock()
        self._count_lock = threading.Lock()
        self._requests = 0
        self._closed = False
        self._links: List[_ShardLink] = []

        history_log = (
            history_log if history_log is not None else model._train_log
        )
        #: Identity of the history last shipped to the fleet — lets a
        #: swap with the same log skip re-pickling it to every worker.
        self._published_log = history_log
        self._n_users = model.factor_set.n_users
        self._n_items = model.n_items
        self._taxonomy_version = model.taxonomy.version
        self._shared = SharedFactors(
            model.factor_set, generation=0, prefix=self._token
        )
        payload = _ModelPayload(
            handle=self._shared.handle,
            model_class=type(model).__name__,
            config=model.config,
            taxonomy=model.taxonomy,
            history_log=history_log,
            popularity=popularity,
        )
        try:
            for index in range(self.n_shards):
                spec = _WorkerSpec(
                    shard_index=index,
                    n_shards=self.n_shards,
                    partition=partition,
                    cascade=cascade,
                    fold_in_steps=fold_in_steps,
                    fold_in_seed=fold_in_seed,
                    cache_size=cache_size,
                    payload=payload,
                    plan=self.plan,
                )
                parent_conn, child_conn = ctx.Pipe(duplex=True)
                process = ctx.Process(
                    target=_shard_worker_main,
                    args=(child_conn, spec),
                    name=f"repro-shard-{index}",
                    daemon=True,
                )
                process.start()
                child_conn.close()
                self._links.append(_ShardLink(index, process, parent_conn))
            self._await_ready(start_timeout)
        except BaseException:
            self.close()
            raise

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for link in self._links:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ShardingError(
                        f"shard {link.index} did not start within {timeout:.0f}s"
                    )
                if link.conn.poll(min(remaining, 0.2)):
                    break
                if not link.process.is_alive():
                    raise ShardingError(
                        f"shard {link.index} exited during startup "
                        f"(code {link.process.exitcode})"
                    )
            try:
                _msg_id, status, value = link.conn.recv()
            except (EOFError, OSError) as exc:
                raise ShardingError(
                    f"shard {link.index} startup failed: {exc}"
                ) from exc
            if status != "ready":
                raise ShardingError(
                    f"shard {link.index} failed to build its service:\n{value}"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def generation(self) -> int:
        """Fleet generation — bumped by every :meth:`swap_model`."""
        return self._generation

    @property
    def swaps(self) -> int:
        """Number of fleet-wide publications applied so far."""
        return self._swaps

    @property
    def n_users(self) -> int:
        """Users known to the currently published model."""
        return self._n_users

    @property
    def taxonomy_version(self):
        """The tree generation the whole fleet is serving.

        Updated only after every shard has acknowledged a swap, so the
        value never describes a partially published (model, taxonomy)
        pair — it is the fleet-wide analogue of
        :attr:`repro.serving.service.RecommenderService.taxonomy_version`.
        """
        return self._taxonomy_version

    def stats(self) -> Dict[str, Any]:
        """Aggregate serving statistics across the fleet.

        ``requests`` counts **end-user request rows** the router served
        (one per batch row, whatever the partition — in the item
        partition each row fans out to every shard, so the per-shard
        numbers under ``"shards"`` count shard-local page work instead).
        The remaining counters are shard-local work, summed;
        ``requests_per_second`` divides router requests by the *busiest*
        shard's serving seconds (shards run concurrently, so summing
        their seconds would under-report the fleet's real throughput).
        """
        self._ensure_open()
        pending = [
            (link, link.send("stats", None)) for link in self._links
        ]
        shards = [
            link.receive(req_id, self.request_timeout)
            for link, req_id in pending
        ]
        summed = {
            key: float(sum(shard[key] for shard in shards))
            for key in (
                "known_user_requests", "fold_in_requests",
                "fallback_requests", "cache_hits", "cache_misses",
                "nodes_scored", "seconds",
            )
        }
        with self._count_lock:
            summed["requests"] = float(self._requests)
        busiest = max((shard["seconds"] for shard in shards), default=0.0)
        summed["requests_per_second"] = (
            summed["requests"] / busiest if busiest > 0 else float("nan")
        )
        summed["swaps"] = self._swaps
        summed["generation"] = self._generation
        summed["taxonomy_digest"] = self._taxonomy_version.short
        summed["taxonomy_revision"] = self._taxonomy_version.revision
        summed["shards"] = shards
        return summed

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def recommend(
        self,
        user: Optional[int] = None,
        k: int = 10,
        history: Optional[History] = None,
    ) -> np.ndarray:
        """Top-*k* for one request, routed to the owning shard."""
        row = self.recommend_batch(
            [user], k=k, histories=None if history is None else [history]
        )[0]
        return row[row >= 0]

    def recommend_batch(
        self,
        users: Sequence[Optional[int]],
        k: int = 10,
        histories: Optional[Sequence[Optional[History]]] = None,
        deadline: Optional[float] = None,
    ) -> np.ndarray:
        """Serve a batch across the fleet; same contract as the service.

        *deadline* is an optional absolute :func:`time.monotonic` stamp
        propagated to every shard: a worker that dequeues the sub-batch
        after the deadline answers ``expired`` instead of scanning, and
        the router raises :class:`DeadlineExceeded` — the backpressure
        signal the gateway turns into ``504``.

        Rows are grouped into one sub-batch per shard (the in-flight
        batching the fleet amortizes IPC over), scattered down every
        pipe, then gathered — concurrently across shards, so the fleet's
        wall-clock is the slowest shard, not the sum.  Returns the same
        ``(n, min(k, n_items))`` ``-1``-padded int64 array as
        :meth:`RecommenderService.recommend_batch`; in the default user
        partition the rows are bit-identical to the unsharded service.

        Like the single-process service, one batch sees one model: the
        whole scatter/gather holds the read side of a readers/writer
        lock that :meth:`swap_model` takes exclusively, so a concurrent
        publication can never split a batch across two generations.
        """
        self._ensure_open()
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                "request deadline expired before the router dispatched it"
            )
        user_ids = np.asarray(
            [-1 if u is None else int(u) for u in users], dtype=np.int64
        )
        n = user_ids.size
        if histories is not None and len(histories) != n:
            raise ValueError(f"got {len(histories)} histories for {n} users")
        width = min(int(k), self._n_items)
        out = np.full((n, width), PAD_ITEM, dtype=np.int64)
        if n == 0 or width <= 0:
            return out
        self._rw.acquire_read()
        try:
            if self.tracer is None:
                self._dispatch(user_ids, k, histories, out, None, deadline)
            else:
                root = self.tracer.span(
                    "recommend_batch",
                    tags={
                        "requests": int(n),
                        "partition": self.partition,
                        "generation": self._generation,
                    },
                )
                with root:
                    self._dispatch(user_ids, k, histories, out, root, deadline)
                self._record_span_seconds(root.as_dict(), shard="router")
        finally:
            self._rw.release_read()
        with self._count_lock:
            self._requests += n
        return out

    def _dispatch(
        self,
        user_ids: np.ndarray,
        k: int,
        histories: Optional[Sequence[Optional[History]]],
        out: np.ndarray,
        root: Optional[Span],
        deadline: Optional[float] = None,
    ) -> None:
        if self.partition == "users":
            self._scatter_user_mode(user_ids, k, histories, out, root, deadline)
        else:
            self._scatter_item_mode(user_ids, k, histories, out, root, deadline)

    def _payload(
        self,
        users: np.ndarray,
        k: int,
        histories: Optional[list],
        root: Optional[Span],
        deadline: Optional[float] = None,
    ) -> ShardRequest:
        """A pipe payload, with a freshly-stamped SpanContext when traced."""
        return ShardRequest(
            users=users,
            k=k,
            histories=histories,
            span_context=None if root is None else self.tracer.context_for(root),
            deadline=deadline,
        )

    def _gather(self, link: "_ShardLink", req_id: int, root: Optional[Span]):
        """Receive one response, absorbing worker span records if traced."""
        result = link.receive(req_id, self.request_timeout)
        if root is None:
            return result
        result, records = result
        self.tracer.adopt(records)
        for record in records:
            self._record_span_seconds(
                record, shard=str(record.get("tags", {}).get("shard", "?"))
            )
        return result

    def _record_span_seconds(self, record: Dict[str, Any], shard: str) -> None:
        duration = record.get("duration_s")
        if duration is None:
            return
        self.registry.histogram(
            "repro_router_span_seconds",
            help="Per-span durations across the shard fleet.",
            labels={"span": str(record["name"]), "shard": shard},
        ).observe(max(0.0, float(duration)))

    def _scatter_user_mode(
        self,
        user_ids: np.ndarray,
        k: int,
        histories: Optional[Sequence[Optional[History]]],
        out: np.ndarray,
        root: Optional[Span] = None,
        deadline: Optional[float] = None,
    ) -> None:
        shards = shard_of(np.maximum(user_ids, 0), self.n_shards)
        cold = (user_ids < 0) | (user_ids >= self._n_users)
        cold_rows = np.flatnonzero(cold)
        # Cold rows carry no shard affinity (identity lives in the
        # history, and every shard maps the full model) — spread them.
        shards[cold_rows] = np.arange(cold_rows.size) % self.n_shards
        pending = []
        for shard in range(self.n_shards):
            rows = np.flatnonzero(shards == shard)
            if rows.size == 0:
                continue
            sub_histories = (
                None
                if histories is None
                else [histories[row] for row in rows]
            )
            req_id = self._links[shard].send(
                "batch",
                self._payload(user_ids[rows], k, sub_histories, root, deadline),
            )
            pending.append((shard, rows, req_id))
        for shard, rows, req_id in pending:
            result = self._gather(self._links[shard], req_id, root)
            out[rows, : result.shape[1]] = result

    def _scatter_item_mode(
        self,
        user_ids: np.ndarray,
        k: int,
        histories: Optional[Sequence[Optional[History]]],
        out: np.ndarray,
        root: Optional[Span] = None,
        deadline: Optional[float] = None,
    ) -> None:
        known = (user_ids >= 0) & (user_ids < self._n_users)
        known_rows = np.flatnonzero(known)
        cold_rows = np.flatnonzero(~known)
        pending_pages = []
        if known_rows.size:
            sub_histories = (
                None
                if histories is None
                else [histories[row] for row in known_rows]
            )
            for link in self._links:
                req_id = link.send(
                    "page",
                    self._payload(
                        user_ids[known_rows], k, sub_histories, root, deadline
                    ),
                )
                pending_pages.append((link, req_id))
        pending_cold = []
        for slot, row in enumerate(cold_rows):
            link = self._links[slot % self.n_shards]
            history = None if histories is None else histories[row]
            req_id = link.send(
                "batch",
                self._payload(
                    user_ids[row : row + 1],
                    k,
                    None if history is None else [history],
                    root,
                    deadline,
                ),
            )
            pending_cold.append((link, row, req_id))
        if pending_pages:
            pages = [
                self._gather(link, req_id, root)
                for link, req_id in pending_pages
            ]
            if root is None:
                merged = merge_top_k_rows(
                    [items for items, _scores in pages],
                    [scores for _items, scores in pages],
                    k,
                )
            else:
                with self.tracer.span(
                    "merge", tags={"shard": "router", "pages": len(pages)}
                ) as merge_span:
                    merged = merge_top_k_rows(
                        [items for items, _scores in pages],
                        [scores for _items, scores in pages],
                        k,
                    )
                self._record_span_seconds(merge_span.as_dict(), shard="router")
            out[known_rows, : merged.shape[1]] = merged
        for link, row, req_id in pending_cold:
            result = self._gather(link, req_id, root)
            out[row, : result.shape[1]] = result[0]

    # ------------------------------------------------------------------
    # Fleet-wide hot swap
    # ------------------------------------------------------------------
    def swap_model(
        self,
        model,
        history_log: Optional[TransactionLog] = None,
        popularity: Optional[PopularityModel] = None,
    ) -> int:
        """Publish *model* to every shard atomically — zero downtime.

        The new factors are copied once into fresh generation-stamped
        shared-memory segments, the publication waits for in-flight
        batches to finish (the write side of the batch/swap lock), a
        swap message goes down every shard's FIFO pipe, and only after
        **all** shards acknowledge is the previous generation unlinked.
        Requests issued after this method returns are therefore served
        by the new model on every shard; requests already in flight
        finish on the old one (the single-process swap contract, fleet
        wide).  When *history_log* resolves to the same object the fleet
        already serves (and no explicit *popularity* is given), the log
        is not re-pickled — workers keep their current history and
        fallback and only the factors change.

        A publication that fails part-way (one shard dead or timed out
        after others already applied it) would leave the fleet
        **split-brain** — different shards serving different models with
        no way to converge — so the router fails *stop*: it closes
        itself and raises, refusing to serve mixed-generation traffic.
        Returns the new fleet generation.
        """
        self._ensure_open()
        with self._swap_lock:
            generation = self._generation + 1
            shared = SharedFactors(
                model.factor_set, generation=generation, prefix=self._token
            )
            resolved_log = (
                history_log if history_log is not None else model._train_log
            )
            reuse = (
                resolved_log is not None
                and resolved_log is self._published_log
                and popularity is None
            )
            payload = _ModelPayload(
                handle=shared.handle,
                model_class=type(model).__name__,
                config=model.config,
                taxonomy=model.taxonomy,
                history_log=None if reuse else resolved_log,
                popularity=popularity,
                reuse_history=reuse,
            )
            self._rw.acquire_write()
            failure: Optional[BaseException] = None
            try:
                pending = [
                    (link, link.send("swap", payload)) for link in self._links
                ]
                for link, req_id in pending:
                    link.receive(req_id, self.request_timeout)
            except BaseException as exc:
                failure = exc
            finally:
                self._rw.release_write()
            if failure is not None:
                shared.release()
                self.close()
                raise ShardingError(
                    f"fleet swap to generation {generation} failed part-way "
                    f"({failure}); the router has been closed — shards may "
                    f"disagree on the live model and a closed fleet can "
                    f"never serve mixed-generation traffic"
                ) from failure
            retired = self._shared
            self._shared = shared
            self._generation = generation
            self._swaps += 1
            self._n_users = model.factor_set.n_users
            self._n_items = model.n_items
            self._taxonomy_version = model.taxonomy.version
            self._published_log = resolved_log
            retired.release()
        return generation

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout: float = 10.0) -> None:
        """Stop every worker and release shared memory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for link in self._links:
            try:
                link.send("stop", None)
            except Exception:
                pass
        deadline = time.monotonic() + timeout
        for link in self._links:
            link.process.join(timeout=max(0.1, deadline - time.monotonic()))
            if link.process.is_alive():  # pragma: no cover - stuck worker
                link.process.terminate()
                link.process.join(timeout=1.0)
            try:
                link.conn.close()
            except Exception:
                pass
        if self._shared is not None:
            self._shared.release()

    def _ensure_open(self) -> None:
        if self._closed:
            raise ShardingError("this ShardRouter has been closed")

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close(timeout=1.0)
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardRouter(n_shards={self.n_shards}, "
            f"partition={self.partition!r}, retrieval={self.plan.mode!r}, "
            f"generation={self._generation})"
        )
