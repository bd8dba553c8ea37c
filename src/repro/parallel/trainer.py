"""Multi-threaded SGD with row locks and hot-row caching (paper Sec. 6.1).

This is the *functional* reproduction of the paper's parallel trainer: the
factor matrices are shared, every row access goes through a striped lock
manager, and (optionally) each thread routes the frequently-updated
internal-node rows through a :class:`~repro.parallel.cache.FactorCache`
with threshold reconciliation.

Because CPython's GIL serializes the pure-Python per-sample arithmetic,
this trainer demonstrates *correctness* of the protocol (same model
quality as the serial trainer, no deadlocks, contention statistics) rather
than wall-clock scaling; the scaling curves of Fig. 8(a,b) are produced by
:mod:`repro.parallel.simulator`, parameterized with the update-frequency
skew this trainer measures.  See DESIGN.md's substitution table.

Only ``markov_order = 0`` models are supported here (the configuration the
paper's scaling experiment uses: ``TF(4,0)`` and ``MF(0)``).

:class:`ThreadedSGDEngine` is the low-level engine (operating on a bare
:class:`~repro.core.factors.FactorSet`); model-level training goes through
:class:`repro.train.ThreadedTrainer`, which wraps it with the unified
epoch loop, callbacks, and seed policy.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.core.bpr import log_sigmoid, sigmoid
from repro.core.factors import FactorSet
from repro.core.sampling import TripleStore
from repro.data.transactions import TransactionLog
from repro.parallel.cache import FactorCache
from repro.parallel.locks import StripedLockManager
from repro.utils.config import TrainConfig
from repro.utils.rng import derive_seed, spawn_rngs
from repro.utils.validation import check_positive


@dataclass
class ThreadedEpochStats:
    """Diagnostics of one threaded epoch."""

    loss: float
    seconds: float
    n_examples: int
    lock_acquisitions: int
    lock_contention_rate: float
    reconciliations: int
    hot_row_updates: int

    def __str__(self) -> str:
        return (
            f"loss={self.loss:.4f} ({self.seconds:.2f}s, "
            f"{self.n_examples} examples, "
            f"contention={self.lock_contention_rate:.3f}, "
            f"reconciliations={self.reconciliations})"
        )

    def as_dict(self) -> dict:
        """Flat summary (for logs, telemetry exports, and benchmarks)."""
        return {
            "loss": self.loss,
            "seconds": self.seconds,
            "n_examples": self.n_examples,
            "lock_acquisitions": self.lock_acquisitions,
            "lock_contention_rate": self.lock_contention_rate,
            "reconciliations": self.reconciliations,
            "hot_row_updates": self.hot_row_updates,
        }


class ThreadedSGDEngine:
    """Lock-based parallel BPR/SGD over a shared :class:`FactorSet`.

    Parameters
    ----------
    factor_set:
        Shared parameters (mutated in place by all threads).
    log:
        Training transactions.
    config:
        Hyper-parameters (``markov_order`` must be 0, ``sibling_ratio``
        must be 0 — the paper's scaling experiment trains plain TF/MF).
    n_threads:
        Worker count; each processes a shard of the epoch's samples.
    use_cache:
        Route internal-node (hot) rows through per-thread write-back
        caches instead of per-update locking.
    cache_threshold:
        The reconciliation threshold ``th`` (paper uses 0.1).
    """

    def __init__(
        self,
        factor_set: FactorSet,
        log: TransactionLog,
        config: TrainConfig,
        n_threads: int = 4,
        use_cache: bool = False,
        cache_threshold: float = 0.1,
        n_stripes: int = 4096,
    ):
        check_positive("n_threads", n_threads)
        if config.markov_order != 0:
            raise ValueError(
                "the threaded SGD engine supports markov_order=0 only; "
                "the paper's scaling experiment uses TF(4,0) and MF(0)"
            )
        if config.sibling_ratio != 0:
            raise ValueError(
                "the threaded SGD engine does not mix in sibling training "
                "(set sibling_ratio=0)"
            )
        self.factors = factor_set
        self.log = log
        self.config = config
        #: Step size used by the next sample; mutable so a schedule (see
        #: :class:`repro.train.callbacks.LRSchedule`) can anneal it
        #: between epochs without rebuilding the engine.
        self.learning_rate = float(config.learning_rate)
        self.n_threads = int(n_threads)
        self.use_cache = bool(use_cache)
        self.cache_threshold = float(cache_threshold)
        self.store = TripleStore(log)
        self.user_locks = StripedLockManager(n_stripes)
        self.w_locks = StripedLockManager(n_stripes)
        # Hot rows = internal taxonomy nodes (everything that is not an
        # item); these are updated orders of magnitude more often.
        taxonomy = factor_set.taxonomy
        self.hot = np.ones(taxonomy.n_nodes + 1, dtype=bool)
        self.hot[taxonomy.items] = False
        self.hot[taxonomy.pad_id] = False
        self.pad_id = taxonomy.pad_id
        self.epoch_count = 0

    # ------------------------------------------------------------------
    def train_epoch(
        self, seed: Optional[int] = None, *, inline: bool = False
    ) -> ThreadedEpochStats:
        """Run one epoch across the worker threads.

        *seed* defaults to the library-wide per-epoch policy
        :func:`repro.utils.rng.derive_seed` ``(config.seed, epoch)``, so
        two engines built from identical configs produce bit-identical
        factors.  ``inline=True`` executes the worker shards sequentially
        in the calling thread — same shard boundaries, same RNG streams,
        same arithmetic, no threads — which is how
        :class:`repro.train.serial.SerialTrainer`'s per-sample mode shares
        this code path.
        """
        if seed is None:
            seed = derive_seed(self.config.seed, self.epoch_count)
        self.epoch_count += 1
        rngs = spawn_rngs(seed, self.n_threads + 1)
        order = self.store.epoch_order(rngs[-1], shuffle=self.config.shuffle)
        shards = np.array_split(order, self.n_threads)

        self.user_locks.reset_stats()
        self.w_locks.reset_stats()
        losses = [0.0] * self.n_threads
        counts = [0] * self.n_threads
        caches: List[Optional[FactorCache]] = [None] * self.n_threads
        bias_caches: List[Optional[FactorCache]] = [None] * self.n_threads
        hot_updates = [0] * self.n_threads

        def worker(tid: int) -> None:
            cache = None
            bias_cache = None
            if self.use_cache:
                cache = FactorCache(
                    self.factors.w, self.w_locks, self.cache_threshold
                )
                bias_cache = FactorCache(
                    self.factors.bias.reshape(-1, 1),
                    self.w_locks,
                    self.cache_threshold,
                )
                caches[tid] = cache
                bias_caches[tid] = bias_cache
            rng = rngs[tid]
            shard = shards[tid]
            loss = 0.0
            for start in range(0, shard.size, 4096):
                block = shard[start : start + 4096]
                negatives = self.store.sample_negatives(
                    block, rng, attempts=self.config.negative_attempts
                )
                for k, idx in enumerate(block):
                    loss += self._update_sample(
                        int(self.store.triples[idx, 0]),
                        int(self.store.triples[idx, 2]),
                        int(negatives[k]),
                        cache,
                        bias_cache,
                        tid,
                        hot_updates,
                    )
            if cache is not None:
                cache.flush()
            if bias_cache is not None:
                bias_cache.flush()
            losses[tid] = loss
            counts[tid] = int(shard.size)

        started = time.perf_counter()
        if inline:
            for tid in range(self.n_threads):
                worker(tid)
        else:
            threads = [
                threading.Thread(target=worker, args=(tid,), name=f"sgd-{tid}")
                for tid in range(self.n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        self.factors.zero_pad_rows()
        seconds = time.perf_counter() - started

        reconciliations = sum(
            c.reconciliations for c in caches if c is not None
        ) + sum(c.reconciliations for c in bias_caches if c is not None)
        total_acquisitions = (
            self.user_locks.acquisitions + self.w_locks.acquisitions
        )
        total_contended = self.user_locks.contended + self.w_locks.contended
        return ThreadedEpochStats(
            loss=sum(losses) / max(sum(counts), 1),
            seconds=seconds,
            n_examples=sum(counts),
            lock_acquisitions=total_acquisitions,
            lock_contention_rate=(
                total_contended / total_acquisitions if total_acquisitions else 0.0
            ),
            reconciliations=reconciliations,
            hot_row_updates=sum(hot_updates),
        )

    def train(self, epochs: Optional[int] = None) -> List[ThreadedEpochStats]:
        """Run several epochs; returns per-epoch stats."""
        if epochs is None:
            epochs = self.config.epochs
        return [self.train_epoch() for _ in range(epochs)]

    # ------------------------------------------------------------------
    def _update_sample(
        self,
        user: int,
        pos_item: int,
        neg_item: int,
        cache: Optional[FactorCache],
        bias_cache: Optional[FactorCache],
        tid: int,
        hot_updates: List[int],
    ) -> float:
        """One per-sample BPR update under row locks (paper's 3 steps)."""
        fs = self.factors
        lr = self.learning_rate
        reg = self.config.reg
        pos_chain = fs.item_chains[pos_item]
        neg_chain = fs.item_chains[neg_item]

        # Step 2: read the factors (read locks / cache reads).
        with self.user_locks.locking([user]):
            vu = fs.user[user].copy()
        pos_rows = [int(r) for r in pos_chain]
        neg_rows = [int(r) for r in neg_chain]
        all_rows = pos_rows + neg_rows
        cold_rows = [r for r in all_rows if not self.hot[r]]
        hot_rows = [r for r in all_rows if self.hot[r]]
        hot_updates[tid] += len(hot_rows)

        def read_row(row: int) -> np.ndarray:
            if cache is not None and self.hot[row]:
                return cache.read(row)
            return fs.w[row].copy()

        def read_bias(row: int) -> float:
            if bias_cache is not None and self.hot[row]:
                return float(bias_cache.read(row)[0])
            return float(fs.bias[row])

        with self.w_locks.locking(all_rows if cache is None else cold_rows):
            w_pos_rows = [read_row(r) for r in pos_rows]
            w_neg_rows = [read_row(r) for r in neg_rows]
            b_pos = sum(read_bias(r) for r in pos_rows)
            b_neg = sum(read_bias(r) for r in neg_rows)

        eff_pos = np.sum(w_pos_rows, axis=0)
        eff_neg = np.sum(w_neg_rows, axis=0)
        delta = eff_pos - eff_neg
        diff = float(vu @ delta)
        if self.config.use_bias:
            diff += b_pos - b_neg
        c = float(1.0 - sigmoid(np.asarray([diff]))[0])

        # Step 3: write back (write locks / cached accumulation).
        with self.user_locks.locking([user]):
            fs.user[user] += lr * (c * delta - reg * fs.user[user])

        grad = c * vu
        use_bias = self.config.use_bias

        def apply_row(row: int, w_value: np.ndarray, sign: float) -> None:
            if row == self.pad_id:  # pad rows stay pinned at zero
                return
            w_update = lr * (sign * grad - reg * w_value)
            if cache is not None and self.hot[row]:
                cache.accumulate(row, w_update)
                if use_bias:
                    b_update = lr * (
                        sign * c - reg * float(bias_cache.read(row)[0])
                    )
                    bias_cache.accumulate(row, np.asarray([b_update]))
            else:
                with self.w_locks.locking([row]):
                    fs.w[row] += w_update
                    if use_bias:
                        fs.bias[row] += lr * (sign * c - reg * fs.bias[row])

        for row, value in zip(pos_rows, w_pos_rows):
            apply_row(row, value, +1.0)
        for row, value in zip(neg_rows, w_neg_rows):
            apply_row(row, value, -1.0)
        return float(-log_sigmoid(np.asarray([diff]))[0])
