"""Single-process training: the paper's Sec. 4 offline regime.

Two update granularities behind the same :class:`~repro.train.base.Trainer`
contract:

* ``update="batch"`` (default) — the vectorized minibatch scatter-add of
  :class:`~repro.core.sgd.SGDTrainer`, the fastest offline path;
  supports every model variant (Markov term, sibling training).
* ``update="sample"`` — per-sample SGD driven through the *same*
  per-sample engine the threaded backend uses
  (:class:`~repro.parallel.trainer.ThreadedSGDEngine` with one shard,
  executed inline in the calling thread).  Because the shard boundaries,
  RNG streams, and arithmetic are identical,
  ``SerialTrainer(update="sample")`` matches
  ``ThreadedTrainer(n_workers=1)`` **bit-for-bit** — the equivalence the
  test suite pins down.  Like the paper's scaling experiment it supports
  ``markov_order=0`` / ``sibling_ratio=0`` models only.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.core.sgd import SGDTrainer
from repro.data.transactions import TransactionLog
from repro.parallel.trainer import ThreadedSGDEngine
from repro.train.base import TrainEpoch, Trainer
from repro.utils.rng import ensure_rng


def train_model(model: Any, log: TransactionLog, **train_kwargs) -> Any:
    """One-liner serial fit: ``SerialTrainer(model).train(log)`` → *model*.

    Keyword arguments pass through to
    :meth:`~repro.train.base.Trainer.train`.

    Examples
    --------
    >>> from repro import SyntheticConfig, TaxonomyFactorModel, generate_dataset
    >>> data = generate_dataset(SyntheticConfig(n_users=40, seed=0))
    >>> model = train_model(
    ...     TaxonomyFactorModel(data.taxonomy, factors=4, epochs=2, seed=0),
    ...     data.log,
    ... )
    >>> model.recommend(user=0, k=3).shape
    (3,)
    """
    SerialTrainer(model).train(log, **train_kwargs)
    return model


class SerialTrainer(Trainer):
    """Single-threaded trainer over a model's full configuration space.

    Examples
    --------
    >>> from repro import SyntheticConfig, TaxonomyFactorModel, generate_dataset
    >>> data = generate_dataset(SyntheticConfig(n_users=40, seed=0))
    >>> model = TaxonomyFactorModel(data.taxonomy, factors=4, epochs=2, seed=0)
    >>> result = SerialTrainer(model).train(data.log)
    >>> (result.epochs_run, result.backend)
    (2, 'serial')
    """

    backend = "serial"

    def __init__(
        self,
        model: Any,
        callbacks: Sequence[Any] = (),
        update: str = "batch",
    ):
        if update not in ("batch", "sample"):
            raise ValueError(
                f"update must be 'batch' or 'sample', got {update!r}"
            )
        super().__init__(model, callbacks)
        self.update = update
        self._sgd = None
        self._engine = None

    # ------------------------------------------------------------------
    def _setup(self, log: TransactionLog) -> None:
        self._check_universe(log)
        self._init_offline_factors(log)
        if self.update == "batch":
            self._sgd = SGDTrainer(self.model._factors, log, self.config)
        else:
            # The per-sample engine validates markov_order/sibling_ratio.
            self._engine = ThreadedSGDEngine(
                self.model._factors, log, self.config, n_threads=1
            )

    def _run_epoch(self, epoch: int) -> TrainEpoch:
        seed = self.epoch_seed(epoch)
        if self.update == "batch":
            self._sgd.learning_rate = self.learning_rate
            self._sgd.rng = ensure_rng(seed)
            stats = self._sgd.train(epochs=1)[-1]
            self.model.history_.append(stats)
            return TrainEpoch(
                epoch=epoch,
                loss=stats.loss,
                n_examples=stats.n_examples,
                seconds=stats.seconds,
                learning_rate=self.learning_rate,
                backend=self.backend,
                extras={
                    "sibling_loss": stats.sibling_loss,
                    "n_sibling_examples": float(stats.n_sibling_examples),
                },
                raw=stats,
            )
        self._engine.learning_rate = self.learning_rate
        stats = self._engine.train_epoch(seed=seed, inline=True)
        self.model.history_.append(stats)
        return TrainEpoch(
            epoch=epoch,
            loss=stats.loss,
            n_examples=stats.n_examples,
            seconds=stats.seconds,
            learning_rate=self.learning_rate,
            backend=f"{self.backend}-sample",
            extras={"hot_row_updates": float(stats.hot_row_updates)},
            raw=stats,
        )
