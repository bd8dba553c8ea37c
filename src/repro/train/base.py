"""The unified training front door: one epoch loop for every backend.

The paper runs the same SGD objective (Eq. 6) in several regimes —
full-batch offline training (Sec. 4), lock-based multi-threaded training
(Sec. 6.1), and incremental online updates between retrains.  This
module defines the one contract all of them train through:

* :class:`Trainer` — the abstract epoch loop.  Subclasses implement
  ``_setup(log)`` and ``_run_epoch(epoch)``; the base class owns epoch
  iteration, the per-epoch seed policy
  (:func:`repro.utils.rng.epoch_seed`), callback dispatch, learning-rate
  plumbing, and early-stop handling.
* :class:`TrainEpoch` — the backend-agnostic per-epoch record every
  callback receives (serial :class:`~repro.core.sgd.EpochStats`, threaded
  :class:`~repro.parallel.trainer.ThreadedEpochStats`, and streaming
  deltas are all normalized into it; the original record rides along as
  ``raw``).
* :class:`TrainerResult` — what ``train()`` returns: the trained model,
  the epoch history, and any evaluations callbacks recorded.

Concrete backends: :class:`~repro.train.serial.SerialTrainer`,
:class:`~repro.train.threaded.ThreadedTrainer`,
:class:`~repro.train.online.OnlineTrainer`.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.data.transactions import TransactionLog
from repro.utils.config import TrainConfig
from repro.utils.rng import epoch_seed
from repro.utils.validation import check_positive


@dataclass
class TrainEpoch:
    """One epoch of training, normalized across backends.

    ``loss`` is the mean BPR negative log-likelihood over the epoch's
    examples (``nan`` when a backend cannot attribute one).  ``extras``
    carries backend-specific diagnostics (sibling loss, lock contention,
    streamed-event counts, ...); ``raw`` is the backend's native stats
    object.
    """

    epoch: int
    loss: float
    n_examples: int
    seconds: float
    learning_rate: float
    backend: str
    extras: Dict[str, float] = field(default_factory=dict)
    raw: Any = field(default=None, repr=False)

    def __str__(self) -> str:
        return (
            f"epoch {self.epoch} [{self.backend}]: loss={self.loss:.4f} "
            f"examples={self.n_examples} lr={self.learning_rate:.4g} "
            f"({self.seconds:.2f}s)"
        )


@dataclass
class TrainerResult:
    """Outcome of one :meth:`Trainer.train` call."""

    model: Any
    history: List[TrainEpoch]
    seconds: float
    backend: str
    stopped_early: bool = False
    #: ``(epoch, EvalResult)`` pairs recorded by an ``EvalCallback``.
    evals: List[Tuple[int, Any]] = field(default_factory=list)

    @property
    def epochs_run(self) -> int:
        """Epochs actually executed (early stopping can cut the run short)."""
        return len(self.history)

    @property
    def final_loss(self) -> float:
        """Training loss of the last epoch (``nan`` for empty runs)."""
        return self.history[-1].loss if self.history else float("nan")

    def __str__(self) -> str:
        return (
            f"TrainerResult(backend={self.backend}, "
            f"epochs={self.epochs_run}, loss={self.final_loss:.4f}, "
            f"{self.seconds:.2f}s, stopped_early={self.stopped_early})"
        )


class Trainer(abc.ABC):
    """Abstract base of every training backend.

    Parameters
    ----------
    model:
        A :class:`~repro.core.tf_model.TaxonomyFactorModel` (or subclass).
        The trainer mutates it in place — after ``train()`` returns, the
        model holds the trained factors and its training log.
    callbacks:
        :class:`~repro.train.callbacks.Callback` objects invoked around
        every epoch (more can be passed per ``train()`` call).
    registry:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; the base
        loop records per-epoch telemetry into it
        (``repro_train_epochs_total``, ``repro_train_examples_total``,
        the ``repro_train_epoch_seconds`` histogram, and the
        ``repro_train_loss`` gauge, all labeled by backend).  A private
        registry is created when omitted, so ``trainer.registry`` always
        exports epoch throughput.

    The contract subclasses implement:

    * ``_setup(log)`` — validate the log, initialize factors/engines;
    * ``_run_epoch(epoch)`` — run one epoch and return a
      :class:`TrainEpoch`; the per-epoch seed is ``self.epoch_seed(epoch)``
      and the step size to honour is ``self.learning_rate``.

    Examples
    --------
    Every backend runs through the same loop; the serial one:

    >>> from repro import SyntheticConfig, TaxonomyFactorModel, generate_dataset
    >>> data = generate_dataset(SyntheticConfig(n_users=40, seed=0))
    >>> from repro.train import SerialTrainer
    >>> model = TaxonomyFactorModel(data.taxonomy, factors=4, epochs=2, seed=0)
    >>> result = SerialTrainer(model).train(data.log)
    >>> len(result.history) == result.epochs_run == 2
    True
    """

    #: Backend identifier stamped on every :class:`TrainEpoch`.
    backend: str = "abstract"
    #: Default epoch count when neither the call nor the config decides
    #: (``None`` → ``config.epochs``; the online backend pins this to 1).
    default_epochs: Optional[int] = None

    def __init__(
        self, model: Any, callbacks: Sequence[Any] = (), registry: Any = None
    ):
        from repro.obs.metrics import MetricsRegistry

        self.model = model
        self.callbacks = list(callbacks)
        self.registry = registry if registry is not None else MetricsRegistry()
        self.history: List[TrainEpoch] = []
        #: The rate every run starts from (and schedules re-base on);
        #: backends with a constructor override set this too.
        self.base_learning_rate = float(model.config.learning_rate)
        self.learning_rate = self.base_learning_rate
        self.stop_training = False
        #: Evaluations recorded by callbacks: ``(epoch, EvalResult)``.
        self.evals: List[Tuple[int, Any]] = []
        #: The most recent evaluation (set by ``EvalCallback``).
        self.last_eval: Any = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> TrainConfig:
        """The wrapped model's training hyper-parameters."""
        return self.model.config

    @property
    def seed(self) -> Optional[int]:
        """The master seed every per-epoch stream derives from."""
        return self.config.seed

    def epoch_seed(self, epoch: int) -> Optional[int]:
        """The library-wide per-epoch seed (see :func:`repro.utils.rng.epoch_seed`)."""
        return epoch_seed(self.seed, epoch)

    def set_learning_rate(self, learning_rate: float) -> None:
        """Set the step size the next epoch will train with."""
        check_positive("learning_rate", learning_rate)
        self.learning_rate = float(learning_rate)

    def eval_model(self) -> Any:
        """The model evaluation callbacks should score mid-training.

        The offline backends train ``self.model`` in place; the online
        backend overrides this to expose its working copy.
        """
        return self.model

    # ------------------------------------------------------------------
    def train(
        self,
        log: TransactionLog,
        epochs: Optional[int] = None,
        callbacks: Sequence[Any] = (),
    ) -> TrainerResult:
        """Run the shared epoch loop over *log*.

        *epochs* defaults to ``config.epochs`` (the online backend
        defaults to a single pass).  Returns a :class:`TrainerResult`;
        the trained model is also ``self.model``, mutated in place.
        """
        from repro.train.callbacks import CallbackList

        if epochs is None:
            epochs = (
                self.default_epochs
                if self.default_epochs is not None
                else self.config.epochs
            )
        if epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        stack = CallbackList(self.callbacks + list(callbacks))
        # Each train() call is a fresh run: _setup reinitializes the
        # factors, so the loop state resets with them (a stale history
        # would skew epoch numbering, and a schedule-annealed rate from a
        # previous run would become the new base).
        self.history = []
        self.evals = []
        self.last_eval = None
        self.learning_rate = self.base_learning_rate
        self._setup(log)
        self.stop_training = False
        stopped = False
        started = time.perf_counter()
        stack.on_train_begin(self)
        for _ in range(epochs):
            epoch = len(self.history)
            stack.on_epoch_begin(epoch, self)
            stats = self._run_epoch(epoch)
            self.history.append(stats)
            self._record_epoch_metrics(stats)
            stack.on_epoch_end(epoch, stats, self)
            if self.stop_training:
                stopped = True
                break
        self._finalize()
        result = TrainerResult(
            model=self.model,
            history=list(self.history),
            seconds=time.perf_counter() - started,
            backend=self.backend,
            stopped_early=stopped,
            evals=list(self.evals),
        )
        stack.on_train_end(result, self)
        return result

    def _record_epoch_metrics(self, stats: TrainEpoch) -> None:
        """Account one finished epoch in :attr:`registry`.

        Counters for epoch/example throughput, a histogram of epoch wall
        time, and a gauge holding the latest loss — labeled by backend so
        a serial fit and a threaded fit recorded into one shared registry
        stay separate series.
        """
        import math

        labels = {"backend": self.backend}
        self.registry.counter(
            "repro_train_epochs_total",
            help="Training epochs completed.",
            labels=labels,
        ).inc()
        self.registry.counter(
            "repro_train_examples_total",
            help="Training examples consumed across epochs.",
            labels=labels,
        ).inc(max(0, int(stats.n_examples)))
        self.registry.histogram(
            "repro_train_epoch_seconds",
            help="Wall time of one training epoch.",
            labels=labels,
        ).observe(max(0.0, float(stats.seconds)))
        if not math.isnan(stats.loss):
            self.registry.gauge(
                "repro_train_loss",
                help="Mean BPR loss of the most recent epoch.",
                labels=labels,
            ).set(float(stats.loss))

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _setup(self, log: TransactionLog) -> None:
        """Validate *log* and prepare factors/engines for epoch 0."""

    @abc.abstractmethod
    def _run_epoch(self, epoch: int) -> TrainEpoch:
        """Run one epoch with ``epoch_seed(epoch)`` and ``learning_rate``."""

    def _finalize(self) -> None:
        """Hook run after the last epoch, before the result is built."""

    def _check_universe(self, log: TransactionLog) -> None:
        if log.n_items != self.model.taxonomy.n_items:
            raise ValueError(
                f"log item universe ({log.n_items}) does not match the "
                f"taxonomy ({self.model.taxonomy.n_items})"
            )

    def _init_offline_factors(self, log: TransactionLog) -> None:
        """Fresh factors (seeded by ``config.seed``) for an offline fit.

        Shared by the serial and threaded backends — the documented
        1-worker bit-identity between them starts from this common
        initialization.
        """
        from repro.core.factors import FactorSet

        model, config = self.model, self.config
        model._factors = FactorSet(
            n_users=max(log.n_users, 1),
            taxonomy=model.taxonomy,
            factors=config.factors,
            levels=config.taxonomy_levels,
            with_next=config.markov_order > 0,
            init_scale=config.init_scale,
            seed=config.seed,
        )
        model._train_log = log
        model.history_ = []
