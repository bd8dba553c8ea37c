"""The unified training front door (the ``repro.train`` package).

One :class:`Trainer` API fits every model the library defines under every
execution regime the paper studies:

* :class:`SerialTrainer` — single-process offline training (Sec. 4);
  vectorized minibatches by default, per-sample mode for exact
  equivalence with the threaded engine;
* :class:`ThreadedTrainer` — lock-based multi-threaded SGD (Sec. 6.1);
* :class:`OnlineTrainer` — incremental streaming updates between
  retrains, against frozen item/taxonomy factors.

All three share one epoch loop, one per-epoch seed policy
(:func:`repro.utils.rng.epoch_seed`), and one callback system
(:class:`EvalCallback`, :class:`EarlyStopping`, :class:`LRSchedule`,
:class:`CheckpointCallback`).  On top, declarative
:class:`~repro.utils.config.ExperimentSpec` files run end to end through
:class:`ExperimentRunner` / :func:`run_experiment` / :func:`sweep` — the
``python -m repro run`` and ``sweep`` commands.
"""

from repro.train.base import TrainEpoch, Trainer, TrainerResult
from repro.train.callbacks import (
    Callback,
    CallbackList,
    CheckpointCallback,
    EarlyStopping,
    EvalCallback,
    LambdaCallback,
    LRSchedule,
    ProgressCallback,
)
from repro.train.online import OnlineTrainer
from repro.train.runner import (
    ExperimentReport,
    ExperimentResult,
    ExperimentRunner,
    SweepCell,
    run_experiment,
    sweep,
    sweep_table,
    warm_stream_split,
)
from repro.train.serial import SerialTrainer, train_model
from repro.train.threaded import ThreadedTrainer

__all__ = [
    "Trainer",
    "TrainerResult",
    "TrainEpoch",
    "SerialTrainer",
    "train_model",
    "ThreadedTrainer",
    "OnlineTrainer",
    "Callback",
    "CallbackList",
    "LambdaCallback",
    "LRSchedule",
    "EvalCallback",
    "EarlyStopping",
    "CheckpointCallback",
    "ProgressCallback",
    "ExperimentRunner",
    "ExperimentReport",
    "ExperimentResult",
    "SweepCell",
    "run_experiment",
    "sweep",
    "sweep_table",
    "warm_stream_split",
]
