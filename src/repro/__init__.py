"""repro — taxonomy-aware latent factor models for purchase prediction.

A faithful, laptop-scale reproduction of *"Supercharging Recommender
Systems using Taxonomies for Learning User Purchase Behavior"*
(Kanagal et al., PVLDB 5(10), 2012).

Quickstart
----------
>>> from repro import (
...     SyntheticConfig, generate_dataset, train_test_split,
...     TaxonomyFactorModel, SerialTrainer, evaluate_model,
... )
>>> data = generate_dataset(SyntheticConfig(n_users=500, seed=0))
>>> split = train_test_split(data.log, mu=0.5, seed=0)
>>> model = TaxonomyFactorModel(data.taxonomy, epochs=5, seed=0)
>>> _ = SerialTrainer(model).train(split.train)
>>> result = evaluate_model(model, split)
>>> 0.0 <= result.auc <= 1.0
True

Training (the unified front door)
---------------------------------
``repro.train`` is the single entry point for model fitting: one
:class:`~repro.train.base.Trainer` contract with serial, threaded, and
online backends sharing one epoch loop, one per-epoch seed policy, and
one callback system (``EvalCallback``, ``EarlyStopping``, ``LRSchedule``,
``CheckpointCallback``).  Declarative
:class:`~repro.utils.config.ExperimentSpec` files run end to end via
:class:`~repro.train.runner.ExperimentRunner` — also exposed as
``python -m repro run`` / ``sweep``.

Serving (the recommended inference entry point)
-----------------------------------------------
Production traffic goes through ``repro.serving`` rather than per-model
calls: every model satisfies the :class:`~repro.serving.protocol.Recommender`
protocol (including the batched ``recommend_batch`` fast path),
:class:`~repro.serving.bundle.ModelBundle` packages factors + taxonomy +
config into one loadable directory, and
:class:`~repro.serving.service.RecommenderService` routes requests by user
type (known → factors, cold with history → fold-in, cold without →
popularity) with an LRU query cache and per-request ``ServingStats``.

>>> from repro import RecommenderService
>>> service = RecommenderService(model, history_log=split.train)
>>> service.recommend_batch([0, 1, 2], k=3).shape
(3, 3)

Streaming (online updates between retrains)
-------------------------------------------
``repro.streaming`` connects live purchase events to the factors being
served: events are micro-batched into per-user deltas, an
:class:`~repro.streaming.updater.OnlineUpdater` applies incremental BPR
steps to user vectors against frozen item/taxonomy factors (folding in
brand-new users, onboarding brand-new items through the taxonomy), and a
:class:`~repro.streaming.swap.HotSwapper` checkpoints versioned bundles
and atomically swaps the live model inside ``RecommenderService`` — with
cache invalidation, so serving never pauses and never goes stale.

>>> from repro import OnlineUpdater, PurchaseEvent
>>> updater = OnlineUpdater(model)
>>> _ = updater.apply_events([PurchaseEvent(user=0, items=(1, 2))])
>>> service.swap_model(updater.snapshot())
1

Package layout
--------------
``repro.core``
    The TF model (``TaxonomyFactorModel``), baselines (``MFModel``, FPMC,
    popularity/random), BPR/SGD training, sibling-based training, and
    cascaded inference.
``repro.serving``
    The serving layer: the ``Recommender`` protocol, ``ModelBundle``
    artifacts, the batched ``RecommenderService``, and the sharded
    multi-process ``ShardRouter`` fleet over shared-memory factors.
``repro.streaming``
    Online ingestion (event logs, micro-batches), incremental factor
    updates against frozen item factors, versioned checkpoints, and
    zero-downtime model hot-swap.
``repro.taxonomy``
    The category tree: construction, generation, serialization.
``repro.data``
    Transaction logs, the synthetic purchase-log generator, train/test
    splitting, dataset statistics, Amazon-format loaders.
``repro.eval``
    Ranking metrics and the paper's evaluation protocol.
``repro.parallel``
    Lock-based threaded SGD, thread-local factor caches, and the
    multi-core scaling model.
``repro.obs``
    Observability: the thread-safe ``MetricsRegistry`` (counters, gauges,
    fixed-bucket histograms), Prometheus-text / JSON-lines exporters, and
    deterministic request tracing that stitches per-shard spans into one
    tree (``repro stats`` renders both).
``repro.gateway``
    The network edge: a stdlib-only asyncio HTTP/1.1 ``Gateway`` over a
    service or fleet, with request coalescing, bounded admission
    (429 + ``Retry-After``), graceful drains around hot swaps, and the
    seeded closed-loop ``LoadGenerator`` behind the p99 SLO gates.
``repro.viz``
    t-SNE / PCA projections of the learned factors.
"""

from repro.core.cascade import CascadedRecommender, CascadeResult
from repro.core.explain import ScoreExplanation, explain_recommendations, explain_score
from repro.core.folding import (
    fold_in_user,
    fold_in_users,
    recommend_for_history,
    score_for_vector,
)
from repro.core.mf_model import MFModel, bpr_mf_model, flat_taxonomy, fpmc_model
from repro.core.popularity import PopularityModel, RandomModel
from repro.core.targeting import audience_for_category, diversified_recommend
from repro.core.tf_model import NotFittedError, TaxonomyFactorModel
from repro.eval.model_selection import GridSearchResult, grid_search
from repro.eval.significance import compare_models, paired_bootstrap, sign_test
from repro.taxonomy.extend import add_items
from repro.data.split import TrainTestSplit, train_test_split
from repro.data.synthetic import SyntheticDataset, generate_dataset
from repro.data.transactions import TransactionLog
from repro.eval.protocol import (
    CascadeEvalResult,
    ColdStartResult,
    EvalResult,
    TopKResult,
    evaluate_cascade,
    evaluate_category_level,
    evaluate_cold_start,
    evaluate_model,
    evaluate_parallel,
    evaluate_topk,
)
from repro.serving import (
    BundleError,
    FoldInRecommender,
    ModelBundle,
    ModelState,
    Recommender,
    RecommenderService,
    ServingError,
    ServingStats,
    ShardingError,
    ShardRouter,
    SubtreeIndex,
)
from repro.streaming import (
    CheckpointStore,
    EventLog,
    HotSwapper,
    ItemArrival,
    MicroBatch,
    OnlineUpdater,
    PurchaseEvent,
    StreamingPipeline,
    StreamingStats,
    events_from_transactions,
    iter_microbatches,
)
from repro.taxonomy.tree import Taxonomy, TaxonomyError
from repro.train import (
    CheckpointCallback,
    EarlyStopping,
    EvalCallback,
    ExperimentReport,
    ExperimentResult,
    ExperimentRunner,
    LRSchedule,
    OnlineTrainer,
    SerialTrainer,
    ThreadedTrainer,
    TrainEpoch,
    Trainer,
    TrainerResult,
    run_experiment,
    sweep,
    train_model,
)
from repro.utils.config import (
    CascadeConfig,
    DataSpec,
    EvalSpec,
    ExperimentSpec,
    SyntheticConfig,
    TrainConfig,
    TrainerSpec,
    apply_overrides,
    load_spec,
    save_spec,
)

__version__ = "2.1.0"

__all__ = [
    "__version__",
    # Models
    "TaxonomyFactorModel",
    "MFModel",
    "fpmc_model",
    "bpr_mf_model",
    "PopularityModel",
    "RandomModel",
    "NotFittedError",
    # Serving (recommended inference entry point)
    "Recommender",
    "RecommenderService",
    "ModelState",
    "ServingStats",
    "ServingError",
    "ModelBundle",
    "BundleError",
    "FoldInRecommender",
    "ShardRouter",
    "ShardingError",
    "SubtreeIndex",
    # Streaming (online updates + hot swap)
    "PurchaseEvent",
    "ItemArrival",
    "EventLog",
    "MicroBatch",
    "iter_microbatches",
    "events_from_transactions",
    "OnlineUpdater",
    "StreamingStats",
    "CheckpointStore",
    "HotSwapper",
    "StreamingPipeline",
    # Inference
    "CascadedRecommender",
    "CascadeResult",
    "ScoreExplanation",
    "explain_score",
    "explain_recommendations",
    "fold_in_user",
    "fold_in_users",
    "score_for_vector",
    "recommend_for_history",
    "audience_for_category",
    "diversified_recommend",
    # Taxonomy
    "Taxonomy",
    "TaxonomyError",
    "flat_taxonomy",
    "add_items",
    # Data
    "TransactionLog",
    "SyntheticDataset",
    "generate_dataset",
    "TrainTestSplit",
    "train_test_split",
    # Evaluation
    "EvalResult",
    "ColdStartResult",
    "CascadeEvalResult",
    "TopKResult",
    "evaluate_topk",
    "evaluate_model",
    "evaluate_category_level",
    "evaluate_cold_start",
    "evaluate_cascade",
    "evaluate_parallel",
    "grid_search",
    "GridSearchResult",
    "paired_bootstrap",
    "sign_test",
    "compare_models",
    # Training (the unified front door)
    "Trainer",
    "TrainerResult",
    "TrainEpoch",
    "SerialTrainer",
    "train_model",
    "ThreadedTrainer",
    "OnlineTrainer",
    "LRSchedule",
    "EvalCallback",
    "EarlyStopping",
    "CheckpointCallback",
    "ExperimentRunner",
    "ExperimentReport",
    "ExperimentResult",
    "run_experiment",
    "sweep",
    # Configuration
    "TrainConfig",
    "CascadeConfig",
    "SyntheticConfig",
    "ExperimentSpec",
    "DataSpec",
    "TrainerSpec",
    "EvalSpec",
    "load_spec",
    "save_spec",
    "apply_overrides",
]
