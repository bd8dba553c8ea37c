"""The serving layer: the recommended front door for all inference.

Five pieces turn the trained models into a deployable system:

* :class:`~repro.serving.protocol.Recommender` — the structural protocol
  (``score_items`` / ``score_matrix`` / ``recommend`` / ``recommend_batch``)
  every model class implements;
* :class:`~repro.serving.bundle.ModelBundle` — a one-directory artifact
  (factors + taxonomy + config + versioned manifest) that ``save``/``load``
  round-trips every supported model;
* :class:`~repro.serving.service.RecommenderService` — batch-first request
  routing (known users → factors, cold users with history → fold-in, cold
  users without → popularity fallback), optional cascaded inference, a
  generation-stamped LRU query-vector cache, per-request
  :class:`ServingStats`, and atomic zero-downtime ``swap_model`` (the
  hot-swap contract ``repro.streaming`` publishes through);
* :class:`~repro.serving.index.SubtreeIndex` — taxonomy-pruned top-k
  retrieval for large catalogs: item factors grouped by taxonomy
  subtree, per-group Cauchy–Schwarz score bounds, blocked descending-bound
  scan with early termination — bit-identical rankings to the dense pass
  with ``retrieval="pruned"``, plus the sub-linear
  approximate-but-deterministic tiers ``retrieval="budget"`` (bounded
  node budget per row) and ``retrieval="ivf"`` (top-``nprobe`` taxonomy
  cells) for catalogs past ~1M items, each one
  :class:`~repro.serving.index.RetrievalPlan` behind ``search``;
* :class:`~repro.serving.sharding.ShardRouter` — the multi-process fleet:
  factor matrices published once via ``multiprocessing.shared_memory``,
  N shard workers each hosting a full service over zero-copy views, user
  hashing + per-shard batching in front, and fleet-wide generation-stamped
  hot swap.

Quickstart::

    from repro.serving import ModelBundle, RecommenderService, ShardRouter

    ModelBundle(model).save("artifacts/tf")            # package for serving
    bundle = ModelBundle.load("artifacts/tf")
    service = RecommenderService(bundle.model, history_log=split.train)
    top = service.recommend_batch(users, k=10)         # one BLAS pass
    print(service.stats.as_dict())

    with ShardRouter(bundle.model, n_shards=4,
                     history_log=split.train) as router:
        top = router.recommend_batch(users, k=10)      # same rows, N cores
"""

from repro.serving.bundle import BUNDLE_VERSION, BundleError, ModelBundle
from repro.serving.coldstart import FoldInRecommender
from repro.serving.index import (
    APPROX_RETRIEVAL_MODES,
    RETRIEVAL_MODES,
    RetrievalPage,
    RetrievalPlan,
    SubtreeIndex,
)
from repro.serving.protocol import Recommender
from repro.serving.service import (
    ModelState,
    QueryVectorCache,
    RecommenderService,
    ServingError,
    ServingStats,
)
from repro.serving.sharding import (
    DeadlineExceeded,
    ShardingError,
    ShardRequest,
    ShardRouter,
    SharedFactors,
    SharedFactorsHandle,
    shard_of,
)

__all__ = [
    "Recommender",
    "ModelBundle",
    "BundleError",
    "BUNDLE_VERSION",
    "FoldInRecommender",
    "RecommenderService",
    "ModelState",
    "RETRIEVAL_MODES",
    "APPROX_RETRIEVAL_MODES",
    "ServingError",
    "ServingStats",
    "QueryVectorCache",
    "ShardRouter",
    "ShardingError",
    "DeadlineExceeded",
    "ShardRequest",
    "SharedFactors",
    "SharedFactorsHandle",
    "shard_of",
    "SubtreeIndex",
    "RetrievalPage",
    "RetrievalPlan",
]
