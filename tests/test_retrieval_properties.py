"""Property/fuzz suite for the approximate retrieval tiers.

The contract under test, from ``repro.serving.index``:

* **knob-extreme identity** — ``budget=None`` (or >= catalog) and
  ``nprobe=None`` (or >= cell count) reproduce the exact ranking;
* **monotonicity** — recall@k never decreases as the knob grows (the
  selected cell sets are nested);
* **safety** — no knob setting, catalog shape, or ban pattern can
  resurrect a banned item or a PAD slot, and ``k`` beyond the catalog
  pads rather than inventing candidates;
* **determinism** — same model + same knob => byte-identical rankings
  across repeated calls, including the fp16-page configuration;
* **refusal** — every invalid (retrieval, cascade, knob) combination is
  rejected up front with an error that names the approximate modes, on
  both :class:`RecommenderService` and :class:`ShardRouter`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.factors import FactorSet
from repro.core.tf_model import TaxonomyFactorModel
from repro.core.topk import PAD_ITEM
from repro.eval.recall import recall_vs_reference, sweep_recall
from repro.serving.index import RetrievalPlan, SubtreeIndex
from repro.serving.service import RecommenderService
from repro.serving.sharding import ShardRouter
from repro.taxonomy.generator import complete_taxonomy
from repro.taxonomy.tree import Taxonomy
from repro.utils.config import CascadeConfig, TrainConfig

FACTORS = 8


def _catalog(seed: int = 0, branching=(4, 5), per_leaf: int = 6):
    """A small taxonomy plus random effective factors and biases."""
    taxonomy = complete_taxonomy(branching, per_leaf)
    rng = np.random.default_rng(seed)
    effective = rng.normal(size=(taxonomy.n_items, FACTORS))
    bias = rng.normal(size=taxonomy.n_items) * 0.1
    return taxonomy, effective, bias


def _tie_heavy_catalog(rng: np.random.Generator):
    """Quantized factors: scores collide constantly, within and across
    cells, so every ranking decision exercises the tie-break order."""
    branching = (int(rng.integers(2, 5)), int(rng.integers(2, 5)))
    per_leaf = int(rng.integers(1, 5))
    taxonomy = complete_taxonomy(branching, per_leaf)
    effective = rng.integers(-1, 2, size=(taxonomy.n_items, 3)).astype(float)
    bias = rng.integers(0, 2, size=taxonomy.n_items).astype(float) * 0.5
    return taxonomy, effective, bias


def _model(taxonomy: Taxonomy, seed: int = 0) -> TaxonomyFactorModel:
    rng = np.random.default_rng(seed)
    factor_set = FactorSet.from_arrays(
        taxonomy,
        user=rng.normal(0, 0.4, size=(16, FACTORS)),
        w=rng.normal(0, 0.4, size=(taxonomy.n_nodes + 1, FACTORS)),
        bias=rng.normal(0, 0.1, size=taxonomy.n_nodes + 1),
        levels=taxonomy.max_depth + 1,
        init_scale=0.1,
    )
    model = TaxonomyFactorModel(taxonomy, TrainConfig(factors=FACTORS))
    model._factors = factor_set
    return model


# ----------------------------------------------------------------------
# Knob-extreme identity: exhaustive knobs ARE the exact scan
# ----------------------------------------------------------------------
class TestKnobExtremeIdentity:
    @pytest.fixture()
    def index(self):
        taxonomy, effective, bias = _catalog()
        return SubtreeIndex(effective, bias, taxonomy, approx=True)

    @pytest.fixture()
    def queries(self):
        return np.random.default_rng(1).normal(size=(12, FACTORS))

    @pytest.mark.parametrize("knob", [None, 10_000])
    def test_budget_extreme_matches_exact(self, index, queries, knob):
        exact = index.top_k(queries, 7)
        page = index.search(queries, 7, plan=RetrievalPlan("budget", budget=knob))
        assert np.array_equal(page.items, exact.items)
        np.testing.assert_allclose(page.scores, exact.scores, rtol=1e-12)

    @pytest.mark.parametrize("knob", [None, 10_000])
    def test_nprobe_extreme_matches_exact(self, index, queries, knob):
        exact = index.top_k(queries, 7)
        page = index.search(queries, 7, plan=RetrievalPlan("ivf", nprobe=knob))
        assert np.array_equal(page.items, exact.items)
        np.testing.assert_allclose(page.scores, exact.scores, rtol=1e-12)

    def test_extremes_match_exact_with_bans(self, index, queries):
        n_items = index.n_indexed
        banned = [np.arange(n_items, dtype=np.int64)]  # row 0: everything
        banned += [
            np.random.default_rng(2 + row).choice(n_items, 20, replace=False)
            for row in range(queries.shape[0] - 1)
        ]
        exact = index.top_k(queries, 7, banned=banned)
        for page in (
            index.search(queries, 7, banned, RetrievalPlan("budget")),
            index.search(queries, 7, banned, RetrievalPlan("ivf")),
        ):
            assert np.array_equal(page.items, exact.items)
        assert (exact.items[0] == PAD_ITEM).all()

    @pytest.mark.parametrize(
        "retrieval,knob_kwargs",
        [
            ("budget", {}),
            ("budget", {"budget": 10_000}),
            ("ivf", {}),
            ("ivf", {"nprobe": 10_000}),
        ],
    )
    def test_service_extremes_match_exact_service(self, retrieval, knob_kwargs):
        taxonomy, _eff, _bias = _catalog()
        model = _model(taxonomy)
        users = np.arange(model.n_users)
        exact = RecommenderService(model, cache_size=0).recommend_batch(
            users, k=9
        )
        approx = RecommenderService(
            model, cache_size=0, retrieval=retrieval, **knob_kwargs
        ).recommend_batch(users, k=9)
        assert np.array_equal(approx, exact)


# ----------------------------------------------------------------------
# Monotonicity: recall@k never decreases as the knob grows
# ----------------------------------------------------------------------
class TestRecallMonotonicity:
    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_budget_and_nprobe_recall_are_monotone(self, seed):
        taxonomy, effective, bias = _catalog(seed=seed)
        index = SubtreeIndex(effective, bias, taxonomy, approx=True)
        queries = np.random.default_rng(seed + 100).normal(size=(24, FACTORS))
        n_items = taxonomy.n_items
        curve = sweep_recall(
            index,
            queries,
            k=10,
            budgets=(1, n_items // 8, n_items // 2, None),
            nprobes=tuple(range(1, index.n_cells + 1)),
        )
        for mode in ("budget", "ivf"):
            recalls = [p.recall for p in curve.points if p.mode == mode]
            assert recalls == sorted(recalls), (mode, recalls)
            assert recalls[-1] == 1.0

    def test_monotone_under_bans(self):
        taxonomy, effective, bias = _catalog(seed=5)
        index = SubtreeIndex(effective, bias, taxonomy, approx=True)
        rng = np.random.default_rng(6)
        queries = rng.normal(size=(16, FACTORS))
        banned = [
            rng.choice(taxonomy.n_items, 30, replace=False) for _ in queries
        ]
        exact = index.top_k(queries, 10, banned=banned)
        last = -1.0
        for budget in (1, 20, 60, taxonomy.n_items):
            page = index.search(
                queries, 10, banned, RetrievalPlan("budget", budget=budget)
            )
            recall = recall_vs_reference(page.items, exact.items)
            assert recall >= last
            last = recall
        assert last == 1.0


# ----------------------------------------------------------------------
# Seeded fuzz: ties, bans, pads, k > catalog, byte determinism
# ----------------------------------------------------------------------
class TestApproximateFuzz:
    @pytest.mark.parametrize("trial", range(25))
    def test_no_resurrection_and_byte_determinism(self, trial):
        rng = np.random.default_rng(1000 + trial)
        taxonomy, effective, bias = _tie_heavy_catalog(rng)
        n_items = taxonomy.n_items
        index = SubtreeIndex(effective, bias, taxonomy, approx=True)
        n_rows = int(rng.integers(1, 7))
        queries = rng.integers(-1, 2, size=(n_rows, 3)).astype(float)
        k = int(rng.integers(1, n_items + 5))

        banned = []
        for row in range(n_rows):
            if row == 0 and rng.random() < 0.5:
                banned.append(np.arange(n_items, dtype=np.int64))  # full ban
            else:
                banned.append(
                    rng.choice(
                        n_items,
                        size=int(rng.integers(0, n_items + 1)),
                        replace=False,
                    )
                )

        if rng.random() < 0.5:
            knob = int(rng.integers(1, n_items + 2))
            plan = RetrievalPlan("budget", budget=knob)
        else:
            knob = int(rng.integers(1, index.n_cells + 2))
            plan = RetrievalPlan("ivf", nprobe=knob)
        scan = lambda: index.search(queries, k, banned, plan)  # noqa: E731
        page = scan()

        width = min(k, n_items)
        assert page.items.shape == (n_rows, width)
        for row in range(n_rows):
            real = page.items[row][page.items[row] >= 0]
            # Never a banned item, never an id outside the catalog.
            assert np.intersect1d(real, banned[row]).size == 0
            assert real.size == 0 or real.max() < n_items
            # Pads only ever trail real items, with -inf scores.
            pad_slots = page.items[row] == PAD_ITEM
            assert (page.items[row][: real.size] >= 0).all()
            assert np.isneginf(page.scores[row][pad_slots]).all()
            # Scores arrive best-first.
            finite = page.scores[row][~pad_slots]
            assert (np.diff(finite) <= 0).all()
            if banned[row].size >= n_items:
                assert pad_slots.all()

        # Byte determinism: an identical second scan is identical output.
        again = scan()
        assert np.array_equal(page.items, again.items)
        assert np.array_equal(page.scores, again.scores)

    @pytest.mark.parametrize("trial", range(8))
    def test_exhaustive_knob_equals_exact_on_tie_heavy_catalogs(self, trial):
        rng = np.random.default_rng(2000 + trial)
        taxonomy, effective, bias = _tie_heavy_catalog(rng)
        index = SubtreeIndex(effective, bias, taxonomy, approx=True)
        queries = rng.integers(-1, 2, size=(5, 3)).astype(float)
        k = int(rng.integers(1, taxonomy.n_items + 3))
        exact = index.top_k(queries, k)
        assert np.array_equal(
            index.search(
                queries, k, plan=RetrievalPlan("budget", budget=taxonomy.n_items)
            ).items,
            exact.items,
        )
        assert np.array_equal(
            index.search(
                queries, k, plan=RetrievalPlan("ivf", nprobe=index.n_cells)
            ).items,
            exact.items,
        )

    def test_k_zero_and_empty_batch_shapes(self):
        taxonomy, effective, bias = _catalog()
        index = SubtreeIndex(effective, bias, taxonomy, approx=True)
        queries = np.random.default_rng(0).normal(size=(4, FACTORS))
        budget = RetrievalPlan("budget", budget=5)
        assert index.search(queries, 0, plan=budget).items.shape == (4, 0)
        ivf = RetrievalPlan("ivf", nprobe=1)
        assert index.search(queries[:0], 3, plan=ivf).items.shape == (0, 3)


# ----------------------------------------------------------------------
# Approximate scans need an index built for them
# ----------------------------------------------------------------------
class TestApproxScanGuard:
    def test_exact_index_refuses_approx_scans(self):
        taxonomy, effective, bias = _catalog()
        index = SubtreeIndex(effective, bias, taxonomy)
        queries = np.zeros((2, FACTORS))
        with pytest.raises(ValueError, match="approx=True"):
            index.search(queries, 3, plan=RetrievalPlan("budget"))
        with pytest.raises(ValueError, match="approx=True"):
            index.search(queries, 3, plan=RetrievalPlan("ivf"))


# ----------------------------------------------------------------------
# Invalid configurations refuse loudly, naming the modes involved
# ----------------------------------------------------------------------
def _service_factory(**kwargs):
    taxonomy, _eff, _bias = _catalog()
    return RecommenderService(_model(taxonomy), cache_size=0, **kwargs)


def _router_factory(**kwargs):
    taxonomy, _eff, _bias = _catalog()
    return ShardRouter(_model(taxonomy), n_shards=2, **kwargs)


@pytest.mark.parametrize("factory", [_service_factory, _router_factory])
class TestInvalidRetrievalConfigs:
    """One test per invalid combination, on both serving front doors.

    The guards run before any worker process spawns, so the router
    cases are as cheap as the service ones.
    """

    @pytest.mark.parametrize("retrieval", ["pruned", "budget", "ivf"])
    def test_cascade_conflict_names_all_pruning_modes(
        self, factory, retrieval
    ):
        with pytest.raises(ValueError) as excinfo:
            factory(retrieval=retrieval, cascade=CascadeConfig())
        message = str(excinfo.value)
        assert retrieval in message
        # The message must name the approximate modes, not just 'pruned'.
        assert "budget" in message and "ivf" in message

    def test_unknown_retrieval_mode(self, factory):
        with pytest.raises(ValueError, match="exact/pruned/budget/ivf"):
            factory(retrieval="fuzzy")

    @pytest.mark.parametrize("retrieval", ["exact", "pruned", "ivf"])
    def test_budget_knob_requires_budget_mode(self, factory, retrieval):
        with pytest.raises(ValueError, match="retrieval='budget'"):
            factory(retrieval=retrieval, budget=100)

    @pytest.mark.parametrize("retrieval", ["exact", "pruned", "budget"])
    def test_nprobe_knob_requires_ivf_mode(self, factory, retrieval):
        with pytest.raises(ValueError, match="retrieval='ivf'"):
            factory(retrieval=retrieval, nprobe=4)

    def test_nonpositive_knobs_rejected(self, factory):
        with pytest.raises(ValueError, match="budget must be >= 1"):
            factory(retrieval="budget", budget=0)
        with pytest.raises(ValueError, match="nprobe must be >= 1"):
            factory(retrieval="ivf", nprobe=0)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"retrieval": "budget", "budget": 7.9},
            {"retrieval": "budget", "budget": True},
            {"retrieval": "budget", "budget": np.float64(2.5)},
            {"retrieval": "budget", "budget": "7"},
            {"retrieval": "ivf", "nprobe": 2.0},
            {"retrieval": "ivf", "nprobe": False},
        ],
    )
    def test_non_integer_knobs_rejected(self, factory, knobs):
        """Fractional, boolean and string knobs are refused, not truncated."""
        name = "budget" if "budget" in knobs else "nprobe"
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            factory(**knobs)


# ----------------------------------------------------------------------
# The plan value itself
# ----------------------------------------------------------------------
class TestRetrievalPlan:
    def test_numpy_integers_accepted_as_plain_ints(self):
        plan = RetrievalPlan("budget", budget=np.int64(7))
        assert plan == RetrievalPlan("budget", budget=7)
        assert type(plan.budget) is int

    @pytest.mark.parametrize(
        "plan",
        [
            RetrievalPlan(),
            RetrievalPlan("pruned", level=1),
            RetrievalPlan("budget", budget=np.int64(50)),
            RetrievalPlan("ivf", nprobe=3),
        ],
    )
    def test_pickle_round_trip(self, plan):
        """Plans ride in the worker spec to spawned shard processes."""
        import pickle

        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_service_holds_the_validated_plan(self):
        service = _service_factory(retrieval="ivf", nprobe=np.int32(2))
        assert service.plan == RetrievalPlan("ivf", nprobe=2)

    def test_level_is_validated(self):
        with pytest.raises(ValueError, match="level must be an integer"):
            RetrievalPlan("pruned", level=1.5)
        with pytest.raises(ValueError, match="level must be >= 0"):
            RetrievalPlan("pruned", level=-1)
