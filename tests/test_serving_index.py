"""Taxonomy-pruned exact retrieval: grouping, exactness, wiring, hot swap."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    HotSwapper,
    OnlineUpdater,
    PurchaseEvent,
    RecommenderService,
    ShardRouter,
    SyntheticConfig,
    TaxonomyFactorModel,
    generate_dataset,
    train_test_split,
)
from repro.core.topk import top_k_rows
from repro.serving.index import SubtreeIndex
from repro.taxonomy.tree import Taxonomy
from repro.train import train_model
from repro.utils.config import CascadeConfig, TrainConfig


def _random_taxonomy(rng: np.random.Generator) -> Taxonomy:
    n_cats = int(rng.integers(2, 6))
    parent = [-1] + [0] * n_cats
    for cat in range(1, n_cats + 1):
        parent += [cat] * int(rng.integers(1, 8))
    return Taxonomy(parent)


@pytest.fixture(scope="module")
def trained():
    data = generate_dataset(SyntheticConfig(n_users=250, seed=3))
    split = train_test_split(data.log, mu=0.5, seed=4)
    model = train_model(
        TaxonomyFactorModel(
            data.taxonomy,
            TrainConfig(factors=8, epochs=2, seed=5, markov_order=1),
        ),
        split.train,
    )
    return data, split, model


# ----------------------------------------------------------------------
# Taxonomy grouping helper
# ----------------------------------------------------------------------
class TestItemGroupsAtLevel:
    def test_partitions_all_items_once(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            taxonomy = _random_taxonomy(rng)
            level = int(rng.integers(0, taxonomy.max_depth + 1))
            groups = taxonomy.item_groups_at_level(level)
            combined = np.concatenate([members for _n, members in groups])
            assert np.array_equal(
                np.sort(combined), np.arange(taxonomy.n_items)
            )

    def test_matches_subtree_items(self):
        taxonomy = Taxonomy([-1, 0, 0, 1, 1, 2, 2, 2])
        groups = dict(taxonomy.item_groups_at_level(1))
        assert set(groups) == {1, 2}
        for node, members in groups.items():
            assert np.array_equal(members, taxonomy.subtree_items(node))

    def test_subset_restriction(self):
        taxonomy = Taxonomy([-1, 0, 0, 1, 1, 2, 2, 2])
        subset = np.array([0, 3, 4])
        groups = taxonomy.item_groups_at_level(1, items=subset)
        combined = np.concatenate([members for _n, members in groups])
        assert np.array_equal(np.sort(combined), subset)
        assert taxonomy.item_groups_at_level(1, items=np.array([], dtype=np.int64)) == []

    def test_members_ascending_anchors_ascending(self):
        taxonomy = Taxonomy([-1, 0, 0, 1, 1, 2, 2, 2])
        groups = taxonomy.item_groups_at_level(1)
        anchors = [node for node, _m in groups]
        assert anchors == sorted(anchors)
        for _node, members in groups:
            assert (np.diff(members) > 0).all() or members.size <= 1


# ----------------------------------------------------------------------
# Raw index exactness
# ----------------------------------------------------------------------
class TestSubtreeIndexExactness:
    def test_matches_brute_force_fuzz(self):
        """Random catalogs with heavy ties, bans, and k > catalog: the
        pruned page must be bit-identical to the dense ranking."""
        rng = np.random.default_rng(11)
        for trial in range(60):
            taxonomy = _random_taxonomy(rng)
            n_items, factors = taxonomy.n_items, 4
            effective = rng.integers(-2, 3, size=(n_items, factors)).astype(
                float
            )
            bias = rng.integers(-1, 2, size=n_items).astype(float)
            index = SubtreeIndex(
                effective, bias, taxonomy, level=1, block_items=3
            )
            n_rows = int(rng.integers(1, 5))
            queries = rng.integers(-2, 3, size=(n_rows, factors)).astype(float)
            k = int(rng.integers(1, n_items + 3))
            banned = [
                rng.choice(
                    n_items,
                    size=int(rng.integers(0, n_items + 1)),
                    replace=False,
                )
                for _ in range(n_rows)
            ]
            dense = queries @ effective.T + bias
            for row, row_banned in enumerate(banned):
                if row_banned.size:
                    dense[row, row_banned] = -np.inf
            page = index.top_k(queries, k, banned=banned)
            assert np.array_equal(page.items, top_k_rows(dense, k)), trial

    def test_all_banned_row_is_all_pad(self):
        taxonomy = Taxonomy([-1, 0, 0, 1, 1, 2, 2])
        effective = np.eye(4)[:, :3]
        bias = np.zeros(4)
        index = SubtreeIndex(effective, bias, taxonomy, level=1)
        page = index.top_k(
            np.ones((1, 3)), k=3, banned=[np.arange(4)]
        )
        assert (page.items == -1).all()
        assert (page.scores == -np.inf).all()

    def test_subset_index_returns_global_ids(self):
        rng = np.random.default_rng(2)
        taxonomy = _random_taxonomy(rng)
        n_items = taxonomy.n_items
        effective = rng.normal(size=(n_items, 4))
        bias = rng.normal(size=n_items)
        lo, hi = 1, max(2, n_items - 1)
        subset = np.arange(lo, hi)
        index = SubtreeIndex(effective, bias, taxonomy, items=subset)
        queries = rng.normal(size=(3, 4))
        dense = queries @ effective[subset].T + bias[subset]
        expected = top_k_rows(dense, 4)
        expected = np.where(expected >= 0, expected + lo, -1)
        page = index.top_k(queries, 4)
        assert np.array_equal(page.items, expected)
        assert index.n_indexed == subset.size

    def test_nodes_scored_prunes_on_coherent_factors(self):
        """With subtree-coherent factors the scan must actually stop
        early — fewer dot products than the dense pass."""
        rng = np.random.default_rng(9)
        parent = [-1] + [0] * 20
        for cat in range(1, 21):
            parent += [cat] * 30
        taxonomy = Taxonomy(parent)
        # Ancestors dominate: one category is far better than the rest.
        w = rng.normal(0, 0.05, size=(taxonomy.n_nodes + 1, 8))
        w[1:21] *= 20.0
        chains = taxonomy.item_ancestor_matrix()
        effective = w[chains].sum(axis=1)
        bias = np.zeros(taxonomy.n_items)
        index = SubtreeIndex(
            effective, bias, taxonomy, level=1, block_items=30
        )
        queries = rng.normal(0, 0.5, size=(16, 8))
        page = index.top_k(queries, 5)
        dense = queries @ effective.T + bias
        assert np.array_equal(page.items, top_k_rows(dense, 5))
        assert page.nodes_scored < dense.size
        assert page.groups_scanned < index.n_groups * queries.shape[0]

    def test_validation(self):
        taxonomy = Taxonomy([-1, 0, 0, 1, 1, 2, 2])
        eff, bias = np.zeros((4, 2)), np.zeros(4)
        with pytest.raises(ValueError, match="2-d"):
            SubtreeIndex(np.zeros(4), bias, taxonomy)
        with pytest.raises(ValueError, match="bias"):
            SubtreeIndex(eff, np.zeros(3), taxonomy)
        with pytest.raises(ValueError, match="level"):
            SubtreeIndex(eff, bias, taxonomy, level=9)
        with pytest.raises(ValueError, match="out of range"):
            SubtreeIndex(eff, bias, taxonomy, items=np.array([7]))
        with pytest.raises(ValueError, match="2-d"):
            SubtreeIndex(eff, bias, taxonomy).top_k(np.zeros(2), 2)
        with pytest.raises(ValueError, match="banned"):
            SubtreeIndex(eff, bias, taxonomy).top_k(
                np.zeros((2, 2)), 2, banned=[None]
            )


# ----------------------------------------------------------------------
# Service wiring
# ----------------------------------------------------------------------
class TestServicePrunedRetrieval:
    def test_batch_bit_identical_to_exact(self, trained):
        _data, split, model = trained
        exact = RecommenderService(model, history_log=split.train)
        pruned = RecommenderService(
            model, history_log=split.train, retrieval="pruned"
        )
        users = np.arange(model.n_users)
        assert np.array_equal(
            pruned.recommend_batch(users, k=10),
            exact.recommend_batch(users, k=10),
        )
        assert pruned.model_state.index is not None
        assert pruned.plan.mode == "pruned"
        assert exact.model_state.index is None

    def test_single_requests_match(self, trained):
        _data, split, model = trained
        exact = RecommenderService(model, history_log=split.train)
        pruned = RecommenderService(
            model, history_log=split.train, retrieval="pruned"
        )
        for user in (0, 3, 17, 101):
            assert np.array_equal(
                pruned.recommend(user, k=7), exact.recommend(user, k=7)
            )

    def test_cold_paths_unaffected(self, trained):
        _data, split, model = trained
        pruned = RecommenderService(
            model, history_log=split.train, retrieval="pruned"
        )
        exact = RecommenderService(model, history_log=split.train)
        history = [np.array([0, 2])]
        assert np.array_equal(
            pruned.recommend(None, k=5, history=history),
            exact.recommend(None, k=5, history=history),
        )
        assert np.array_equal(
            pruned.recommend(None, k=5), exact.recommend(None, k=5)
        )

    def test_rejects_cascade_combination(self, trained):
        _data, split, model = trained
        with pytest.raises(ValueError, match="cascade"):
            RecommenderService(
                model,
                history_log=split.train,
                cascade=CascadeConfig(keep_fractions=(0.5, 0.5, 0.5)),
                retrieval="pruned",
            )
        with pytest.raises(ValueError, match="retrieval"):
            RecommenderService(model, retrieval="fuzzy")

    def test_index_level_override(self, trained):
        _data, split, model = trained
        service = RecommenderService(
            model, history_log=split.train, retrieval="pruned", index_level=1
        )
        assert service.model_state.index.level == 1
        exact = RecommenderService(model, history_log=split.train)
        users = np.arange(64)
        assert np.array_equal(
            service.recommend_batch(users, k=10),
            exact.recommend_batch(users, k=10),
        )

    def test_pruned_counts_nodes_scored(self, trained):
        _data, split, model = trained
        pruned = RecommenderService(
            model, history_log=split.train, retrieval="pruned"
        )
        exact = RecommenderService(model, history_log=split.train)
        users = np.arange(model.n_users)
        pruned.recommend_batch(users, k=10)
        exact.recommend_batch(users, k=10)
        assert 0 < pruned.stats.nodes_scored <= exact.stats.nodes_scored


# ----------------------------------------------------------------------
# Hot swap: indexes rebuilt, exactness on the new generation
# ----------------------------------------------------------------------
class TestPrunedHotSwap:
    def test_stream_swap_pruned_matches_brute_force(self, trained):
        """The satellite scenario: stream events, publish via HotSwapper,
        and the pruned top-k must equal brute force on the *new*
        generation."""
        _data, split, model = trained
        pruned = RecommenderService(
            model, history_log=split.train, retrieval="pruned"
        )
        old_index = pruned.model_state.index
        updater = OnlineUpdater(model, steps=3, seed=0)
        updater.apply_events(
            [
                PurchaseEvent(u % model.n_users, ((3 * u + 1) % model.n_items,))
                for u in range(200)
            ]
        )
        snapshot = updater.snapshot()
        swapper = HotSwapper(pruned)
        swapper.publish(snapshot)

        state = pruned.model_state
        assert state.index is not None
        assert state.index is not old_index  # rebuilt, not reused
        exact = RecommenderService(snapshot, history_log=state.history_log)
        users = np.arange(model.n_users)
        assert np.array_equal(
            pruned.recommend_batch(users, k=10),
            exact.recommend_batch(users, k=10),
        )

    def test_refresh_rebuilds_index_after_partial_fit(self, trained):
        _data, split, model = trained
        pruned = RecommenderService(
            model, history_log=split.train, retrieval="pruned"
        )
        old_index = pruned.model_state.index
        pruned.refresh()
        assert pruned.model_state.index is not old_index


# ----------------------------------------------------------------------
# Fleet wiring
# ----------------------------------------------------------------------
class TestShardedPrunedRetrieval:
    @pytest.mark.parametrize("partition", ["users", "items"])
    def test_fleet_matches_exact_service(self, trained, partition):
        _data, split, model = trained
        exact = RecommenderService(model, history_log=split.train)
        users = np.arange(model.n_users)
        expected = exact.recommend_batch(users, k=10)
        with ShardRouter(
            model,
            n_shards=2,
            history_log=split.train,
            partition=partition,
            retrieval="pruned",
        ) as fleet:
            got = fleet.recommend_batch(users, k=10)
            assert fleet.plan.mode == "pruned"
        assert np.array_equal(got, expected)

    def test_fleet_swap_rebuilds_shard_indexes(self, trained):
        _data, split, model = trained
        updater = OnlineUpdater(model, steps=2, seed=1)
        updater.apply_events(
            [PurchaseEvent(u, (u % model.n_items,)) for u in range(50)]
        )
        snapshot = updater.snapshot()
        users = np.arange(model.n_users)
        with ShardRouter(
            model,
            n_shards=2,
            history_log=split.train,
            partition="items",
            retrieval="pruned",
        ) as fleet:
            swapper = HotSwapper(fleet)
            swapper.publish(snapshot)
            got = fleet.recommend_batch(users, k=10)
        exact = RecommenderService(
            snapshot, history_log=snapshot._train_log
        )
        assert np.array_equal(got, exact.recommend_batch(users, k=10))

    def test_rejects_cascade_combination(self, trained):
        _data, split, model = trained
        with pytest.raises(ValueError, match="cascade|retrieval"):
            ShardRouter(
                model,
                n_shards=2,
                history_log=split.train,
                cascade=CascadeConfig(keep_fractions=(0.5, 0.5, 0.5)),
                retrieval="pruned",
            )
        with pytest.raises(ValueError, match="retrieval"):
            ShardRouter(model, n_shards=2, retrieval="fuzzy")
