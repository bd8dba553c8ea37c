"""Tests for cascaded inference (Sec. 5.1)."""

import numpy as np
import pytest

from repro.core.cascade import (
    CascadedRecommender,
    leaf_only_cascade,
    uniform_cascade,
)
from repro.core.tf_model import TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.train import train_model
from repro.utils.config import CascadeConfig, TrainConfig


@pytest.fixture(scope="module")
def model():
    taxonomy = complete_taxonomy((3, 3), items_per_leaf=3)  # 27 items
    rng = np.random.default_rng(0)
    rows = [
        [[int(rng.integers(0, 27))] for _ in range(2)] for _ in range(60)
    ]
    log = TransactionLog(rows, n_items=27)
    model = TaxonomyFactorModel(
        taxonomy, TrainConfig(factors=4, epochs=4, taxonomy_levels=3, seed=0)
    )
    return train_model(model, log)


class TestExactness:
    def test_full_fractions_equal_exact_ranking(self, model):
        cascade = CascadedRecommender(model, CascadeConfig())
        result = cascade.rank(0)
        assert result.items.size == model.n_items
        exact = model.score_items(0)
        np.testing.assert_allclose(
            result.full_scores(model.n_items), exact
        )

    def test_full_fractions_top_k_matches_recommend(self, model):
        cascade = CascadedRecommender(model, CascadeConfig())
        top = cascade.recommend(5, k=5)
        exact = model.recommend(5, k=5, exclude_purchased=False)
        assert top.tolist() == exact.tolist()


class TestPruning:
    def test_pruning_reduces_work(self, model):
        full = CascadedRecommender(model, CascadeConfig()).rank(0)
        pruned = uniform_cascade(model, 0.34).rank(0)
        assert pruned.nodes_scored < full.nodes_scored
        assert pruned.items.size < full.items.size

    def test_surviving_scores_match_exact(self, model):
        result = uniform_cascade(model, 0.34).rank(3)
        exact = model.score_items(3)
        np.testing.assert_allclose(result.scores, exact[result.items])

    def test_pruned_items_get_minus_inf(self, model):
        result = uniform_cascade(model, 0.34).rank(3)
        full = result.full_scores(model.n_items)
        pruned = np.setdiff1d(np.arange(model.n_items), result.items)
        assert np.all(np.isneginf(full[pruned]))

    def test_min_keep_respected(self, model):
        config = CascadeConfig(keep_fractions=(0.01, 0.01), min_keep=2)
        result = CascadedRecommender(model, config).rank(0)
        assert result.frontier_sizes[1] >= 2 * 3  # >= min_keep parents

    def test_work_measured_in_frontier_sizes(self, model):
        result = uniform_cascade(model, 0.5).rank(0)
        assert result.nodes_scored == sum(result.frontier_sizes)

    def test_leaf_only_cascade_keeps_upper_levels(self, model):
        result = leaf_only_cascade(model, 0.34).rank(0)
        # Level 1 (3 nodes) and level 2 (9 nodes) fully expanded.
        assert result.frontier_sizes[0] == 3
        assert result.frontier_sizes[1] == 9

    def test_fraction_one_by_leaf_only_is_exact(self, model):
        result = leaf_only_cascade(model, 1.0).rank(2)
        np.testing.assert_allclose(
            result.full_scores(model.n_items), model.score_items(2)
        )


class TestAccuracyTradeoff:
    def test_larger_k_never_decreases_survivors(self, model):
        sizes = [
            uniform_cascade(model, f).rank(0).items.size
            for f in (0.34, 0.67, 1.0)
        ]
        assert sizes == sorted(sizes)

    def test_top1_usually_survives_moderate_pruning(self, model):
        hits = 0
        users = range(20)
        for user in users:
            exact_top = model.recommend(user, k=1, exclude_purchased=False)[0]
            survivors = uniform_cascade(model, 0.67).rank(user).items
            hits += int(exact_top in survivors)
        assert hits >= 14  # most of the time

    def test_naive_cost(self, model):
        cascade = CascadedRecommender(model, CascadeConfig())
        assert cascade.naive_cost() == model.n_items

    def test_result_top_k(self, model):
        result = uniform_cascade(model, 1.0).rank(0)
        assert result.top_k(4).size == 4
        assert result.seconds >= 0
