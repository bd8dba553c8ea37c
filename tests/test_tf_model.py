"""Tests for the public TaxonomyFactorModel API."""

import numpy as np
import pytest

from repro.core.tf_model import NotFittedError, TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.train import SerialTrainer, train_model
from repro.utils.config import TrainConfig


@pytest.fixture()
def taxonomy():
    return complete_taxonomy((2, 2), items_per_leaf=2)


@pytest.fixture()
def log():
    return TransactionLog(
        [
            [[0, 1], [4]],
            [[2], [6], [7]],
            [[5]],
        ],
        n_items=8,
    )


@pytest.fixture()
def fitted(taxonomy, log):
    model = TaxonomyFactorModel(
        taxonomy, TrainConfig(factors=4, epochs=3, taxonomy_levels=3, seed=0)
    )
    return train_model(model, log)


class TestConstruction:
    def test_overrides_apply(self, taxonomy):
        model = TaxonomyFactorModel(taxonomy, factors=7, markov_order=2)
        assert model.config.factors == 7
        assert model.config.markov_order == 2

    def test_repr_shows_parameters(self, taxonomy):
        model = TaxonomyFactorModel(taxonomy, taxonomy_levels=2, markov_order=1)
        assert "U=2" in repr(model) and "B=1" in repr(model)

    def test_unfitted_raises(self, taxonomy):
        model = TaxonomyFactorModel(taxonomy)
        with pytest.raises(NotFittedError):
            model.score_items(0)

    def test_fit_rejects_item_mismatch(self, taxonomy):
        model = TaxonomyFactorModel(taxonomy)
        with pytest.raises(ValueError, match="item universe"):
            SerialTrainer(model).train(TransactionLog([[[0]]], n_items=3))


class TestScoring:
    def test_score_items_shape(self, fitted):
        scores = fitted.score_items(0)
        assert scores.shape == (8,)

    def test_score_matrix_matches_score_items(self, fitted):
        matrix = fitted.score_matrix(np.array([0, 1, 2]))
        for row, user in enumerate([0, 1, 2]):
            np.testing.assert_allclose(matrix[row], fitted.score_items(user))

    def test_history_defaults_to_train_log(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(
                factors=4, epochs=2, taxonomy_levels=3, markov_order=1, seed=0
            ),
        )
        train_model(model, log)
        default = model.score_items(1)
        explicit = model.score_items(1, history=log.user_transactions(1))
        np.testing.assert_allclose(default, explicit)
        different = model.score_items(1, history=[np.array([0])])
        assert not np.allclose(default, different)

    def test_markov_zero_ignores_history(self, fitted):
        a = fitted.score_items(0, history=[np.array([3])])
        b = fitted.score_items(0, history=[np.array([7])])
        np.testing.assert_allclose(a, b)

    def test_query_matrix_matches_query_vector(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(
                factors=4, epochs=2, taxonomy_levels=3, markov_order=2, seed=1
            ),
        )
        train_model(model, log)
        users = np.array([0, 1])
        matrix = model.query_matrix(users)
        for row, user in enumerate(users):
            np.testing.assert_allclose(matrix[row], model.query_vector(int(user)))

    def test_score_nodes_and_categories(self, fitted, taxonomy):
        level1 = taxonomy.nodes_at_level(1)
        by_nodes = fitted.score_nodes(0, level1)
        by_level = fitted.category_scores(0, level=1)
        np.testing.assert_allclose(by_nodes, by_level)
        assert by_level.shape == (level1.size,)


class TestRecommend:
    def test_top_k_sorted(self, fitted):
        scores = fitted.score_items(0)
        top = fitted.recommend(0, k=3, exclude_purchased=False)
        assert list(scores[top]) == sorted(scores[top], reverse=True)
        assert top.size == 3

    def test_excludes_train_purchases(self, fitted, log):
        top = fitted.recommend(0, k=8)
        bought = set(log.user_items(0).tolist())
        assert not (set(top.tolist()) & bought)

    def test_explicit_exclusion(self, fitted):
        top = fitted.recommend(0, k=8, exclude=np.array([0, 1, 2, 3]))
        assert not (set(top.tolist()) & {0, 1, 2, 3})

    def test_k_larger_than_universe(self, fitted):
        top = fitted.recommend(0, k=100, exclude_purchased=False)
        assert top.size == 8


class TestFactorsAccess:
    def test_effective_item_factors_shape(self, fitted):
        assert fitted.effective_item_factors().shape == (8, 4)

    def test_effective_node_factors(self, fitted, taxonomy):
        nodes = taxonomy.nodes_at_level(2)
        assert fitted.effective_node_factors(nodes).shape == (nodes.size, 4)

    def test_history_recorded(self, fitted):
        assert len(fitted.history_) == 3
        assert fitted.n_users == 3
        assert fitted.n_items == 8
