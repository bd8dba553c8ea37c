"""Tests for score explanations (additive decomposition of Eq. 3)."""

import numpy as np
import pytest

from repro.core.explain import explain_recommendations, explain_score
from repro.core.tf_model import TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.train import train_model
from repro.utils.config import TrainConfig


@pytest.fixture(scope="module")
def taxonomy():
    return complete_taxonomy((2, 2), items_per_leaf=2)


@pytest.fixture(scope="module")
def log():
    return TransactionLog(
        [[[0, 1], [4]], [[2], [6], [7]], [[5]]],
        n_items=8,
    )


@pytest.fixture(scope="module")
def plain_model(taxonomy, log):
    model = TaxonomyFactorModel(
        taxonomy, TrainConfig(factors=4, epochs=4, taxonomy_levels=3, seed=0)
    )
    return train_model(model, log)


@pytest.fixture(scope="module")
def markov_model(taxonomy, log):
    model = TaxonomyFactorModel(
        taxonomy,
        TrainConfig(
            factors=4, epochs=4, taxonomy_levels=3, markov_order=2, seed=0
        ),
    )
    return train_model(model, log)


class TestDecompositionExactness:
    def test_parts_sum_to_score_no_markov(self, plain_model):
        for user in range(3):
            for item in (0, 3, 7):
                explanation = explain_score(plain_model, user, item)
                expected = plain_model.score_items(user)[item]
                assert explanation.score == pytest.approx(expected, abs=1e-10)
                reconstructed = (
                    explanation.long_term
                    + explanation.popularity
                    + explanation.short_term
                )
                assert reconstructed == pytest.approx(expected, abs=1e-10)

    def test_parts_sum_to_score_with_markov(self, markov_model):
        for user in range(3):
            explanation = explain_score(markov_model, user, 5)
            expected = markov_model.score_items(user)[5]
            assert explanation.score == pytest.approx(expected, abs=1e-10)

    def test_explicit_history(self, markov_model):
        history = [np.array([0, 1])]
        explanation = explain_score(markov_model, 0, 6, history=history)
        expected = markov_model.score_items(0, history=history)[6]
        assert explanation.score == pytest.approx(expected, abs=1e-10)


class TestStructure:
    def test_one_term_per_chain_level(self, plain_model, taxonomy):
        explanation = explain_score(plain_model, 0, 0)
        assert len(explanation.long_term_by_level) == 3  # levels = 3
        assert len(explanation.bias_by_level) == 3
        chain_nodes = [node for node, _ in explanation.long_term_by_level]
        assert chain_nodes[0] == taxonomy.node_of_item(0)

    def test_no_short_term_without_markov(self, plain_model):
        explanation = explain_score(plain_model, 0, 0)
        assert explanation.short_term_by_item == []
        assert explanation.short_term == 0.0

    def test_short_term_lists_previous_items(self, markov_model, log):
        explanation = explain_score(markov_model, 1, 3)
        history_items = set(log.user_items(1).tolist())
        for prev, _ in explanation.short_term_by_item:
            assert prev in history_items

    def test_duplicate_previous_items_merged(self, markov_model):
        history = [np.array([2]), np.array([2])]
        explanation = explain_score(markov_model, 0, 4, history=history)
        previous = [p for p, _ in explanation.short_term_by_item]
        assert len(previous) == len(set(previous))

    def test_top_reason_is_a_label(self, markov_model):
        explanation = explain_score(markov_model, 0, 1)
        assert explanation.top_reason() in {
            "long-term interest",
            "popularity",
            "recent purchases",
        }

    def test_describe_renders(self, plain_model, taxonomy):
        text = explain_score(plain_model, 0, 0).describe(taxonomy)
        assert "long-term" in text and "popularity" in text

    def test_invalid_item(self, plain_model):
        with pytest.raises(ValueError):
            explain_score(plain_model, 0, 99)


class TestExplainRecommendations:
    def test_matches_recommend_order(self, plain_model):
        explanations = explain_recommendations(
            plain_model, 0, k=3, exclude_purchased=False
        )
        items = [e.item for e in explanations]
        expected = plain_model.recommend(0, k=3, exclude_purchased=False)
        assert items == expected.tolist()

    def test_scores_descending(self, plain_model):
        explanations = explain_recommendations(
            plain_model, 1, k=4, exclude_purchased=False
        )
        scores = [e.score for e in explanations]
        assert scores == sorted(scores, reverse=True)
