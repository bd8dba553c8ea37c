"""Property-based tests for cascaded inference and explanations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cascade import CascadedRecommender
from repro.core.explain import explain_score
from repro.core.tf_model import TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.train import train_model
from repro.utils.config import CascadeConfig, TrainConfig

TAXONOMY = complete_taxonomy((3, 3), items_per_leaf=3)  # 27 items


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(1)
    rows = [[[int(rng.integers(0, 27))] for _ in range(2)] for _ in range(50)]
    log = TransactionLog(rows, n_items=27)
    model = TaxonomyFactorModel(
        TAXONOMY,
        TrainConfig(factors=4, epochs=3, taxonomy_levels=3, markov_order=1, seed=0),
    )
    return train_model(model, log)


fractions = st.floats(min_value=0.05, max_value=1.0)


class TestCascadeProperties:
    @given(f1=fractions, f2=fractions, user=st.integers(0, 49))
    @settings(max_examples=40, deadline=None)
    def test_survivor_scores_always_match_exact(self, model, f1, f2, user):
        """Whatever is pruned, surviving items carry their exact scores."""
        cascade = CascadedRecommender(
            model, CascadeConfig(keep_fractions=(f1, f2))
        )
        result = cascade.rank(user)
        exact = model.score_items(user)
        np.testing.assert_allclose(result.scores, exact[result.items])

    @given(f1=fractions, f2=fractions, user=st.integers(0, 49))
    @settings(max_examples=40, deadline=None)
    def test_survivors_sorted_and_unique(self, model, f1, f2, user):
        result = CascadedRecommender(
            model, CascadeConfig(keep_fractions=(f1, f2))
        ).rank(user)
        assert len(set(result.items.tolist())) == result.items.size
        diffs = np.diff(result.scores)
        assert np.all(diffs <= 1e-12)

    @given(f=fractions, user=st.integers(0, 49))
    @settings(max_examples=40, deadline=None)
    def test_work_bounded_by_naive_plus_internal(self, model, f, user):
        cascade = CascadedRecommender(
            model, CascadeConfig(keep_fractions=(f, f))
        )
        result = cascade.rank(user)
        n_internal = TAXONOMY.n_nodes - TAXONOMY.n_items - 1  # minus root
        assert result.nodes_scored <= TAXONOMY.n_items + n_internal

    @given(user=st.integers(0, 49))
    @settings(max_examples=20, deadline=None)
    def test_full_cascade_covers_everything(self, model, user):
        result = CascadedRecommender(model, CascadeConfig()).rank(user)
        assert result.items.size == TAXONOMY.n_items


class TestExplanationProperties:
    @given(user=st.integers(0, 49), item=st.integers(0, 26))
    @settings(max_examples=50, deadline=None)
    def test_decomposition_always_exact(self, model, user, item):
        explanation = explain_score(model, user, item)
        expected = model.score_items(user)[item]
        assert explanation.score == pytest.approx(expected, abs=1e-9)

    @given(user=st.integers(0, 49), item=st.integers(0, 26))
    @settings(max_examples=50, deadline=None)
    def test_levels_cover_item_chain(self, model, user, item):
        explanation = explain_score(model, user, item)
        chain_nodes = [node for node, _ in explanation.long_term_by_level]
        expected_chain = TAXONOMY.path_to_root(TAXONOMY.node_of_item(item))[:3]
        assert chain_nodes == expected_chain
