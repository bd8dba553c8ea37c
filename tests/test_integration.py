"""End-to-end integration tests: the paper's headline claims in miniature.

These use the shared session fixtures (400 users, ~180 items, 5 epochs) so
they run in seconds while still exercising the full train → evaluate path.
"""

import numpy as np
import pytest

from repro import (
    CascadeConfig,
    PopularityModel,
    RandomModel,
    TaxonomyFactorModel,
    evaluate_cascade,
    evaluate_category_level,
    evaluate_model,
)
from repro.train import train_model
from repro.utils.config import TrainConfig


@pytest.fixture(scope="module")
def popularity(split):
    return PopularityModel().fit(split.train)


@pytest.fixture(scope="module")
def random_model(split):
    return RandomModel(0).fit(split.train)


class TestHeadlineOrdering:
    """Fig. 6(a): random < MF(0) ≈ popularity < TF(4,0)."""

    def test_tf_beats_mf(self, tf_model, mf_model, split):
        tf_auc = evaluate_model(tf_model, split).auc
        mf_auc = evaluate_model(mf_model, split).auc
        assert tf_auc > mf_auc + 0.02

    def test_tf_beats_popularity(self, tf_model, popularity, split):
        tf_auc = evaluate_model(tf_model, split).auc
        pop_auc = evaluate_model(popularity, split).auc
        assert tf_auc > pop_auc

    def test_everything_beats_random(
        self, tf_model, mf_model, popularity, random_model, split
    ):
        rnd_auc = evaluate_model(random_model, split).auc
        assert abs(rnd_auc - 0.5) < 0.05
        for model in (tf_model, mf_model, popularity):
            assert evaluate_model(model, split).auc > rnd_auc + 0.05

    def test_tf_mean_rank_below_mf(self, tf_model, mf_model, split):
        """Fig. 6(b): TF's mean rank is far lower than MF's."""
        tf_rank = evaluate_model(tf_model, split).mean_rank
        mf_rank = evaluate_model(mf_model, split).mean_rank
        assert tf_rank < mf_rank


class TestTaxonomyDepth:
    """Fig. 7(a): AUC grows with taxonomyUpdateLevels."""

    def test_full_depth_beats_flat(self, dataset, split, train_config):
        aucs = {}
        for levels in (1, 4):
            model = TaxonomyFactorModel(
                dataset.taxonomy, train_config, taxonomy_levels=levels
            )
            train_model(model, split.train)
            aucs[levels] = evaluate_model(model, split).auc
        assert aucs[4] > aucs[1]


class TestMarkovTerm:
    """Fig. 6(e)/7(f): the short-term term adds accuracy."""

    def test_markov_term_helps_tf(self, tf_model, tf_markov_model, split):
        plain = evaluate_model(tf_model, split).auc
        markov = evaluate_model(tf_markov_model, split).auc
        assert markov > plain - 0.03  # at minimum it must not collapse

    def test_markov_model_uses_short_term_context(self, tf_markov_model, dataset):
        """Predictions must shift with the previous basket — the defining
        property of the Markov term."""
        kernel = dataset.transition_kernel
        source = next(iter(kernel))
        items_in_source = np.flatnonzero(dataset.leaf_of_item == source)
        a = tf_markov_model.score_items(0, history=[items_in_source[:1]])
        b = tf_markov_model.score_items(0, history=None)
        assert not np.allclose(a, b)


class TestSiblingTraining:
    """Fig. 7(d): sibling training does not hurt, usually helps."""

    def test_sibling_training_quality(self, dataset, split, train_config):
        without = TaxonomyFactorModel(
            dataset.taxonomy, train_config, sibling_ratio=0.0
        )
        train_model(without, split.train)
        with_sib = TaxonomyFactorModel(
            dataset.taxonomy, train_config, sibling_ratio=0.5
        )
        train_model(with_sib, split.train)
        auc_without = evaluate_model(without, split).auc
        auc_with = evaluate_model(with_sib, split).auc
        assert auc_with > auc_without - 0.02


class TestStructuredRanking:
    """Fig. 6(c,d): category-level recommendation quality."""

    def test_category_rank_is_small(self, tf_model, split, dataset):
        result = evaluate_category_level(tf_model, split, level=1)
        n_categories = dataset.taxonomy.nodes_at_level(1).size
        assert result.mean_rank < 0.5 * n_categories


class TestCascadeTradeoff:
    """Fig. 8(c): high accuracy at a fraction of the work."""

    def test_half_kept_keeps_most_accuracy(self, tf_model, split):
        users = split.test_users()[:60]
        result = evaluate_cascade(
            tf_model,
            split,
            CascadeConfig(keep_fractions=(0.5, 0.5, 0.5)),
            users=users,
        )
        assert result.work_ratio < 0.8
        assert result.accuracy_ratio > 0.75


class TestModelPersistence:
    def test_factors_roundtrip_preserves_scores(self, tf_model, tmp_path):
        from repro.core.factors import FactorSet

        path = tmp_path / "model.npz"
        tf_model.factor_set.save(path)
        restored = FactorSet.load(path, tf_model.taxonomy)
        np.testing.assert_allclose(
            restored.effective_items(), tf_model.effective_item_factors()
        )
