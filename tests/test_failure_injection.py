"""Failure-injection tests: corrupted inputs, hostile edge cases.

A production library must fail loudly and precisely, not deep inside a
numpy broadcast.  These tests inject broken files, degenerate data shapes,
and misuse patterns, asserting for each that the error surfaces early with
a useful message.
"""

import json

import numpy as np
import pytest

from repro.core.cascade import CascadedRecommender
from repro.core.factors import FactorSet
from repro.core.tf_model import NotFittedError, TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.taxonomy.io import load_taxonomy
from repro.taxonomy.tree import Taxonomy, TaxonomyError
from repro.train import train_model
from repro.utils.config import CascadeConfig, TrainConfig


class TestCorruptedFiles:
    def test_truncated_taxonomy_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "repro-taxonomy", "vers')
        with pytest.raises(json.JSONDecodeError):
            load_taxonomy(path)

    def test_taxonomy_file_with_cycle(self, tmp_path):
        path = tmp_path / "cycle.json"
        path.write_text(
            json.dumps(
                {
                    "format": "repro-taxonomy",
                    "version": 1,
                    "parent": [-1, 2, 1],
                }
            )
        )
        with pytest.raises(TaxonomyError):
            load_taxonomy(path)

    def test_log_with_out_of_range_items(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            json.dumps({"n_items": 3}) + "\n" + json.dumps([[0, 7]]) + "\n"
        )
        with pytest.raises(ValueError, match="out of range"):
            TransactionLog.load(path)

    def test_factorset_load_against_wrong_taxonomy(self, tmp_path):
        big = complete_taxonomy((3, 3), items_per_leaf=3)
        small = complete_taxonomy((2, 2), items_per_leaf=2)
        fs = FactorSet(3, big, 4, 2, seed=0)
        path = tmp_path / "factors.npz"
        fs.save(path)
        with pytest.raises(ValueError, match="wrong taxonomy"):
            FactorSet.load(path, small)


class TestDegenerateData:
    def test_single_user_single_item_universe(self):
        taxonomy = Taxonomy([-1, 0, 0])  # root + two items
        log = TransactionLog([[[0]]], n_items=2)
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=2, epochs=2, taxonomy_levels=2, seed=0)
        )
        train_model(model, log)
        scores = model.score_items(0)
        assert scores.shape == (2,)
        assert np.all(np.isfinite(scores))

    def test_user_with_identical_repeated_baskets(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        log = TransactionLog([[[0, 1]] * 5], n_items=4)
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(
                factors=2, epochs=2, taxonomy_levels=2, markov_order=2, seed=0
            ),
        )
        train_model(model, log)
        assert np.isfinite(model.score_items(0)).all()

    def test_markov_order_longer_than_any_history(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        log = TransactionLog([[[0]], [[1]]], n_items=4)
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(
                factors=2, epochs=2, taxonomy_levels=2, markov_order=5, seed=0
            ),
        )
        train_model(model, log)
        assert np.isfinite(model.score_items(0)).all()

    def test_taxonomy_levels_far_beyond_depth(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        log = TransactionLog([[[0], [3]]], n_items=4)
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(factors=2, epochs=3, taxonomy_levels=9, seed=0),
        )
        train_model(model, log)
        # Pad rows must stay pinned even with mostly-padded chains.
        assert np.all(model.factor_set.w[-1] == 0)

    def test_empty_training_log(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        log = TransactionLog([], n_items=4)
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=2, epochs=2, taxonomy_levels=2, seed=0)
        )
        train_model(model, log)
        # Nothing to learn, but the model must still score.
        assert model.score_items(0).shape == (4,)

    def test_zero_epochs_fit(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        log = TransactionLog([[[0]]], n_items=4)
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=2, epochs=0, taxonomy_levels=2, seed=0)
        )
        train_model(model, log)
        assert model.history_ == []
        assert np.isfinite(model.score_items(0)).all()


class TestMisuse:
    def test_unfitted_model_methods_raise(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        model = TaxonomyFactorModel(taxonomy)
        for call in (
            lambda: model.score_items(0),
            lambda: model.recommend(0),
            lambda: model.category_scores(0, 1),
            lambda: model.effective_item_factors(),
            lambda: model.onboard_items([1]),
        ):
            with pytest.raises(NotFittedError):
                call()

    def test_cascade_of_unfitted_model(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        model = TaxonomyFactorModel(taxonomy)
        cascade = CascadedRecommender(model, CascadeConfig())
        with pytest.raises(NotFittedError):
            cascade.rank(0)

    def test_scoring_unknown_user_raises_index_error(self, tf_model):
        with pytest.raises(IndexError):
            tf_model.score_items(10**7)

    def test_config_is_validated_before_any_work(self):
        taxonomy = complete_taxonomy((2,), items_per_leaf=2)
        with pytest.raises(ValueError):
            TaxonomyFactorModel(taxonomy, factors=-1)

    def test_nan_free_after_aggressive_learning_rate(self):
        """Even a hot learning rate must not produce NaNs (the sigmoid
        saturates, it does not overflow)."""
        taxonomy = complete_taxonomy((2, 2), items_per_leaf=2)
        rng = np.random.default_rng(0)
        rows = [[[int(rng.integers(0, 8))] for _ in range(3)] for _ in range(30)]
        log = TransactionLog(rows, n_items=8)
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(
                factors=4, epochs=10, learning_rate=2.0, taxonomy_levels=3, seed=0
            ),
        )
        train_model(model, log)
        assert np.isfinite(model.factor_set.w).all()
        assert np.isfinite(model.score_items(0)).all()
