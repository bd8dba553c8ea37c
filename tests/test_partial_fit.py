"""Tests for incremental training (partial_fit / ensure_users)."""

import numpy as np
import pytest

from repro.core.factors import FactorSet
from repro.core.tf_model import NotFittedError, TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.train import train_model
from repro.utils.config import TrainConfig


@pytest.fixture()
def taxonomy():
    return complete_taxonomy((2, 2), items_per_leaf=2)


@pytest.fixture()
def log():
    return TransactionLog(
        [[[0, 1], [4]], [[2], [6]]],
        n_items=8,
    )


class TestEnsureUsers:
    def test_grows_user_matrix(self, taxonomy):
        fs = FactorSet(2, taxonomy, 4, 2, seed=0)
        before = fs.user.copy()
        fs.ensure_users(5, seed=1)
        assert fs.user.shape == (5, 4)
        np.testing.assert_array_equal(fs.user[:2], before)

    def test_noop_when_smaller(self, taxonomy):
        fs = FactorSet(3, taxonomy, 4, 2, seed=0)
        before = fs.user.copy()
        fs.ensure_users(2)
        assert fs.user.shape == (3, 4)
        np.testing.assert_array_equal(fs.user, before)


class TestPartialFit:
    def test_continues_training(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=4, epochs=2, taxonomy_levels=3, seed=0)
        )
        train_model(model, log)
        w_before = model.factor_set.w.copy()
        model.partial_fit(epochs=2)
        assert len(model.history_) == 4
        assert not np.allclose(model.factor_set.w, w_before)

    def test_requires_fit_first(self, taxonomy, log):
        model = TaxonomyFactorModel(taxonomy)
        with pytest.raises(NotFittedError):
            model.partial_fit(log)

    def test_new_log_with_more_users(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=4, epochs=2, taxonomy_levels=3, seed=0)
        )
        train_model(model, log)
        bigger = TransactionLog(
            log.to_lists() + [[[3], [5]], [[7]]], n_items=8
        )
        model.partial_fit(bigger, epochs=1)
        assert model.n_users == 4
        assert np.isfinite(model.score_items(3)).all()

    def test_item_mismatch_rejected(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=4, epochs=1, taxonomy_levels=3, seed=0)
        )
        train_model(model, log)
        with pytest.raises(ValueError, match="item universe"):
            model.partial_fit(TransactionLog([[[0]]], n_items=3))

    def test_more_epochs_do_not_hurt_training_loss(self, taxonomy):
        rng = np.random.default_rng(0)
        rows = [
            [[int(rng.integers(0, 8))] for _ in range(3)] for _ in range(60)
        ]
        log = TransactionLog(rows, n_items=8)
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=4, epochs=2, taxonomy_levels=3, seed=0)
        )
        train_model(model, log)
        first = model.history_[-1].loss
        model.partial_fit(epochs=6)
        assert model.history_[-1].loss <= first * 1.1

    def test_preserves_existing_user_factors_on_growth(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy, TrainConfig(factors=4, epochs=1, taxonomy_levels=3, seed=0)
        )
        train_model(model, log)
        user0 = model.factor_set.user[0].copy()
        bigger = TransactionLog(
            log.to_lists() + [[[3]]], n_items=8
        )
        # Train 0 epochs: just grow; user 0's factors must be untouched.
        model.partial_fit(bigger, epochs=0)
        np.testing.assert_array_equal(model.factor_set.user[0], user0)
