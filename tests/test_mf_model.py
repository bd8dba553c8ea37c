"""Tests for the MF / FPMC baselines and their TF equivalence."""

import numpy as np
import pytest

from repro.core.mf_model import MFModel, bpr_mf_model, flat_taxonomy, fpmc_model
from repro.core.tf_model import TaxonomyFactorModel
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
        [
            [[0, 1], [4]],
            [[2], [6]],
        ],
        n_items=8,
    )


class TestFlatTaxonomy:
    def test_shape(self):
        tax = flat_taxonomy(5)
        assert tax.n_items == 5
        assert tax.max_depth == 1
        assert tax.n_nodes == 6

    def test_rejects_zero_items(self):
        with pytest.raises(ValueError):
            flat_taxonomy(0)


class TestMFModel:
    def test_forces_single_level(self, taxonomy):
        model = MFModel(taxonomy, taxonomy_levels=4)  # override is ignored
        assert model.config.taxonomy_levels == 1

    def test_mf_equals_tf_with_levels_one(self, taxonomy, log):
        """The paper: TF(1, B) recovers MF(B) exactly."""
        cfg = TrainConfig(factors=4, epochs=3, seed=3)
        mf = train_model(MFModel(taxonomy, cfg), log)
        tf1 = train_model(TaxonomyFactorModel(taxonomy, cfg, taxonomy_levels=1), log)
        np.testing.assert_array_equal(
            mf.factor_set.w, tf1.factor_set.w
        )
        np.testing.assert_array_equal(
            mf.score_matrix(np.arange(2)), tf1.score_matrix(np.arange(2))
        )

    def test_mf_never_touches_internal_nodes(self, taxonomy, log):
        """With U = 1 only the item rows are ever updated: the taxonomy's
        interior factors must still equal their random initialization."""
        from repro.core.factors import FactorSet

        cfg = TrainConfig(factors=4, epochs=3, seed=3)
        init = FactorSet(
            log.n_users, taxonomy, 4, levels=1,
            with_next=False, init_scale=cfg.init_scale, seed=cfg.seed,
        )
        trained = train_model(MFModel(taxonomy, cfg), log)
        internal = np.setdiff1d(np.arange(taxonomy.n_nodes), taxonomy.items)
        np.testing.assert_array_equal(
            trained.factor_set.w[internal], init.w[internal]
        )
        assert not np.allclose(
            trained.factor_set.w[taxonomy.items], init.w[taxonomy.items]
        )

    def test_repr(self, taxonomy):
        assert "MFModel(B=0" in repr(MFModel(taxonomy))


class TestFactories:
    def test_fpmc_has_markov_order_one(self, taxonomy):
        model = fpmc_model(taxonomy)
        assert model.config.markov_order == 1
        assert model.config.taxonomy_levels == 1

    def test_fpmc_override_respected(self, taxonomy):
        model = fpmc_model(taxonomy, markov_order=3)
        assert model.config.markov_order == 3

    def test_bpr_mf_is_order_zero(self, taxonomy):
        model = bpr_mf_model(taxonomy, markov_order=2)  # forced back to 0
        assert model.config.markov_order == 0

    def test_fpmc_trains_and_uses_history(self, taxonomy, log):
        model = fpmc_model(
            taxonomy, TrainConfig(factors=4, epochs=2, seed=0)
        )
        train_model(model, log)
        a = model.score_items(0, history=[np.array([0])])
        b = model.score_items(0, history=[np.array([6])])
        assert not np.allclose(a, b)
