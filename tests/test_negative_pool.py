"""Tests for the negative-sampling pool option (cold-start ablation)."""

import numpy as np
import pytest

from repro.core.factors import FactorSet
from repro.core.sampling import TripleStore
from repro.core.sgd import SGDTrainer
from repro.core.tf_model import TaxonomyFactorModel
from repro.data.transactions import TransactionLog
from repro.taxonomy.generator import complete_taxonomy
from repro.train import train_model
from repro.utils.config import TrainConfig


@pytest.fixture()
def taxonomy():
    return complete_taxonomy((2, 2), items_per_leaf=2)  # 8 items


@pytest.fixture()
def log():
    # Items 6 and 7 are never purchased.
    return TransactionLog(
        [[[0, 1], [4]], [[2], [5]], [[3], [0]]],
        n_items=8,
    )


class TestTripleStorePool:
    def test_pool_restricts_negatives(self, log, rng):
        pool = np.array([2, 3])
        store = TripleStore(log, negative_pool=pool)
        negatives = store.sample_negatives(np.arange(store.n_triples), rng)
        assert set(negatives.tolist()) <= {2, 3}

    def test_pool_respects_basket_exclusion(self, log, rng):
        pool = np.array([0, 1, 2])
        store = TripleStore(log, negative_pool=pool)
        for _ in range(10):
            negatives = store.sample_negatives(np.arange(store.n_triples), rng)
            for k in range(store.n_triples):
                row = store.transaction_rows[k]
                assert int(negatives[k]) not in store.baskets[row]

    def test_empty_pool_rejected(self, log):
        with pytest.raises(ValueError):
            TripleStore(log, negative_pool=np.array([], dtype=np.int64))

    def test_none_pool_uses_universe(self, log, rng):
        store = TripleStore(log)
        negatives = store.sample_negatives(
            np.arange(store.n_triples), np.random.default_rng(1)
        )
        assert negatives.max() < log.n_items


class TestConfigValidation:
    def test_rejects_unknown_pool(self):
        with pytest.raises(ValueError, match="negative_pool"):
            TrainConfig(negative_pool="observed")

    def test_accepts_both_values(self):
        assert TrainConfig(negative_pool="all").negative_pool == "all"
        assert TrainConfig(negative_pool="purchased").negative_pool == "purchased"


class TestTrainingEffect:
    def test_purchased_pool_never_touches_unseen_items(self, taxonomy, log):
        """With pool='purchased', never-bought items keep their exact
        initialization — the cold-start-friendly behaviour."""
        cfg = TrainConfig(
            factors=4, epochs=4, taxonomy_levels=1,
            negative_pool="purchased", seed=0,
        )
        init = FactorSet(
            log.n_users, taxonomy, 4, 1, with_next=False,
            init_scale=cfg.init_scale, seed=cfg.seed,
        )
        fs = FactorSet(
            log.n_users, taxonomy, 4, 1, with_next=False,
            init_scale=cfg.init_scale, seed=cfg.seed,
        )
        SGDTrainer(fs, log, cfg).train()
        unseen_nodes = taxonomy.nodes_of_items(np.array([6, 7]))
        np.testing.assert_array_equal(fs.w[unseen_nodes], init.w[unseen_nodes])
        assert np.all(fs.bias[unseen_nodes] == 0)

    def test_all_pool_pushes_unseen_items_down(self, taxonomy, log):
        """With the paper's pool='all', unseen items receive only negative
        gradients: their bias must go negative."""
        cfg = TrainConfig(
            factors=4, epochs=8, taxonomy_levels=1,
            negative_pool="all", seed=0,
        )
        fs = FactorSet(
            log.n_users, taxonomy, 4, 1, with_next=False, seed=0
        )
        SGDTrainer(fs, log, cfg).train()
        unseen_nodes = taxonomy.nodes_of_items(np.array([6, 7]))
        assert np.all(fs.bias[unseen_nodes] < 0)

    def test_model_trains_with_purchased_pool(self, taxonomy, log):
        model = TaxonomyFactorModel(
            taxonomy,
            TrainConfig(
                factors=4, epochs=3, taxonomy_levels=3,
                negative_pool="purchased", seed=0,
            ),
        )
        train_model(model, log)
        assert np.isfinite(model.score_items(0)).all()
