"""Tests for the lock-based threaded SGD trainer."""

import numpy as np
import pytest

from repro.core.factors import FactorSet
from repro.core.sgd import SGDTrainer
from repro.data.transactions import TransactionLog
from repro.parallel.trainer import ThreadedSGDEngine
from repro.taxonomy.generator import complete_taxonomy
from repro.utils.config import TrainConfig


@pytest.fixture(scope="module")
def taxonomy():
    return complete_taxonomy((3, 2), items_per_leaf=3)  # 18 items


@pytest.fixture(scope="module")
def log(taxonomy):
    rng = np.random.default_rng(3)
    rows = [
        [[int(rng.integers(0, 18))] for _ in range(3)] for _ in range(80)
    ]
    return TransactionLog(rows, n_items=taxonomy.n_items)


@pytest.fixture()
def config():
    return TrainConfig(factors=4, epochs=2, taxonomy_levels=3, seed=0)


class TestValidation:
    def test_rejects_markov(self, taxonomy, log):
        cfg = TrainConfig(markov_order=1, taxonomy_levels=3, seed=0)
        fs = FactorSet(log.n_users, taxonomy, 16, 3, seed=0)
        with pytest.raises(ValueError, match="markov_order"):
            ThreadedSGDEngine(fs, log, cfg)

    def test_rejects_sibling(self, taxonomy, log):
        cfg = TrainConfig(sibling_ratio=0.5, taxonomy_levels=3, seed=0)
        fs = FactorSet(log.n_users, taxonomy, 16, 3, with_next=False, seed=0)
        with pytest.raises(ValueError, match="sibling"):
            ThreadedSGDEngine(fs, log, cfg)

    def test_rejects_zero_threads(self, taxonomy, log, config):
        fs = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        with pytest.raises(ValueError):
            ThreadedSGDEngine(fs, log, config, n_threads=0)


class TestTraining:
    def test_loss_decreases_over_epochs(self, taxonomy, log, config):
        fs = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        trainer = ThreadedSGDEngine(fs, log, config, n_threads=3)
        history = trainer.train(4)
        assert history[-1].loss < history[0].loss

    def test_single_thread_close_to_serial_quality(self, taxonomy, log, config):
        """Same algorithm, different visit order: losses should land in the
        same neighborhood as the vectorized serial trainer."""
        fs_threaded = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        threaded = ThreadedSGDEngine(fs_threaded, log, config, n_threads=1)
        threaded_loss = threaded.train(3)[-1].loss

        fs_serial = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        serial_loss = SGDTrainer(fs_serial, log, config).train(3)[-1].loss
        assert threaded_loss == pytest.approx(serial_loss, rel=0.35)

    def test_multithreaded_converges_with_cache(self, taxonomy, log, config):
        fs = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        trainer = ThreadedSGDEngine(
            fs, log, config, n_threads=4, use_cache=True, cache_threshold=0.05
        )
        history = trainer.train(4)
        assert history[-1].loss < history[0].loss
        assert history[0].reconciliations > 0

    def test_pad_rows_zero_after_epoch(self, taxonomy, log, config):
        fs = FactorSet(log.n_users, taxonomy, 4, 5, with_next=False, seed=0)
        ThreadedSGDEngine(fs, log, config, n_threads=2).train_epoch()
        assert np.all(fs.w[-1] == 0)

    def test_stats_fields(self, taxonomy, log, config):
        fs = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        stats = ThreadedSGDEngine(fs, log, config, n_threads=2).train_epoch()
        assert stats.n_examples == log.n_purchases
        assert stats.lock_acquisitions > 0
        assert 0.0 <= stats.lock_contention_rate <= 1.0
        assert stats.hot_row_updates > 0
        assert "loss=" in str(stats)

    def test_hot_rows_are_internal_nodes(self, taxonomy, log, config):
        fs = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        trainer = ThreadedSGDEngine(fs, log, config, n_threads=1)
        assert trainer.hot[: taxonomy.n_nodes].sum() == (
            taxonomy.n_nodes - taxonomy.n_items
        )
        assert not trainer.hot[taxonomy.pad_id]

    def test_update_frequency_skew(self, taxonomy, log, config):
        """The paper's Sec. 6.1 observation: internal rows are updated far
        more often per row than item rows — the motivation for caching."""
        fs = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        trainer = ThreadedSGDEngine(fs, log, config, n_threads=1)
        stats = trainer.train_epoch()
        n_internal = taxonomy.n_nodes - taxonomy.n_items
        internal_rate = stats.hot_row_updates / n_internal
        # Each sample updates 2 item rows (chains have 1 item entry each).
        item_rate = (2 * stats.n_examples) / taxonomy.n_items
        assert internal_rate > 2 * item_rate

    def test_caching_reduces_lock_acquisitions(self, taxonomy, log, config):
        fs1 = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        plain = ThreadedSGDEngine(fs1, log, config, n_threads=2)
        plain_stats = plain.train_epoch()

        fs2 = FactorSet(log.n_users, taxonomy, 4, 3, with_next=False, seed=0)
        cached = ThreadedSGDEngine(
            fs2, log, config, n_threads=2, use_cache=True, cache_threshold=0.5
        )
        cached_stats = cached.train_epoch()
        assert cached_stats.lock_acquisitions < plain_stats.lock_acquisitions

    def test_mf_configuration_supported(self, taxonomy, log):
        cfg = TrainConfig(factors=4, taxonomy_levels=1, seed=0)
        fs = FactorSet(log.n_users, taxonomy, 4, 1, with_next=False, seed=0)
        stats = ThreadedSGDEngine(fs, log, cfg, n_threads=2).train_epoch()
        assert stats.n_examples == log.n_purchases
