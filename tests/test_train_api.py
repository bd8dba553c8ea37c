"""Tests for the unified ``repro.train`` API: trainers, seeds, callbacks."""

import numpy as np
import pytest

from repro import (
    SyntheticConfig,
    TaxonomyFactorModel,
    TrainConfig,
    evaluate_model,
    evaluate_parallel,
    generate_dataset,
    train_test_split,
)
from repro.parallel.trainer import ThreadedSGDEngine
from repro.streaming.swap import CheckpointStore
from repro.train import (
    CheckpointCallback,
    EarlyStopping,
    EvalCallback,
    LambdaCallback,
    LRSchedule,
    OnlineTrainer,
    SerialTrainer,
    ThreadedTrainer,
    warm_stream_split,
)
from repro.utils.rng import derive_seed, epoch_seed


@pytest.fixture(scope="module")
def data():
    return generate_dataset(SyntheticConfig(n_users=400, seed=7))


@pytest.fixture(scope="module")
def split(data):
    return train_test_split(data.log, mu=0.5, seed=0)


def config(**overrides):
    base = dict(factors=8, epochs=3, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def factor_arrays(model):
    fs = model.factor_set
    return fs.user, fs.w, fs.bias


# ----------------------------------------------------------------------
# Seed policy (satellite: route seed plumbing through utils/rng)
# ----------------------------------------------------------------------
class TestSeedPolicy:
    def test_derive_seed_deterministic_and_key_sensitive(self):
        assert derive_seed(0, 1) == derive_seed(0, 1)
        assert derive_seed(0, 1) != derive_seed(1, 0)  # no +epoch collision
        assert derive_seed(0, 1) != derive_seed(0, 2)
        assert derive_seed(None, 5) is None

    def test_epoch_seed_is_derive_seed(self):
        assert epoch_seed(42, 3) == derive_seed(42, 3)

    def test_threaded_trainer_bit_reproducible(self, data, split):
        """Identical specs → bit-identical factors.  With one worker the
        whole threaded run is deterministic (with more, row-lock
        interleaving reorders float additions — the Hogwild trade-off —
        but every worker's *sample stream* is still seed-derived)."""

        def run():
            model = TaxonomyFactorModel(data.taxonomy, config())
            ThreadedTrainer(model, n_workers=1).train(split.train, epochs=2)
            return factor_arrays(model)

        for a, b in zip(run(), run()):
            assert np.array_equal(a, b)

    def test_threaded_negative_streams_seed_derived(self, data, split):
        """The multi-worker sample/negative streams derive from the spec
        seed: two engines at the same epoch draw identical shard orders."""
        cfg = config()
        from repro.core.factors import FactorSet

        def epoch_order(seed_cfg):
            fs = FactorSet(split.train.n_users, data.taxonomy, 8, 4, seed=0)
            engine = ThreadedSGDEngine(fs, split.train, seed_cfg, n_threads=2)
            from repro.utils.rng import spawn_rngs

            rngs = spawn_rngs(derive_seed(seed_cfg.seed, 0), 3)
            return engine.store.epoch_order(rngs[-1], shuffle=True)

        assert np.array_equal(epoch_order(cfg), epoch_order(cfg))
        other = TrainConfig(factors=8, epochs=3, seed=1)
        assert not np.array_equal(epoch_order(cfg), epoch_order(other))

    def test_engine_default_epoch_seeds_follow_policy(self, data, split):
        """train_epoch(seed=None) must derive from (config.seed, epoch)."""
        cfg = config(epochs=2)
        model_a = TaxonomyFactorModel(data.taxonomy, cfg)
        ThreadedTrainer(model_a, n_workers=1).train(split.train, epochs=2)

        model_b = TaxonomyFactorModel(data.taxonomy, cfg)
        trainer_b = ThreadedTrainer(model_b, n_workers=1)
        trainer_b._setup(split.train)
        for epoch in range(2):
            trainer_b.engine.train_epoch()  # engine's own default seeding
        for a, b in zip(factor_arrays(model_a), factor_arrays(model_b)):
            assert np.array_equal(a, b)

    def test_evaluate_parallel_sampling_reproducible(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config())
        SerialTrainer(model).train(split.train)
        first = evaluate_parallel(
            model, split, n_workers=3, sample_users=60, seed=5
        )
        again = evaluate_parallel(
            model, split, n_workers=3, sample_users=60, seed=5
        )
        assert first.n_users == again.n_users == 60  # quotas are exact
        assert first.auc == again.auc
        other = evaluate_parallel(
            model, split, n_workers=3, sample_users=60, seed=6
        )
        assert other.n_users == 60
        full = evaluate_parallel(model, split, n_workers=3)
        assert first.n_users < full.n_users

    def test_evaluate_parallel_tiny_sample_not_empty(self, data, split):
        """A sample smaller than the worker count must still evaluate
        exactly that many users (largest-remainder quotas, not per-
        partition rounding that collapses to zero)."""
        model = TaxonomyFactorModel(data.taxonomy, config())
        SerialTrainer(model).train(split.train)
        result = evaluate_parallel(
            model, split, n_workers=4, sample_users=1, seed=0
        )
        assert result.n_users == 1
        assert not np.isnan(result.auc)
        three = evaluate_parallel(
            model, split, n_workers=4, sample_users=3, seed=0
        )
        assert three.n_users == 3

    def test_evaluate_model_sampling_reproducible(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config())
        SerialTrainer(model).train(split.train)
        first = evaluate_model(model, split, sample_users=50, seed=3)
        again = evaluate_model(model, split, sample_users=50, seed=3)
        assert first.auc == again.auc
        assert first.n_users <= 50


# ----------------------------------------------------------------------
# Serial-vs-threaded equivalence (satellite)
# ----------------------------------------------------------------------
class TestSerialThreadedEquivalence:
    def test_one_worker_matches_serial_sample_exactly(self, data, split):
        """One epoch, 1 worker ≡ SerialTrainer(update='sample'), bit-for-bit."""
        serial_model = TaxonomyFactorModel(data.taxonomy, config())
        SerialTrainer(serial_model, update="sample").train(
            split.train, epochs=1
        )
        threaded_model = TaxonomyFactorModel(data.taxonomy, config())
        ThreadedTrainer(threaded_model, n_workers=1).train(
            split.train, epochs=1
        )
        for a, b in zip(
            factor_arrays(serial_model), factor_arrays(threaded_model)
        ):
            assert np.array_equal(a, b)

    def test_one_worker_matches_over_multiple_epochs(self, data, split):
        serial_model = TaxonomyFactorModel(data.taxonomy, config())
        SerialTrainer(serial_model, update="sample").train(
            split.train, epochs=3
        )
        threaded_model = TaxonomyFactorModel(data.taxonomy, config())
        ThreadedTrainer(threaded_model, n_workers=1).train(
            split.train, epochs=3
        )
        assert np.array_equal(
            serial_model.factor_set.user, threaded_model.factor_set.user
        )

    def test_n_workers_auc_within_tolerance(self, data, split):
        """More workers interleave the visit order; held-out AUC must stay
        in the serial trainer's neighbourhood."""
        cfg = config(epochs=4)
        serial_model = TaxonomyFactorModel(data.taxonomy, cfg)
        SerialTrainer(serial_model).train(split.train)
        serial_auc = evaluate_model(serial_model, split).auc

        threaded_model = TaxonomyFactorModel(data.taxonomy, cfg)
        ThreadedTrainer(threaded_model, n_workers=4).train(split.train)
        threaded_auc = evaluate_model(threaded_model, split).auc
        assert threaded_auc == pytest.approx(serial_auc, abs=0.08)

    def test_serial_sample_rejects_markov(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config(markov_order=1))
        with pytest.raises(ValueError, match="markov_order"):
            SerialTrainer(model, update="sample").train(split.train, epochs=1)

    def test_invalid_update_mode(self, data):
        model = TaxonomyFactorModel(data.taxonomy, config())
        with pytest.raises(ValueError, match="update"):
            SerialTrainer(model, update="bogus")


# ----------------------------------------------------------------------
# Shared loop + callbacks
# ----------------------------------------------------------------------
class TestCallbacks:
    def test_lr_schedule_factories(self):
        assert LRSchedule.step(drop=0.5, every=5).lr_at(4, 0.1) == 0.1
        assert LRSchedule.step(drop=0.5, every=5).lr_at(5, 0.1) == 0.05
        assert LRSchedule.exponential(gamma=0.5).lr_at(2, 0.4) == 0.1
        warm = LRSchedule.warmup(4)
        assert warm.lr_at(0, 0.4) == pytest.approx(0.1)
        assert warm.lr_at(7, 0.4) == 0.4
        chained = LRSchedule.warmup(2, after=LRSchedule.exponential(0.5))
        assert chained.lr_at(3, 0.4) == 0.2  # epoch 1 of the inner schedule

    def test_lr_schedule_applied_per_epoch(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=4))
        seen = []
        SerialTrainer(
            model,
            callbacks=[
                LRSchedule.exponential(gamma=0.5),
                LambdaCallback(
                    on_epoch_end=lambda e, s, t: seen.append(s.learning_rate)
                ),
            ],
        ).train(split.train)
        assert seen == pytest.approx([0.05, 0.025, 0.0125, 0.00625])

    def test_early_stopping_on_loss(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=10))
        stopper = EarlyStopping(monitor="loss", patience=2, min_delta=10.0)
        result = SerialTrainer(model, callbacks=[stopper]).train(split.train)
        # min_delta=10 means no epoch ever "improves": stop after patience.
        assert result.stopped_early
        assert result.epochs_run == 3
        assert stopper.stopped_at == 2

    def test_eval_callback_records_history(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=4))
        evaluator = EvalCallback(split, every=2, sample_users=40)
        result = SerialTrainer(model, callbacks=[evaluator]).train(split.train)
        assert [epoch for epoch, _ in result.evals] == [1, 3]
        assert all(0.0 <= r.auc <= 1.0 for _, r in result.evals)
        assert "auc" in result.history[1].extras

    def test_early_stopping_ignores_stale_evals(self, data, split):
        """Epochs between sparse evaluations (EvalCallback every=N) must
        not count the unchanged AUC against patience."""
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=12))
        result = SerialTrainer(
            model,
            callbacks=[
                EvalCallback(split, every=4, sample_users=40),
                EarlyStopping(monitor="auc", patience=2, min_delta=1.0),
            ],
        ).train(split.train)
        # Evals at epochs 3, 7, 11: the first sets best, the next two are
        # the patience budget — earlier the stale epochs 4-5 tripped it.
        assert result.stopped_early
        assert result.epochs_run == 12
        assert len(result.evals) == 3

    def test_early_stopping_on_auc_needs_eval(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=6))
        result = SerialTrainer(
            model,
            callbacks=[
                EvalCallback(split, every=1, sample_users=40),
                EarlyStopping(monitor="auc", patience=2, min_delta=1.0),
            ],
        ).train(split.train)
        assert result.stopped_early
        assert result.epochs_run == 3

    def test_checkpoint_callback_writes_versions(self, data, split, tmp_path):
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=4))
        checkpoints = CheckpointCallback(tmp_path / "ckpts", every=2)
        SerialTrainer(model, callbacks=[checkpoints]).train(split.train)
        store = CheckpointStore(tmp_path / "ckpts")
        assert store.versions() == [1, 2]
        bundle = store.load()
        assert bundle.extra["epoch"] == 3
        assert np.array_equal(
            bundle.model.factor_set.user, model.factor_set.user
        )

    def test_callbacks_reusable_across_runs(self, data, split):
        """One callback list must serve several trainings (quickstart
        trains TF then MF with the same list) without carrying state."""
        stopper = EarlyStopping(monitor="loss", patience=2, min_delta=10.0)
        first_model = TaxonomyFactorModel(data.taxonomy, config(epochs=10))
        first = SerialTrainer(first_model, callbacks=[stopper]).train(
            split.train
        )
        second_model = TaxonomyFactorModel(data.taxonomy, config(epochs=10))
        second = SerialTrainer(second_model, callbacks=[stopper]).train(
            split.train
        )
        # Both runs stop at the same epoch: the second didn't inherit the
        # first run's best/best_epoch.
        assert first.epochs_run == second.epochs_run == 3

    def test_retrain_resets_loop_state(self, data, split):
        """A second train() call on one trainer is a fresh run."""
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=3))
        trainer = SerialTrainer(
            model, callbacks=[LRSchedule.exponential(gamma=0.5)]
        )
        first = trainer.train(split.train)
        second = trainer.train(split.train)
        assert second.epochs_run == 3
        assert [e.epoch for e in second.history] == [0, 1, 2]
        # The schedule re-bases on the configured rate, not the annealed one.
        assert second.history[0].learning_rate == first.history[0].learning_rate
        # And the rerun reproduces the first run bit-for-bit (same seeds).
        fresh = TaxonomyFactorModel(data.taxonomy, config(epochs=3))
        SerialTrainer(
            fresh, callbacks=[LRSchedule.exponential(gamma=0.5)]
        ).train(split.train)
        assert np.array_equal(model.factor_set.user, fresh.factor_set.user)

    def test_train_zero_epochs(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config())
        result = SerialTrainer(model).train(split.train, epochs=0)
        assert result.epochs_run == 0
        assert model.factor_set is not None  # initialized, untrained

    def test_loss_decreases(self, data, split):
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=5))
        result = SerialTrainer(model).train(split.train)
        assert result.history[-1].loss < result.history[0].loss


# ----------------------------------------------------------------------
# Online backend
# ----------------------------------------------------------------------
class TestOnlineTrainer:
    def test_streams_log_into_fitted_model(self, data, split):
        warm, stream = warm_stream_split(split.train, 0.5)
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=4))
        SerialTrainer(model).train(warm)
        item_factors = model.factor_set.w.copy()
        result = OnlineTrainer(model, steps=2, batch_size=64).train(stream)
        assert result.epochs_run == 1  # online defaults to one pass
        assert result.history[0].n_examples > 0
        assert np.isfinite(result.history[0].loss)
        # Item/taxonomy factors stay frozen; user vectors moved.
        assert np.array_equal(model.factor_set.w, item_factors)
        # The accumulated history (warm + streamed) is attached.
        assert model._train_log.n_purchases == split.train.n_purchases

    def test_learning_rate_override_honored(self, data, split):
        warm, stream = warm_stream_split(split.train, 0.5)
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=2))
        SerialTrainer(model).train(warm)
        trainer = OnlineTrainer(
            model, steps=1, batch_size=128, learning_rate=0.001
        )
        result = trainer.train(stream)
        assert result.history[0].learning_rate == 0.001
        assert trainer.updater.learning_rate == 0.001

    def test_epoch_extras_are_deltas(self, data, split):
        """Multi-pass extras report per-epoch deltas, not lifetime totals."""
        # Warm-train on a truncated user range so the stream brings
        # genuinely new users (they get folded in during pass one).
        head = split.train.subset_users(range(split.train.n_users - 20))
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=2))
        SerialTrainer(model).train(head)
        result = OnlineTrainer(model, steps=1, batch_size=128).train(
            split.train, epochs=2
        )
        first, second = result.history
        assert first.extras["events"] == second.extras["events"]
        assert first.extras["new_users"] > 0
        # Every user is known after pass one; pass two must not
        # re-report pass one's fold-ins.
        assert second.extras["new_users"] == 0.0

    def test_requires_fitted_model(self, data, split):
        from repro.core.tf_model import NotFittedError

        model = TaxonomyFactorModel(data.taxonomy, config())
        with pytest.raises(NotFittedError):
            OnlineTrainer(model).train(split.train)

    def test_callbacks_fire_on_online_backend(self, data, split):
        warm, stream = warm_stream_split(split.train, 0.5)
        model = TaxonomyFactorModel(data.taxonomy, config(epochs=3))
        SerialTrainer(model).train(warm)
        evaluator = EvalCallback(split, every=1, sample_users=40)
        result = OnlineTrainer(
            model, steps=1, batch_size=128, callbacks=[evaluator]
        ).train(stream)
        assert len(result.evals) == 1
