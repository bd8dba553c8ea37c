"""OnlineUpdater: frozen item factors, user-vector moves, growth paths."""

import numpy as np
import pytest

from repro.streaming.events import ItemArrival, MicroBatch, PurchaseEvent
from repro.streaming.updater import OnlineUpdater
from repro.core.tf_model import TaxonomyFactorModel
from repro.train import train_model


@pytest.fixture()
def updater(tf_model):
    return OnlineUpdater(tf_model, steps=8, seed=0)


class TestConstruction:
    def test_rejects_unfitted_model(self, dataset):
        with pytest.raises(RuntimeError):
            OnlineUpdater(TaxonomyFactorModel(dataset.taxonomy))

    def test_base_model_never_mutated(self, tf_model):
        fs = tf_model.factor_set
        before_user = fs.user.copy()
        before_w = fs.w.copy()
        updater = OnlineUpdater(tf_model, steps=8, seed=0)
        updater.apply_events([PurchaseEvent(0, (1, 2)), PurchaseEvent(1, (3,))])
        np.testing.assert_array_equal(fs.user, before_user)
        np.testing.assert_array_equal(fs.w, before_w)

    def test_defaults_come_from_config(self, tf_model):
        updater = OnlineUpdater(tf_model)
        assert updater.learning_rate == tf_model.config.learning_rate
        assert updater.reg == tf_model.config.reg

    def test_validates_budgets(self, tf_model):
        with pytest.raises(ValueError):
            OnlineUpdater(tf_model, steps=0)
        with pytest.raises(ValueError):
            OnlineUpdater(tf_model, fold_in_steps=0)


class TestKnownUserUpdates:
    def test_item_factors_stay_frozen(self, updater):
        fs = updater.model.factor_set
        w_before = fs.w.copy()
        bias_before = fs.bias.copy()
        updater.apply_events([PurchaseEvent(u, (u % 5,)) for u in range(20)])
        np.testing.assert_array_equal(fs.w, w_before)
        np.testing.assert_array_equal(fs.bias, bias_before)

    def test_user_vector_moves_toward_purchases(self, updater, tf_model):
        user, item = 0, 17
        score_before = float(updater.model.score_items(user)[item])
        updater.apply_events([PurchaseEvent(user, (item,))] * 10)
        # Score the purchased item with the *updated* user vector but the
        # same frozen item factors: repeated purchases must raise it.
        score_after = float(updater.model.score_items(user)[item])
        assert score_after > score_before

    def test_only_touched_users_change(self, updater):
        fs = updater.model.factor_set
        before = fs.user.copy()
        updater.apply_events([PurchaseEvent(3, (1,))])
        changed = np.flatnonzero(np.any(fs.user != before, axis=1))
        assert changed.tolist() == [3]

    def test_stats_accounting(self, updater):
        stats = updater.apply_events(
            [PurchaseEvent(0, (1, 2)), PurchaseEvent(1, (3,))]
        )
        assert stats.events == 2
        assert stats.purchases == 3
        assert stats.batches == 1
        assert stats.pair_steps == 3 * updater.steps
        assert stats.seconds > 0

    def test_rejects_out_of_range_items(self, updater):
        with pytest.raises(ValueError, match="onboard"):
            updater.apply_events([PurchaseEvent(0, (updater.n_items,))])

    def test_negative_sampling_rejects_basket_items(
        self, tiny_taxonomy, monkeypatch
    ):
        """Offline parity (``j ∉ B_t``): a streamed basket's own items must
        be resampled away, never used as the pair's negative."""
        from repro.data.transactions import TransactionLog
        from repro.utils.config import TrainConfig
        import repro.streaming.updater as updater_mod

        log = TransactionLog([[[0], [4]], [[2], [6]]], n_items=8)
        model = TaxonomyFactorModel(
            tiny_taxonomy, TrainConfig(factors=4, epochs=2, seed=0)
        )
        train_model(model, log)
        updater = OnlineUpdater(model, steps=1, seed=0)

        class ScriptedRng:
            """First draw collides with the basket; resamples offer item 7."""

            def __init__(self):
                self.draws = 0

            def integers(self, low, high, size=None):
                self.draws += 1
                value = 0 if self.draws == 1 else 7
                return np.full(size, value, dtype=np.int64)

        updater.rng = ScriptedRng()
        seen_deltas = []
        real_step = updater_mod.bpr_user_step

        def spy(vu, delta, c, lr, reg):
            seen_deltas.append(delta.copy())
            return real_step(vu, delta, c, lr, reg)

        monkeypatch.setattr(updater_mod, "bpr_user_step", spy)
        basket = (0, 1, 2, 3, 4, 5, 6)  # everything except item 7
        updater.apply_events([PurchaseEvent(0, basket)])
        assert updater.rng.draws >= 2  # the scripted collision was resampled
        eff = updater.model.factor_set.effective_items()
        (delta,) = seen_deltas
        np.testing.assert_allclose(delta, eff[list(basket)] - eff[7])

    def test_markov_model_uses_streamed_context(self, tf_markov_model):
        updater = OnlineUpdater(tf_markov_model, steps=4, seed=0)
        updater.apply_events([PurchaseEvent(0, (5,)), PurchaseEvent(0, (6,))])
        assert [b.tolist() for b in updater.history_of(0)[-2:]] == [[5], [6]]


class TestNewUsers:
    def test_new_user_grown_and_folded_in(self, updater):
        fresh = updater.n_users + 2
        updater.apply_events([PurchaseEvent(fresh, (4, 5))])
        assert updater.n_users == fresh + 1
        assert updater.stats.new_users == 1
        assert [b.tolist() for b in updater.history_of(fresh)] == [[4, 5]]

    def test_gap_user_folded_on_first_appearance(self, updater):
        far = updater.n_users + 5
        updater.apply_events([PurchaseEvent(far, (1,))])
        gap = far - 2  # grown as a side effect, but never seen
        updater.apply_events([PurchaseEvent(gap, (2,))])
        assert updater.stats.new_users == 2

    def test_gap_users_have_zero_vectors_not_random(self, updater):
        """Gap rows are served as 'known' users once a snapshot is swapped
        in, so they must score by bias (zero vector), not random noise."""
        base = updater.n_users
        far = base + 5
        updater.apply_events([PurchaseEvent(far, (1,))])
        gaps = updater.model.factor_set.user[base:far]
        np.testing.assert_array_equal(gaps, np.zeros_like(gaps))
        # The user that actually appeared was folded in, not zeroed.
        assert np.any(updater.model.factor_set.user[far] != 0)

    def test_folded_user_becomes_incremental(self, updater):
        fresh = updater.n_users
        updater.apply_events([PurchaseEvent(fresh, (4,))])
        folded = updater.model.factor_set.user[fresh].copy()
        updater.apply_events([PurchaseEvent(fresh, (4,))] * 5)
        moved = updater.model.factor_set.user[fresh]
        assert updater.stats.new_users == 1  # fold-in ran exactly once
        assert not np.array_equal(folded, moved)

    def test_new_user_prefers_their_category(self, tf_model, dataset):
        updater = OnlineUpdater(tf_model, steps=8, fold_in_steps=200, seed=0)
        leaf_items = dataset.taxonomy.subtree_items(
            int(dataset.taxonomy.parent[dataset.taxonomy.items[0]])
        )
        fresh = updater.n_users
        updater.apply_events(
            [PurchaseEvent(fresh, tuple(int(i) for i in leaf_items[:2]))]
        )
        model = updater.snapshot()
        scores = model.score_items(fresh)
        # A user whose whole history sits in one leaf category should score
        # the unpurchased sibling items above the catalog average.
        siblings = leaf_items[2:]
        assert scores[siblings].mean() > scores.mean()


class TestItemOnboarding:
    def test_arrival_grows_catalog_with_warm_start(self, tiny_taxonomy):
        from repro.data.transactions import TransactionLog
        from repro.utils.config import TrainConfig

        # Chains reach the root at levels=4 on the 2/2 taxonomy, so the
        # warm start is *exactly* the parent's ancestor-chain sum.
        log = TransactionLog([[[0, 1], [4]], [[2], [6]], [[5], [7]]], n_items=8)
        model = TaxonomyFactorModel(
            tiny_taxonomy,
            TrainConfig(factors=4, epochs=3, taxonomy_levels=4, seed=0),
        )
        train_model(model, log)
        updater = OnlineUpdater(model, steps=4, seed=0)
        parent = int(tiny_taxonomy.parent[tiny_taxonomy.items[0]])
        n_before = updater.n_items
        updater.apply(MicroBatch(arrivals=[ItemArrival(parent, "fresh")]))
        assert updater.n_items == n_before + 1
        assert updater.stats.new_items == 1
        scores = updater.model.score_items(0)
        parent_score = updater.model.score_nodes(0, np.array([parent]))[0]
        assert scores[n_before] == pytest.approx(parent_score)

    def test_streamed_purchase_of_onboarded_item(self, updater):
        taxonomy = updater.model.taxonomy
        parent = int(taxonomy.parent[taxonomy.items[0]])
        batch = MicroBatch(arrivals=[ItemArrival(parent)])
        updater.apply(batch)
        new_item = updater.n_items - 1
        before = float(updater.model.score_items(2)[new_item])
        updater.apply_events([PurchaseEvent(2, (new_item,))] * 5)
        assert float(updater.model.score_items(2)[new_item]) > before


class TestSnapshot:
    def test_snapshot_is_independent(self, updater):
        snap = updater.snapshot()
        frozen = snap.recommend(0, k=5)
        updater.apply_events([PurchaseEvent(0, (9,))] * 10)
        assert np.array_equal(snap.recommend(0, k=5), frozen)

    def test_snapshot_carries_streamed_history(self, updater):
        updater.apply_events([PurchaseEvent(0, (33,))])
        snap = updater.snapshot()
        log = snap._train_log
        assert 33 in log.user_items(0)
        # Streamed purchases are excluded from the snapshot's rankings.
        assert 33 not in snap.recommend(0, k=snap.n_items)

    def test_history_log_covers_grown_users(self, updater):
        fresh = updater.n_users + 1
        updater.apply_events([PurchaseEvent(fresh, (2,))])
        log = updater.history_log()
        assert log.n_users == fresh + 1
        assert log.user_items(fresh).tolist() == [2]
        assert log.user_items(fresh - 1).size == 0

    def test_history_log_fast_path_matches_validated(self, updater):
        from repro.data.transactions import TransactionLog

        updater.apply_events([PurchaseEvent(0, (5, 3))])
        fast = updater.history_log()
        validated = TransactionLog(fast.to_lists(), n_items=fast.n_items)
        assert fast == validated

    def test_incremental_popularity_matches_refit(self, updater):
        from repro.core.popularity import PopularityModel

        updater.apply_events(
            [PurchaseEvent(u % 5, (7, u % 3)) for u in range(20)]
        )
        incremental = updater.popularity()
        refit = PopularityModel().fit(updater.history_log())
        np.testing.assert_allclose(
            incremental.score_items(0), refit.score_items(0)
        )

    def test_popularity_counts_cover_onboarded_items(self, updater):
        taxonomy = updater.model.taxonomy
        parent = int(taxonomy.parent[taxonomy.items[0]])
        updater.apply(MicroBatch(arrivals=[ItemArrival(parent)]))
        new_item = updater.n_items - 1
        updater.apply_events([PurchaseEvent(0, (new_item,))] * 3)
        scores = updater.popularity().score_items(0)
        assert scores.shape == (updater.n_items,)
        assert scores[new_item] >= 3


class TestCategoryFreePlacement:
    def test_strict_mode_rejects_category_free_arrival(self, updater):
        from repro.streaming.events import MissingCategoryError

        n_before = updater.n_items
        with pytest.raises(MissingCategoryError, match="place_item"):
            updater.apply(MicroBatch(arrivals=[ItemArrival()]))
        # Rejected before any mutation: the catalog did not grow.
        assert updater.n_items == n_before

    def test_strict_rejection_precedes_partial_onboarding(self, updater):
        from repro.streaming.events import MissingCategoryError

        taxonomy = updater.model.taxonomy
        parent = int(taxonomy.parent[taxonomy.items[0]])
        n_before = updater.n_items
        batch = MicroBatch(arrivals=[ItemArrival(parent), ItemArrival()])
        with pytest.raises(MissingCategoryError):
            updater.apply(batch)
        # All-or-nothing: the categorised sibling was not onboarded either.
        assert updater.n_items == n_before

    def test_auto_place_onboards_category_free_arrival(self, tf_model):
        updater = OnlineUpdater(tf_model, steps=8, seed=0, auto_place=True)
        n_before = updater.n_items
        updater.apply(MicroBatch(arrivals=[ItemArrival(name="orphan")]))
        assert updater.n_items == n_before + 1
        assert updater.stats.placed_items == 1
        assert updater.stats.new_items == 1
        # The placed item landed under a real leaf category.
        taxonomy = updater.model.taxonomy
        parent = int(taxonomy.parent[taxonomy.items[n_before]])
        assert parent in taxonomy.parent[taxonomy.items[:n_before]]

    def test_auto_place_is_deterministic(self, tf_model):
        def placed_parent():
            upd = OnlineUpdater(tf_model, steps=8, seed=0, auto_place=True)
            upd.apply(MicroBatch(arrivals=[ItemArrival()]))
            taxonomy = upd.model.taxonomy
            return int(taxonomy.parent[taxonomy.items[-1]])

        assert len({placed_parent() for _ in range(3)}) == 1

    def test_explicit_parents_bypass_placement(self, tf_model):
        updater = OnlineUpdater(tf_model, steps=8, seed=0, auto_place=True)
        taxonomy = updater.model.taxonomy
        parent = int(taxonomy.parent[taxonomy.items[0]])
        updater.apply(MicroBatch(arrivals=[ItemArrival(parent)]))
        assert updater.stats.placed_items == 0
        assert updater.stats.new_items == 1


class TestRefinement:
    def test_refine_counts_and_bumps_revision(self, updater):
        before_rev = updater.model.taxonomy.revision
        moves = updater.refine(min_gain=0.0, max_moves=3)
        assert updater.stats.replants == len(moves)
        if moves:
            assert updater.model.taxonomy.revision == before_rev + 1

    def test_refine_preserves_rankings(self, updater):
        users = np.arange(updater.n_users)
        before = updater.snapshot().recommend_batch(users, k=5)
        moves = updater.refine(min_gain=0.0, max_moves=2)
        after = updater.snapshot().recommend_batch(users, k=5)
        assert np.array_equal(before, after)
        if moves:
            assert updater.model.taxonomy.revision == 1

    def test_snapshot_carries_refined_tree(self, updater):
        moves = updater.refine(min_gain=0.0, max_moves=1)
        if not moves:
            pytest.skip("model has no drifted items at this seed")
        snap = updater.snapshot()
        assert snap.taxonomy.digest == updater.model.taxonomy.digest
        assert snap.taxonomy.revision == 1
