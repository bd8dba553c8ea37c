"""RecommenderService routing, caching, stats, and batch semantics."""

import numpy as np
import pytest

from repro.core.cascade import CascadedRecommender
from repro.core.folding import recommend_for_history
from repro.core.popularity import PopularityModel
from repro.core.tf_model import TaxonomyFactorModel
from repro.serving.coldstart import FoldInRecommender
from repro.serving.protocol import Recommender
from repro.serving.service import (
    QueryVectorCache,
    RecommenderService,
    ServingError,
)
from repro.train import train_model
from repro.utils.config import CascadeConfig


@pytest.fixture()
def service(tf_model):
    return RecommenderService(tf_model)


class TestRouting:
    def test_known_user_matches_model(self, service, tf_model):
        for user in range(8):
            assert np.array_equal(
                service.recommend(user, k=6), tf_model.recommend(user, k=6)
            )
        assert service.stats.known_user_requests == 8

    def test_cold_with_history_uses_fold_in(self, service, tf_model, dataset):
        history = [dataset.log.basket(2, 0)]
        got = service.recommend(None, k=5, history=history)
        expected = recommend_for_history(tf_model, history, k=5, steps=200, seed=0)
        assert np.array_equal(got, expected)
        assert service.stats.fold_in_requests == 1

    def test_out_of_range_user_is_cold(self, service, dataset):
        history = [dataset.log.basket(0, 0)]
        service.recommend(10**6, k=5, history=history)
        assert service.stats.fold_in_requests == 1

    def test_cold_without_history_falls_back_to_popularity(
        self, service, tf_model
    ):
        popularity = PopularityModel().fit(tf_model._train_log)
        got = service.recommend(None, k=5)
        assert np.array_equal(got, popularity.recommend(0, k=5))
        assert service.stats.fallback_requests == 1

    def test_no_fallback_configured_raises(self, tf_model):
        bare = RecommenderService(tf_model, popularity=None)
        bare.popularity = None  # simulate a service with no fallback at all
        with pytest.raises(ServingError, match="fallback"):
            bare.recommend(None, k=5)

    def test_explicit_history_for_known_user(self, tf_markov_model, dataset):
        service = RecommenderService(tf_markov_model)
        history = [dataset.log.basket(4, 0)]
        got = service.recommend(1, k=5, history=history)
        expected = tf_markov_model.recommend(1, k=5, history=history)
        assert np.array_equal(got, expected)

    def test_history_log_does_not_mutate_shared_model(
        self, tf_markov_model, dataset, split
    ):
        """Constructing a second service with another log must not change
        the first service's (or the caller's) rankings."""
        svc_a = RecommenderService(tf_markov_model)
        before = [svc_a.recommend(u, k=5) for u in range(5)]
        other_log = dataset.log  # full log, different from split.train
        RecommenderService(tf_markov_model, history_log=other_log)
        assert tf_markov_model._train_log is split.train
        svc_a.query_cache.clear()
        after = [svc_a.recommend(u, k=5) for u in range(5)]
        for x, y in zip(before, after):
            assert np.array_equal(x, y)

    def test_history_log_restores_markov_context(
        self, tf_markov_model, split, tmp_path
    ):
        """A bundle-loaded Markov model served with history_log= must rank
        exactly like the trained model (context not silently dropped)."""
        from repro.serving.bundle import ModelBundle

        ModelBundle(tf_markov_model).save(tmp_path / "b")
        loaded = ModelBundle.load(tmp_path / "b").model
        service = RecommenderService(loaded, history_log=split.train)
        for user in range(5):
            assert np.array_equal(
                service.recommend(user, k=5),
                tf_markov_model.recommend(user, k=5),
            )


class TestBatch:
    def test_known_rows_match_model_batch(self, service, tf_model):
        users = np.arange(25)
        assert np.array_equal(
            service.recommend_batch(users, k=7),
            tf_model.recommend_batch(users, k=7),
        )

    def test_mixed_batch_routes_every_row(self, service, tf_model, dataset):
        history = [dataset.log.basket(1, 0)]
        users = [0, None, 5, None]
        histories = [None, history, None, None]
        out = service.recommend_batch(users, k=5, histories=histories)
        assert out.shape == (4, 5)
        assert np.array_equal(out[0][out[0] >= 0], tf_model.recommend(0, k=5))
        expected_cold = recommend_for_history(
            tf_model, history, k=5, steps=200, seed=0
        )
        assert np.array_equal(out[1][out[1] >= 0], expected_cold)
        popularity = PopularityModel().fit(tf_model._train_log)
        assert np.array_equal(out[3][out[3] >= 0], popularity.recommend(0, k=5))
        stats = service.stats
        assert stats.requests == 4
        assert stats.known_user_requests == 2
        assert stats.fold_in_requests == 1
        assert stats.fallback_requests == 1

    def test_histories_length_mismatch(self, service):
        with pytest.raises(ValueError, match="histories"):
            service.recommend_batch([0, 1], k=3, histories=[None])

    def test_batch_then_single_shares_cache(self, service):
        service.recommend_batch(np.arange(10), k=5)
        assert service.stats.cache_misses == 10
        service.recommend(3, k=5)
        assert service.stats.cache_hits == 1


class TestCache:
    def test_lru_eviction_is_bounded(self, tf_model):
        service = RecommenderService(tf_model, cache_size=2)
        for user in range(5):
            service.recommend(user, k=3)
        assert len(service.query_cache) == 2

    def test_repeat_requests_hit(self, service):
        service.recommend(0, k=3)
        service.recommend(0, k=3)
        stats = service.stats
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_cache_disabled(self, tf_model):
        service = RecommenderService(tf_model, cache_size=0)
        service.recommend(0, k=3)
        service.recommend(0, k=3)
        assert service.stats.cache_hits == 0
        assert len(service.query_cache) == 0

    def test_explicit_history_bypasses_cache(self, service, dataset):
        history = [dataset.log.basket(0, 0)]
        service.recommend(0, k=3, history=history)
        assert len(service.query_cache) == 0

    def test_unit_cache_behaviour(self):
        cache = QueryVectorCache(1)
        cache.put(1, np.zeros(2))
        cache.put(2, np.ones(2))
        assert cache.get(1) is None
        assert cache.get(2) is not None

    def test_cache_is_thread_safe_under_eviction_pressure(self):
        """get() racing put() eviction on a tiny cache must never raise
        (the unlocked OrderedDict would KeyError in move_to_end)."""
        import threading

        cache = QueryVectorCache(2)
        errors = []

        def churn(offset):
            try:
                for i in range(3000):
                    user = (i + offset) % 5
                    cache.put(user, np.zeros(2))
                    cache.get(user)
                    if i % 100 == 0:
                        cache.invalidate()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=churn, args=(k,)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestCascadeMode:
    def test_cascade_counts_fewer_nodes(self, tf_model):
        exact = RecommenderService(tf_model)
        cascaded = RecommenderService(
            tf_model, cascade=CascadeConfig(keep_fractions=(0.3, 0.3, 0.3))
        )
        exact.recommend(0, k=5)
        cascaded.recommend(0, k=5)
        assert 0 < cascaded.stats.nodes_scored < exact.stats.nodes_scored
        assert isinstance(cascaded.cascade, CascadedRecommender)

    def test_cascade_excludes_purchases(self, tf_model):
        service = RecommenderService(
            tf_model, cascade=CascadeConfig(keep_fractions=(1.0, 1.0, 1.0))
        )
        top = service.recommend(0, k=5)
        bought = tf_model._train_log.user_items(0)
        assert not np.isin(top, bought).any()

    def test_cascade_batch(self, tf_model):
        service = RecommenderService(
            tf_model, cascade=CascadeConfig(keep_fractions=(0.5, 0.5, 0.5))
        )
        out = service.recommend_batch(np.arange(6), k=4)
        assert out.shape == (6, 4)
        assert service.stats.known_user_requests == 6


class TestStatsAndRefresh:
    def test_latency_percentiles(self, service):
        for user in range(10):
            service.recommend(user, k=3)
        stats = service.stats
        assert stats.p50 > 0
        assert stats.p95 >= stats.p50
        assert stats.requests_per_second > 0
        payload = stats.as_dict()
        assert payload["requests"] == 10
        assert payload["latency_p95"] >= payload["latency_p50"]

    def test_latency_window_is_bounded(self):
        from repro.serving.service import LATENCY_WINDOW, ServingStats

        stats = ServingStats()
        for _ in range(LATENCY_WINDOW + 5):
            stats.record_latency(1.0)
        stats.record_latency(2.0)
        assert len(stats.latencies) == LATENCY_WINDOW
        assert stats.latencies[-1] == 2.0
        assert stats.requests == LATENCY_WINDOW + 6

    def test_oversized_batch_records_one_amortized_entry(self):
        """A batch call is O(1): one amortized window entry and one
        weighted histogram observation, never count materialized floats."""
        from repro.serving.service import LATENCY_WINDOW, ServingStats

        stats = ServingStats()
        stats.record_latency(30.0, count=3 * LATENCY_WINDOW)
        assert len(stats.latencies) == 1
        assert stats.requests == 3 * LATENCY_WINDOW
        assert stats.seconds == 30.0
        # Amortized per-request latency, not the batch total.
        assert stats.latencies[0] == 30.0 / (3 * LATENCY_WINDOW)
        # The histogram weights the batch by its full request count.
        assert stats.latency_histogram.count == 3 * LATENCY_WINDOW

    def test_window_keeps_most_recent_entries(self):
        from repro.serving.service import LATENCY_WINDOW, ServingStats

        stats = ServingStats()
        for call in range(LATENCY_WINDOW + 3):
            stats.record_latency(float(call))
        stats.record_latency(7.0, count=4)
        assert len(stats.latencies) == LATENCY_WINDOW
        # The batch contributed one amortized entry at the newest slot...
        assert stats.latencies[-1] == 7.0 / 4
        # ...and the oldest singles fell off the front of the window.
        assert stats.latencies[0] == 4.0
        assert stats.requests == LATENCY_WINDOW + 3 + 4

    def test_batches_weight_percentiles_by_request_count(self):
        """Histogram percentiles count a batch once per request, so a big
        fast batch dominates a handful of slow singles."""
        from repro.serving.service import ServingStats

        stats = ServingStats()
        stats.record_latency(0.002 * 900, count=900)  # 900 req @ 2ms
        for _ in range(100):
            stats.record_latency(0.2)  # 100 slow singles @ 200ms
        assert stats.p50 < 0.01
        assert stats.p99 > 0.05
        assert stats.requests == 1000

    def test_empty_stats_are_nan(self, service):
        assert np.isnan(service.stats.p50)
        assert np.isnan(service.stats.requests_per_second)

    def test_reset_stats(self, service):
        service.recommend(0, k=3)
        retired = service.reset_stats()
        assert retired.requests == 1
        assert service.stats.requests == 0

    def test_refresh_after_partial_fit(self, dataset, split):
        model = TaxonomyFactorModel(
            dataset.taxonomy, factors=8, epochs=2, seed=0
        )
        train_model(model, split.train)
        service = RecommenderService(model)
        before = service.recommend(0, k=5)
        model.partial_fit(epochs=2)
        service.refresh()
        assert len(service.query_cache) == 0
        after = service.recommend(0, k=5)
        assert np.array_equal(after, model.recommend(0, k=5))
        assert before.shape == after.shape

    def test_unfitted_model_rejected(self, dataset):
        with pytest.raises(RuntimeError):
            RecommenderService(TaxonomyFactorModel(dataset.taxonomy))


class TestHotSwap:
    """Model swapping and cache coherence (the streaming serving contract)."""

    @pytest.fixture()
    def retrained(self, dataset, split):
        """A second model with visibly different factors."""
        model = TaxonomyFactorModel(
            dataset.taxonomy, factors=8, epochs=4, seed=99
        )
        return train_model(model, split.train)

    def test_swap_serves_the_new_model(self, tf_model, retrained):
        service = RecommenderService(tf_model)
        service.swap_model(retrained)
        for user in range(5):
            assert np.array_equal(
                service.recommend(user, k=6), retrained.recommend(user, k=6)
            )
        assert service.model is retrained
        assert service.stats.swaps == 1

    def test_swap_never_serves_stale_cached_vectors(self, tf_model, retrained):
        """The regression: a vector cached pre-swap must not survive it."""
        service = RecommenderService(tf_model)
        before = service.recommend(0, k=6)  # populates the cache
        assert len(service.query_cache) == 1
        service.swap_model(retrained)
        assert len(service.query_cache) == 0
        hits_before = service.stats.cache_hits
        after = service.recommend(0, k=6)
        assert service.stats.cache_hits == hits_before  # recomputed, not hit
        assert np.array_equal(after, retrained.recommend(0, k=6))
        assert before.shape == after.shape

    def test_in_flight_request_cannot_poison_the_cache(self, tf_model, retrained):
        """A put stamped with a pre-swap generation must be dropped."""
        service = RecommenderService(tf_model)
        stale_generation = service.generation
        stale_vector = tf_model.query_vector(0)
        service.swap_model(retrained)
        # The in-flight request finishes and tries to cache its vector.
        service.query_cache.put(0, stale_vector, stale_generation)
        assert len(service.query_cache) == 0
        # The next request therefore recomputes against the new model.
        assert np.array_equal(
            service.recommend(0, k=6), retrained.recommend(0, k=6)
        )

    def test_in_flight_request_cannot_read_new_generation(self, tf_model, retrained):
        service = RecommenderService(tf_model)
        stale_generation = service.generation
        service.swap_model(retrained)
        service.recommend(0, k=6)  # caches a new-generation vector
        assert service.query_cache.get(0, stale_generation) is None
        assert service.query_cache.get(0, service.generation) is not None

    def test_invalidate_cache_bumps_generation(self, tf_model):
        service = RecommenderService(tf_model)
        service.recommend(0, k=4)
        generation = service.invalidate_cache()
        assert generation == service.generation == 1
        assert len(service.query_cache) == 0
        hits = service.stats.cache_hits
        service.recommend(0, k=4)
        assert service.stats.cache_hits == hits

    def test_swap_after_mutation_regression(self, dataset, split):
        """Swapping in a mutated copy must serve the mutation, cache included."""
        model = TaxonomyFactorModel(
            dataset.taxonomy, factors=8, epochs=2, seed=0
        )
        train_model(model, split.train)
        service = RecommenderService(model)
        service.recommend(0, k=5)
        import copy as _copy

        mutated = _copy.copy(model)
        mutated._factors = model.factor_set.copy()
        mutated.factor_set.user[0] = -mutated.factor_set.user[0]
        service.swap_model(mutated)
        assert np.array_equal(
            service.recommend(0, k=5), mutated.recommend(0, k=5)
        )

    def test_swap_rebuilds_cascade_for_new_model(self, tf_model, retrained):
        service = RecommenderService(
            tf_model, cascade=CascadeConfig(keep_fractions=(0.5, 0.5, 0.5))
        )
        old_cascade = service.cascade
        service.swap_model(retrained)
        assert isinstance(service.cascade, CascadedRecommender)
        assert service.cascade is not old_cascade
        assert service.cascade.model is retrained
        assert service.cascade.config == old_cascade.config

    def test_swap_rebuilds_fold_in_and_fallback(self, tf_model, retrained, split):
        service = RecommenderService(tf_model, fold_in_steps=50, fold_in_seed=9)
        service.swap_model(retrained, history_log=split.train)
        assert service.fold_in.model is not tf_model
        assert service.fold_in.steps == 50
        assert service.popularity is not None
        assert service.history_log is split.train

    def test_refresh_uses_the_swap_path(self, dataset, split):
        model = TaxonomyFactorModel(
            dataset.taxonomy, factors=8, epochs=2, seed=0
        )
        train_model(model, split.train)
        service = RecommenderService(model)
        generation = service.generation
        model.partial_fit(epochs=1)
        service.refresh()
        assert service.generation == generation + 1
        assert np.array_equal(
            service.recommend(0, k=5), model.recommend(0, k=5)
        )


class TestFoldInRecommender:
    def test_satisfies_protocol(self, tf_model):
        assert isinstance(FoldInRecommender(tf_model), Recommender)

    def test_recommend_matches_folding_helper(self, tf_model, dataset):
        history = [dataset.log.basket(6, 0)]
        adapter = FoldInRecommender(tf_model, steps=150, seed=3)
        expected = recommend_for_history(
            tf_model, history, k=5, steps=150, seed=3
        )
        assert np.array_equal(adapter.recommend(k=5, history=history), expected)

    def test_batch_matches_per_history(self, tf_model, dataset):
        histories = [[dataset.log.basket(u, 0)] for u in range(4)]
        adapter = FoldInRecommender(tf_model, steps=100, seed=1)
        batch = adapter.recommend_batch(np.arange(4), k=5, histories=histories)
        for row, history in enumerate(histories):
            per = adapter.recommend(k=5, history=history)
            assert np.array_equal(batch[row][batch[row] >= 0], per)

    def test_empty_history_scores_all_items(self, tf_model):
        adapter = FoldInRecommender(tf_model)
        scores = adapter.score_items(history=None)
        assert scores.shape == (tf_model.n_items,)

    def test_score_matrix_shape_and_mismatch(self, tf_model, dataset):
        adapter = FoldInRecommender(tf_model)
        histories = [[dataset.log.basket(0, 0)], [dataset.log.basket(1, 0)]]
        matrix = adapter.score_matrix(np.arange(2), histories)
        assert matrix.shape == (2, tf_model.n_items)
        with pytest.raises(ValueError, match="histories"):
            adapter.score_matrix(np.arange(2), [histories[0]])
