"""Tests for in-process serving (ModelRegistry.predict / predict_many, cache, stats)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import BackboneConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.serve import LRUCache, ModelRegistry, ModelStats


@pytest.fixture(scope="module")
def served_estimator(small_train):
    config = SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        training=TrainingConfig(
            iterations=25,
            learning_rate=1e-2,
            evaluation_interval=10,
            early_stopping_patience=None,
            seed=0,
        ),
    )
    return HTEEstimator(
        backbone="cfr", framework="vanilla", config=config, seed=2
    ).fit(small_train)


@pytest.fixture()
def registry(served_estimator):
    registry = ModelRegistry(cache_size=4096)
    registry.deploy("main", served_estimator)
    return registry


class TestLRUCache:
    def test_get_put_and_hit_counters(self):
        cache = LRUCache(capacity=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" becomes the eviction candidate
        cache.put("c", 3)
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.evictions == 1

    def test_zero_capacity_disables_caching(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0


class TestModelStats:
    def test_record_accumulates(self):
        stats = ModelStats(window=8)
        stats.record(rows=10, seconds=0.5, cache_hits=3, cache_misses=7)
        stats.record(rows=10, seconds=0.5)
        summary = stats.summary()
        assert summary["requests"] == 2.0
        assert summary["rows"] == 20.0
        assert summary["throughput_rows_per_second"] == pytest.approx(20.0)
        assert summary["cache_hit_rate"] == pytest.approx(0.3)
        assert summary["latency_p50_seconds"] == pytest.approx(0.5)


class TestRegistryServing:
    def test_rejects_unfitted_models(self, fast_config):
        registry = ModelRegistry()
        with pytest.raises(ValueError, match="not fitted"):
            registry.deploy("raw", HTEEstimator(config=fast_config))
        with pytest.raises(TypeError, match="HTEEstimator or artifact path"):
            registry.deploy("raw", object())

    def test_predict_matches_estimator(self, registry, served_estimator, small_ood):
        result = registry.predict(small_ood.covariates, model="main")
        expected = served_estimator.predict_potential_outcomes(small_ood.covariates)
        for key in ("mu0", "mu1", "ite"):
            np.testing.assert_array_equal(result[key], expected[key])

    def test_single_model_needs_no_name(self, registry, small_ood):
        ite = registry.predict(small_ood.covariates)["ite"]
        assert ite.shape == (len(small_ood),)

    def test_unknown_model_raises(self, registry, small_ood):
        with pytest.raises(ValueError, match="unknown model"):
            registry.predict(small_ood.covariates, model="nope")

    def test_one_dimensional_request_treated_as_single_row(self, registry, small_ood):
        result = registry.predict(small_ood.covariates[0], model="main")
        assert result["ite"].shape == (1,)

    def test_predict_many_preserves_request_order_and_shapes(
        self, registry, served_estimator, small_ood
    ):
        requests = [
            small_ood.covariates[0:3],
            small_ood.covariates[10],          # single row, 1-D
            small_ood.covariates[3:10],
        ]
        results = registry.predict_many(requests, model="main")
        assert [len(result["ite"]) for result in results] == [3, 1, 7]
        expected = served_estimator.predict_ite(small_ood.covariates[0:3])
        np.testing.assert_array_equal(results[0]["ite"], expected)
        np.testing.assert_array_equal(
            results[1]["ite"],
            served_estimator.predict_ite(small_ood.covariates[10].reshape(1, -1)),
        )

    def test_predict_many_empty(self, registry):
        assert registry.predict_many([], model="main") == []

    def test_predict_many_rejects_mixed_widths(self, registry):
        with pytest.raises(ValueError, match="feature dimension"):
            registry.predict_many([np.zeros((2, 14)), np.zeros((2, 5))], model="main")

    def test_cache_hits_on_repeated_rows(self, registry, small_ood):
        block = small_ood.covariates[:20]
        registry.predict(block, model="main")
        registry.predict(block, model="main")
        stats = registry.stats("main")["main"]
        assert stats["cache_hits"] >= 20
        assert stats["cache_hit_rate"] > 0

    def test_cached_results_identical_to_fresh(self, registry, served_estimator, small_ood):
        block = small_ood.covariates[:20]
        first = registry.predict(block, model="main")
        second = registry.predict(block, model="main")
        np.testing.assert_array_equal(first["ite"], second["ite"])
        np.testing.assert_array_equal(
            second["ite"], served_estimator.predict_ite(block)
        )

    def test_stats_reset(self, registry, small_ood):
        registry.predict(small_ood.covariates, model="main")
        registry.reset_stats()
        stats = registry.stats("main")["main"]
        assert stats["requests"] == 0.0 and stats["rows"] == 0.0

    def test_from_artifacts_and_multi_model_routing(
        self, served_estimator, fast_config, small_train, small_ood, tmp_path
    ):
        served_estimator.save(tmp_path / "a")
        registry = ModelRegistry()
        for name, path in {"a": tmp_path / "a"}.items():
            registry.deploy(name, path)
        other = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=fast_config, seed=5
        ).fit(small_train)
        registry.deploy("b", other)
        assert sorted(registry.names) == ["a", "b"]
        with pytest.raises(ValueError, match="model name required"):
            registry.predict(small_ood.covariates)
        np.testing.assert_array_equal(
            registry.predict(small_ood.covariates, model="a")["ite"],
            served_estimator.predict_ite(small_ood.covariates),
        )
        registry.undeploy("b")
        assert registry.names == ["a"]


class TestRequestValidation:
    def test_predict_rejects_wrong_width_naming_both_dimensions(self, registry):
        with pytest.raises(ValueError) as excinfo:
            registry.predict(np.zeros((3, 5)), model="main")
        message = str(excinfo.value)
        assert "feature dimension 5" in message
        assert "feature dimension 14" in message
        assert "main" in message

    def test_predict_many_rejects_wrong_width_before_any_forward(self, registry):
        with pytest.raises(ValueError, match="feature dimension"):
            registry.predict_many([np.zeros((2, 3))], model="main")
        assert registry.stats("main")["main"]["requests"] == 0.0

    def test_width_mismatch_runs_no_forward_and_counts_nothing(
        self, registry, small_ood, monkeypatch
    ):
        """One wrong-width request fails the whole call before any forward,
        also when the requests before it fit, and the lease is returned."""
        version = registry.live("main")
        forwards = []
        monkeypatch.setattr(
            version.estimator, "predict_potential_outcomes", lambda *args: forwards.append(args)
        )
        with pytest.raises(ValueError) as excinfo:
            registry.predict_many([small_ood.covariates[:4], np.zeros((2, 5))], model="main")
        message = str(excinfo.value)
        assert "feature dimension 5" in message and "feature dimension 14" in message
        assert forwards == []
        stats = registry.stats("main")["main"]
        assert stats["requests"] == 0.0 and stats["rows"] == 0.0
        assert version.inflight == 0

    @pytest.mark.parametrize("max_batch_size", [0, -1])
    def test_non_positive_chunk_size_is_rejected_and_caches_nothing(
        self, registry, small_ood, max_batch_size
    ):
        version = registry.live("main")
        block = np.ascontiguousarray(small_ood.covariates[:4])
        with pytest.raises(ValueError, match="max_batch_size"):
            version.predict_rows(block, max_batch_size)
        with pytest.raises(ValueError, match="max_batch_size"):
            registry.predict(block, model="main", max_batch_size=max_batch_size)
        assert len(version.cache) == 0 and version.inflight == 0

    def test_three_dimensional_request_rejected(self, registry):
        with pytest.raises(ValueError, match="1-D or 2-D"):
            registry.predict(np.zeros((2, 2, 14)), model="main")


class TestFittedDtypeServing:
    @pytest.fixture(scope="class")
    def float32_estimator(self, small_train):
        config = SBRLConfig(
            backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
            training=TrainingConfig(
                iterations=25,
                learning_rate=1e-2,
                evaluation_interval=10,
                early_stopping_patience=None,
                seed=0,
                dtype="float32",
            ),
        )
        return HTEEstimator(
            backbone="cfr", framework="vanilla", config=config, seed=2
        ).fit(small_train)

    def test_fitted_dtype_property(self, served_estimator, float32_estimator, fast_config):
        assert served_estimator.fitted_dtype == np.dtype(np.float64)
        assert float32_estimator.fitted_dtype == np.dtype(np.float32)
        with pytest.raises(RuntimeError, match="must be fit"):
            HTEEstimator(config=fast_config).fitted_dtype

    def test_float32_model_served_in_float32(self, float32_estimator, small_ood):
        registry = ModelRegistry()
        registry.deploy("f32", float32_estimator)
        result = registry.predict(small_ood.covariates.astype(np.float64), model="f32")
        for key in ("mu0", "mu1", "ite"):
            assert result[key].dtype == np.float32

    def test_cache_keys_are_dtype_stable(self, float32_estimator, small_ood):
        """The same rows sent as float64 and float32 must share cache entries."""
        registry = ModelRegistry()
        registry.deploy("f32", float32_estimator)
        # float32-representable values, so both dtypes carry the same rows.
        block = small_ood.covariates[:16].astype(np.float32)
        expected = float32_estimator.predict_potential_outcomes(block)
        for request in (block.astype(np.float64), block):
            served = registry.predict(request, model="f32")
            for key in ("mu0", "mu1", "ite"):
                np.testing.assert_array_equal(served[key], expected[key])
        stats = registry.stats("f32")["f32"]
        assert stats["cache_hits"] >= 16

    def test_float32_dtype_survives_save_load(self, float32_estimator, tmp_path, small_ood):
        float32_estimator.save(tmp_path / "f32")
        reloaded = HTEEstimator.load(tmp_path / "f32")
        assert reloaded.fitted_dtype == np.dtype(np.float32)
        np.testing.assert_allclose(
            reloaded.predict_ite(small_ood.covariates),
            float32_estimator.predict_ite(small_ood.covariates),
        )


class TestConcurrentLifecycle:
    def test_concurrent_predict_and_lifecycle_churn(self, served_estimator, small_ood):
        """predict racing undeploy/deploy/reset_stats must never crash or hang.

        Pins the snapshot contract: a request leases one version for its
        whole lifetime, so lifecycle churn can only ever surface as the
        documented ``ValueError`` (unknown model), never as a crash,
        deadlock or partially-swapped state.
        """
        registry = ModelRegistry(cache_size=64)
        registry.deploy("m", served_estimator)
        block = small_ood.covariates[:8]
        stop = threading.Event()
        errors = []

        def hammer():
            while not stop.is_set():
                try:
                    result = registry.predict(block, model="m")
                    assert result["ite"].shape == (len(block),)
                except ValueError as exc:  # unloaded between requests: expected
                    assert "unknown model" in str(exc)
                except Exception as exc:  # noqa: BLE001 — the test's whole point
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            registry.undeploy("m")
            registry.deploy("m", served_estimator)
            registry.reset_stats()
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads), "predict deadlocked"
        assert errors == []
        # The registry is still fully functional afterwards.
        assert registry.predict(block, model="m")["ite"].shape == (len(block),)


class TestMicrobatchingSpeedup:
    def test_predict_many_faster_than_per_row_calls(self, served_estimator, rng):
        """Acceptance criterion: fused serving beats per-row predict_ite on 1k+ rows."""
        num_rows = 1200
        covariates = rng.normal(size=(num_rows, served_estimator.trainer.backbone.num_features))

        start = time.perf_counter()
        per_row = np.concatenate(
            [served_estimator.predict_ite(row.reshape(1, -1)) for row in covariates]
        )
        per_row_seconds = time.perf_counter() - start

        registry = ModelRegistry(cache_size=0)  # isolate the microbatching win
        registry.deploy("bench", served_estimator)
        requests = np.array_split(covariates, 100)
        start = time.perf_counter()
        results = registry.predict_many(requests, model="bench")
        batched_seconds = time.perf_counter() - start

        batched = np.concatenate([result["ite"] for result in results])
        np.testing.assert_allclose(per_row, batched)
        # Typically 30-100x; assert a conservative margin to stay robust on
        # slow or noisy CI machines.
        assert batched_seconds * 3 < per_row_seconds, (
            f"microbatching not faster: {batched_seconds:.4f}s vs {per_row_seconds:.4f}s"
        )
