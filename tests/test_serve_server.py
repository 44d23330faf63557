"""Tests for the concurrent serving frontend (coalescing, hot swap, shutdown)."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.config import BackboneConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.data.dataset import CausalDataset
from repro.serve import ModelRegistry, ServingFrontend
from repro.serve.registry import as_request_matrix
from repro.serve.server import _Request
from repro.nn.tensor import dtype_scope


def _fit(small_train, seed: int, dtype: str = "float64") -> HTEEstimator:
    config = SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        training=TrainingConfig(
            iterations=20,
            learning_rate=1e-2,
            evaluation_interval=10,
            early_stopping_patience=None,
            seed=0,
            dtype=dtype,
        ),
    )
    return HTEEstimator(
        backbone="cfr", framework="vanilla", config=config, seed=seed
    ).fit(small_train)


@pytest.fixture(scope="module")
def estimator_v1(small_train):
    return _fit(small_train, seed=11)


@pytest.fixture(scope="module")
def estimator_v2(small_train):
    return _fit(small_train, seed=12)


@pytest.fixture()
def frontend(estimator_v1):
    frontend = ServingFrontend(num_workers=2, max_wait_ms=5.0)
    frontend.deploy("m", estimator_v1)
    yield frontend
    frontend.stop()


class TestRequestPath:
    def test_results_match_direct_estimator(self, frontend, estimator_v1, small_ood):
        block = small_ood.covariates[:32]
        futures = [frontend.submit(row, model="m") for row in block]
        served = np.concatenate([future.result(timeout=30.0)["ite"] for future in futures])
        np.testing.assert_allclose(served, estimator_v1.predict_ite(block))

    def test_blocking_predict_wrappers(self, frontend, estimator_v1, small_ood):
        block = small_ood.covariates[:4]
        result = frontend.predict(block, model="m", timeout=30.0)
        assert set(result) == {"mu0", "mu1", "ite"}
        np.testing.assert_allclose(
            frontend.predict_ite(block, model="m", timeout=30.0),
            estimator_v1.predict_ite(block),
        )

    def test_submit_validates_synchronously(self, frontend):
        with pytest.raises(ValueError, match="feature dimension"):
            frontend.submit(np.zeros((1, 3)), model="m")
        with pytest.raises(ValueError, match="unknown model"):
            frontend.submit(np.zeros((1, 14)), model="nope")

    def test_multi_model_routing(self, estimator_v1, estimator_v2, small_ood):
        block = small_ood.covariates[:8]
        with ServingFrontend(num_workers=2) as frontend:
            frontend.deploy("a", estimator_v1)
            frontend.deploy("b", estimator_v2)
            ite_a = frontend.predict_ite(block, model="a", timeout=30.0)
            ite_b = frontend.predict_ite(block, model="b", timeout=30.0)
        np.testing.assert_allclose(ite_a, estimator_v1.predict_ite(block))
        np.testing.assert_allclose(ite_b, estimator_v2.predict_ite(block))
        assert not np.allclose(ite_a, ite_b)  # differently-seeded fits differ


class TestExecutionTimeCoercion:
    """A request is coerced to float64 at submit for the version live then;
    when its batch runs, only its width is checked again, against the
    version that batch leases."""

    def _request_for_live(self, frontend, rows):
        return _Request(as_request_matrix(rows, frontend.registry.live("m")))

    def test_swap_to_another_width_fails_the_future(self, frontend, small_train, small_ood):
        request = self._request_for_live(frontend, small_ood.covariates[:3])
        narrow = CausalDataset(
            small_train.covariates[:, :5],
            small_train.treatment,
            small_train.outcome,
            small_train.mu0,
            small_train.mu1,
        )
        frontend.deploy("m", _fit(narrow, seed=13))
        frontend._run_batch_inner("m", [request])
        error = request.future.exception(timeout=0)
        assert isinstance(error, ValueError)
        assert "feature dimension 14" in str(error) and "feature dimension 5" in str(error)
        assert frontend.stats.summary()["failed_requests"] == 1
        assert frontend.registry.live("m").stats.requests == 0

    def test_swap_to_a_float32_model_serves_float32(self, frontend, small_train, small_ood):
        rows = small_ood.covariates[:3]
        request = self._request_for_live(frontend, rows)
        assert request.matrix.dtype == np.float64
        float32_model = _fit(small_train, seed=13, dtype="float32")
        frontend.deploy("m", float32_model)
        frontend._run_batch_inner("m", [request])
        result = request.future.result(timeout=0)
        expected = float32_model.predict_potential_outcomes(rows)
        for key in ("mu0", "mu1", "ite"):
            assert result[key].dtype == np.float32
            np.testing.assert_array_equal(result[key], expected[key])
        assert frontend.stats.summary()["failed_requests"] == 0
        # The batch cached its rows under their float64 bytes.
        frontend.registry.predict(rows, model="m")
        assert frontend.registry.live("m").stats.cache_hits == len(rows)


class TestServedEqualsEager:
    """Every serving entry point returns the autodiff forward's answer, and so
    ``predict_potential_outcomes``', bit for bit: zero rows, NaN rows, and a
    float32 model given float64 input."""

    @staticmethod
    def _eager(estimator, covariates):
        trainer = estimator.trainer
        with dtype_scope(estimator.fitted_dtype):  # the model's training dtype
            return trainer.backbone._predict_eager(trainer._transform(covariates))

    @staticmethod
    def _assert_equal(served, eager):
        for key in ("mu0", "mu1", "ite"):
            assert served[key].dtype == eager[key].dtype
            np.testing.assert_array_equal(served[key], eager[key])

    @pytest.fixture(scope="class")
    def float32_estimator(self, small_train):
        return _fit(small_train, seed=13, dtype="float32")

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_entry_points_serve_the_eager_forward(
        self, dtype, estimator_v1, float32_estimator, small_ood
    ):
        estimator = estimator_v1 if dtype == "float64" else float32_estimator
        width = small_ood.covariates.shape[1]
        with_nan = small_ood.covariates[:6].astype(np.float64)
        with_nan[1] = np.nan
        with_nan[4, 2] = np.nan
        cases = [np.zeros((0, width)), with_nan, small_ood.covariates[:40]]
        registry = ModelRegistry()
        registry.deploy("m", estimator)
        with ServingFrontend(num_workers=1, max_wait_ms=1.0) as frontend:
            frontend.deploy("m", estimator)
            for covariates in cases:
                eager = self._eager(estimator, covariates)
                assert eager["mu0"].dtype == np.dtype(dtype)
                assert np.isnan(eager["mu0"]).sum() == (2 if covariates is with_nan else 0)
                backbone = estimator.trainer.backbone
                self._assert_equal(backbone.predict(estimator.trainer._transform(covariates)), eager)
                self._assert_equal(estimator.predict_potential_outcomes(covariates), eager)
                self._assert_equal(registry.predict(covariates, model="m"), eager)
                self._assert_equal(frontend.predict(covariates, model="m"), eager)


class TestCoalescing:
    def test_queued_requests_coalesce_into_fused_batches(self, estimator_v1, small_ood):
        # One worker + many concurrent clients: while the worker is busy the
        # batcher must merge the queue into multi-row batches.
        frontend = ServingFrontend(num_workers=1, max_wait_ms=20.0)
        frontend.deploy("m", estimator_v1)
        try:
            block = small_ood.covariates[:64]
            barrier = threading.Barrier(17)

            def client(rows):
                barrier.wait()
                for row in rows:
                    frontend.predict(row, model="m", timeout=30.0)

            threads = [
                threading.Thread(target=client, args=(block[i::16],)) for i in range(16)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            for thread in threads:
                thread.join(timeout=30.0)
            summary = frontend.stats.summary()
        finally:
            frontend.stop()
        assert summary["requests"] == 64
        assert summary["failed_requests"] == 0
        assert summary["batches"] < 64, "no cross-request coalescing happened"
        assert summary["mean_batch_rows"] > 1.0
        histogram = summary["batch_size_histogram"]
        assert sum(int(size) * count for size, count in histogram.items()) == 64

    def test_max_batch_size_caps_fused_rows(self, estimator_v1, small_ood):
        frontend = ServingFrontend(num_workers=1, max_batch_size=4, max_wait_ms=50.0)
        frontend.deploy("m", estimator_v1)
        try:
            futures = [
                frontend.submit(row, model="m") for row in small_ood.covariates[:32]
            ]
            for future in futures:
                future.result(timeout=30.0)
            histogram = frontend.stats.summary()["batch_size_histogram"]
        finally:
            frontend.stop()
        assert max(int(size) for size in histogram) <= 4

    def test_coalesce_false_dispatches_per_request(self, estimator_v1, small_ood):
        frontend = ServingFrontend(num_workers=2, coalesce=False)
        frontend.deploy("m", estimator_v1)
        try:
            futures = [
                frontend.submit(row, model="m") for row in small_ood.covariates[:8]
            ]
            for future in futures:
                future.result(timeout=30.0)
            histogram = frontend.stats.summary()["batch_size_histogram"]
        finally:
            frontend.stop()
        assert histogram == {"1": 8}


class TestHotSwapUnderLoad:
    def test_zero_failed_requests_across_swap_and_rollback(
        self, estimator_v1, estimator_v2, small_ood, tmp_path
    ):
        """The acceptance contract: deploy + rollback under sustained load
        never fails a request, and superseded versions drain completely."""
        path_v2 = estimator_v2.save(tmp_path / "v2")
        frontend = ServingFrontend(num_workers=2, max_wait_ms=1.0)
        v1 = frontend.deploy("m", estimator_v1)
        errors = []
        stop = threading.Event()
        block = small_ood.covariates[:4]

        def hammer():
            while not stop.is_set():
                try:
                    frontend.predict(block, model="m", timeout=30.0)
                except Exception as exc:  # noqa: BLE001 — any failure is a bug
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.2)
            v2 = frontend.deploy("m", path_v2)           # hot swap from artifact
            assert v1.wait_drained(timeout=30.0), "old version never drained"
            time.sleep(0.2)
            restored = frontend.rollback("m")            # and back, still under load
            assert restored is v1
            assert v2.wait_drained(timeout=30.0), "rolled-back version never drained"
            time.sleep(0.2)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            frontend.stop()
        assert errors == []
        summary = frontend.stats.summary()
        assert summary["failed_requests"] == 0
        assert summary["deploys"] == 2 and summary["rollbacks"] == 1
        report = frontend.registry.model_report("m")
        assert [entry["state"] for entry in report] == ["live", "retired"]
        # Both versions actually served traffic during their live windows.
        assert all(entry["stats"]["requests"] > 0 for entry in report)

    def test_undeploy_after_submit_fails_future_not_frontend(
        self, estimator_v1, small_ood
    ):
        # A request whose model vanishes between submit and execution gets a
        # ValueError on its future; the frontend itself keeps running.
        registry = ModelRegistry()
        frontend = ServingFrontend(registry, num_workers=1, max_wait_ms=50.0)
        frontend.deploy("m", estimator_v1)
        try:
            blocker = frontend.submit(small_ood.covariates[:2], model="m")
            blocker.result(timeout=30.0)  # make sure the worker is free again
            future = frontend.submit(small_ood.covariates[:2], model="m")
            registry.undeploy("m")
            try:
                future.result(timeout=30.0)
            except ValueError:
                assert frontend.stats.summary()["failed_requests"] >= 1
        finally:
            frontend.stop()


class TestShutdown:
    def test_stop_drains_submitted_requests(self, estimator_v1, small_ood):
        frontend = ServingFrontend(num_workers=1, max_wait_ms=50.0)
        frontend.deploy("m", estimator_v1)
        futures = [frontend.submit(row, model="m") for row in small_ood.covariates[:16]]
        frontend.stop(drain=True)
        for future in futures:
            assert future.result(timeout=30.0)["ite"].shape == (1,)

    def test_stopped_frontend_rejects_new_requests(self, estimator_v1, small_ood):
        frontend = ServingFrontend(num_workers=1)
        frontend.deploy("m", estimator_v1)
        frontend.stop()
        with pytest.raises(RuntimeError, match="stopped"):
            frontend.submit(small_ood.covariates[:1], model="m")

    def test_stop_is_idempotent_and_context_manager_drains(
        self, estimator_v1, small_ood
    ):
        with ServingFrontend(num_workers=1) as frontend:
            frontend.deploy("m", estimator_v1)
            future = frontend.submit(small_ood.covariates[:1], model="m")
        assert future.result(timeout=30.0)["ite"].shape == (1,)
        frontend.stop()  # second stop is a no-op

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServingFrontend(num_workers=0)
        with pytest.raises(ValueError, match="max_batch_size"):
            ServingFrontend(max_batch_size=0)
        with pytest.raises(ValueError, match="max_wait_ms"):
            ServingFrontend(max_wait_ms=-1.0)
