"""Tests for the drift-aware online serving loop (monitor, refit, rollback)."""

from __future__ import annotations

import copy
import json

import numpy as np
import pytest

from repro.core.config import BackboneConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.diagnostics import INSUFFICIENT_WINDOW
from repro.serve import DriftMonitor, DriftSchedule, OnlineServingLoop, ServingFrontend
from repro.serve.online import (
    concat_datasets,
    drift_stream,
    pehe_against_truth,
)


class TestDriftSchedule:
    def test_recurring_square_wave(self):
        schedule = DriftSchedule(kind="recurring", num_steps=12, amplitude=0.8, period=8)
        weights = schedule.weights()
        assert len(weights) == 12
        assert weights[:4] == (0.0, 0.0, 0.0, 0.0)
        assert weights[4:8] == (0.8, 0.8, 0.8, 0.8)
        assert weights[8:12] == (0.0, 0.0, 0.0, 0.0)
        assert schedule.injected_step == 4

    def test_abrupt_shift(self):
        schedule = DriftSchedule(kind="abrupt", num_steps=6, shift_step=2)
        assert schedule.weights() == (0.0, 0.0, 1.0, 1.0, 1.0, 1.0)
        assert schedule.injected_step == 2

    def test_abrupt_defaults_to_midpoint(self):
        schedule = DriftSchedule(kind="abrupt", num_steps=8)
        assert schedule.injected_step == 4

    def test_ramp_matches_temporal_drift_schedule(self):
        schedule = DriftSchedule(kind="ramp", num_steps=5, amplitude=1.0)
        np.testing.assert_allclose(schedule.weights(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert schedule.injected_step is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "nope"},
            {"num_steps": 1},
            {"amplitude": 1.5},
            {"kind": "recurring", "period": 1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DriftSchedule(**kwargs)


class TestDriftStream:
    @pytest.fixture(scope="class")
    def stream(self):
        schedule = DriftSchedule(kind="abrupt", num_steps=6, shift_step=3)
        return drift_stream(schedule, num_samples=250, batch_rows=64, seed=5)

    def test_shape_and_timestamps(self, stream):
        assert len(stream) == 6
        for step, batch in enumerate(stream):
            assert batch.step == step
            assert batch.timestamp == float(step)
            assert len(batch.dataset) == 64

    def test_flipped_fraction_tracks_weights(self, stream):
        for batch in stream:
            if batch.weight == 0.0:
                assert batch.flipped_fraction == 0.0
            else:
                assert batch.flipped_fraction == 1.0

    def test_unstable_shift_moves_drifted_batches(self, stream):
        unstable = stream[0].dataset.feature_roles["unstable"]
        aligned_mean = stream[0].dataset.covariates[:, unstable].mean()
        drifted_mean = stream[5].dataset.covariates[:, unstable].mean()
        assert drifted_mean - aligned_mean > 0.75

    def test_unstable_shift_preserves_ground_truth_range(self, stream):
        # V affects neither potential outcome, so shifted batches still carry
        # the binary-outcome ground truth of the base protocol.
        drifted = stream[5].dataset
        assert set(np.unique(drifted.mu0)) <= {0.0, 1.0}
        assert set(np.unique(drifted.mu1)) <= {0.0, 1.0}

    def test_deterministic_for_seed(self):
        schedule = DriftSchedule(kind="recurring", num_steps=4, period=2)
        first = drift_stream(schedule, num_samples=250, batch_rows=32, seed=9)
        second = drift_stream(schedule, num_samples=250, batch_rows=32, seed=9)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.dataset.covariates, b.dataset.covariates)

    def test_zero_unstable_shift_disables_marginal_drift(self):
        schedule = DriftSchedule(kind="abrupt", num_steps=2, shift_step=1)
        stream = drift_stream(
            schedule, num_samples=250, batch_rows=64, unstable_shift=0.0, seed=5
        )
        unstable = stream[0].dataset.feature_roles["unstable"]
        delta = abs(
            stream[1].dataset.covariates[:, unstable].mean()
            - stream[0].dataset.covariates[:, unstable].mean()
        )
        assert delta < 0.75

    def test_batch_rows_validation(self):
        with pytest.raises(ValueError, match="batch_rows"):
            drift_stream(DriftSchedule(), batch_rows=0)


class TestDriftMonitor:
    @pytest.fixture()
    def reference(self, rng):
        return rng.normal(size=(400, 6))

    def test_insufficient_until_min_window(self, reference, rng):
        monitor = DriftMonitor(reference, window_size=64, min_window=32)
        monitor.observe(rng.normal(size=(16, 6)))
        check = monitor.check(step=0)
        assert check.status == INSUFFICIENT_WINDOW
        assert not check.triggered
        assert np.isnan(check.domain_auc) and np.isnan(check.moment_score)
        monitor.observe(rng.normal(size=(16, 6)))
        assert monitor.check(step=1).status == DriftMonitor.STATUS_OK

    def test_detects_mean_shift(self, reference, rng):
        monitor = DriftMonitor(reference, window_size=64, min_window=32, auc_threshold=0.75)
        monitor.observe(rng.normal(size=(64, 6)) + 2.0)
        check = monitor.check()
        assert check.status == DriftMonitor.STATUS_DRIFT
        assert check.triggered
        assert check.domain_auc > 0.9
        assert check.moment_score > 0.5

    def test_moment_threshold_triggers_independently(self, reference, rng):
        monitor = DriftMonitor(
            reference, window_size=64, min_window=32, auc_threshold=1.0, moment_threshold=0.5
        )
        monitor.observe(rng.normal(size=(64, 6)) + 2.0)
        assert monitor.check().status == DriftMonitor.STATUS_DRIFT

    def test_window_eviction(self, reference, rng):
        monitor = DriftMonitor(reference, window_size=50, min_window=10)
        for _ in range(4):
            monitor.observe(rng.normal(size=(20, 6)))
        assert monitor.window_rows == 50
        assert monitor.window.shape == (50, 6)

    def test_rebase_swaps_reference(self, reference, rng):
        monitor = DriftMonitor(reference, window_size=64, min_window=32, auc_threshold=0.75)
        shifted = rng.normal(size=(64, 6)) + 2.0
        monitor.observe(shifted)
        assert monitor.check().triggered
        monitor.rebase(rng.normal(size=(200, 6)) + 2.0)
        assert not monitor.check().triggered

    def test_validation(self, reference, rng):
        with pytest.raises(ValueError, match="window_size"):
            DriftMonitor(reference, window_size=0)
        with pytest.raises(ValueError, match="min_window"):
            DriftMonitor(reference, window_size=8, min_window=9)
        with pytest.raises(ValueError, match="auc_threshold"):
            DriftMonitor(reference, auc_threshold=0.4)
        monitor = DriftMonitor(reference)
        with pytest.raises(ValueError, match="features"):
            monitor.observe(rng.normal(size=(4, 7)))

    def test_reference_subsampled(self, rng):
        monitor = DriftMonitor(rng.normal(size=(500, 3)), max_reference=100)
        assert monitor.reference.shape == (100, 3)


class TestHelpers:
    def test_concat_datasets_roundtrip(self, small_train):
        halves = [small_train.subset(np.arange(0, 100)), small_train.subset(np.arange(100, 250))]
        merged = concat_datasets(halves, environment="merged")
        assert len(merged) == 250
        assert merged.environment == "merged"
        np.testing.assert_array_equal(merged.covariates, small_train.covariates)

    def test_concat_requires_input(self):
        with pytest.raises(ValueError):
            concat_datasets([], environment="x")

    def test_pehe_against_truth(self, small_train):
        exact = pehe_against_truth(small_train.true_ite, small_train)
        assert exact == 0.0
        off = pehe_against_truth(small_train.true_ite + 1.0, small_train)
        assert off == pytest.approx(1.0)
        with pytest.raises(ValueError, match="mismatch"):
            pehe_against_truth(np.zeros(3), small_train)


# --------------------------------------------------------------------------- #
# End-to-end loop
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def online_stream():
    schedule = DriftSchedule(kind="recurring", num_steps=8, period=4)
    return drift_stream(schedule, num_samples=300, batch_rows=64, seed=17)


@pytest.fixture(scope="module")
def online_estimator(online_stream):
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
        backbone="tarnet", framework="sbrl-hap", config=config, seed=17
    ).fit(online_stream.train)


def _make_loop(stream, estimator, **overrides):
    monitor = DriftMonitor(
        stream.train,
        window_size=128,
        min_window=48,
        auc_threshold=0.70,
        seed=17,
    )
    frontend = ServingFrontend(num_workers=2, max_wait_ms=1.0)
    kwargs = dict(
        model="m",
        refit_epochs=5,
        refit_window_batches=2,
        cooldown_steps=2,
        request_rows=16,
    )
    kwargs.update(overrides)
    loop = OnlineServingLoop(frontend, estimator, monitor, **kwargs)
    return loop, frontend


class TestOnlineServingLoop:
    def test_drift_triggers_refit_within_window_bound(self, online_stream, online_estimator):
        loop, frontend = _make_loop(online_stream, online_estimator)
        try:
            report = loop.run(online_stream)
        finally:
            frontend.stop()
        injected = online_stream.schedule.injected_step
        first = report.first_trigger_step(after=injected)
        # Window (128 rows) turns over in two 64-row batches.
        assert first is not None and 0 <= first - injected <= 2
        assert report.refits >= 1
        assert report.rollbacks == 0
        # The refit actually went live: a new registry version is serving.
        assert frontend.registry.live("m").version >= 2

    def test_swap_serves_zero_failed_requests(self, online_stream, online_estimator):
        loop, frontend = _make_loop(online_stream, online_estimator)
        try:
            report = loop.run(online_stream)
        finally:
            frontend.stop()
        assert report.failed_requests == 0
        assert frontend.stats.summary()["failed_requests"] == 0
        # Every row of every batch was answered and scored.
        assert all(np.isfinite(record.pehe) for record in report.steps)

    def test_forced_post_swap_regression_rolls_back(self, online_stream, online_estimator):
        loop, frontend = _make_loop(online_stream, online_estimator)
        # Force the post-swap drift score to look catastrophically worse
        # than the trigger score: the loop must undo the swap.
        loop._post_swap_score = lambda window: 2.0
        try:
            report = loop.run(online_stream)
        finally:
            frontend.stop()
        assert report.rollbacks >= 1
        assert report.refits == 0
        assert frontend.stats.summary()["rollbacks"] == report.rollbacks
        # Rollback restored the original version.
        assert frontend.registry.live("m").version == 1
        # The incumbent estimator and monitor reference were kept.
        assert loop.estimator is online_estimator
        assert report.failed_requests == 0

    def test_rollback_event_details(self, online_stream, online_estimator):
        loop, frontend = _make_loop(online_stream, online_estimator)
        loop._post_swap_score = lambda window: 2.0
        try:
            report = loop.run(online_stream)
        finally:
            frontend.stop()
        rollback = next(event for event in report.events if event.kind == "rollback")
        assert rollback.details["post_swap_auc"] == 2.0
        assert rollback.details["restored_version"] == 1
        assert rollback.details["refit_seconds"] > 0

    def test_cooldown_spaces_refits(self, online_stream, online_estimator):
        loop, frontend = _make_loop(online_stream, online_estimator, cooldown_steps=100)
        try:
            report = loop.run(online_stream)
        finally:
            frontend.stop()
        # One refit at most: the cooldown swallows every later trigger.
        assert report.refits + report.rollbacks <= 1

    def test_custom_refit_fn_is_used(self, online_stream, online_estimator):
        calls = []

        def refit_fn(estimator, window):
            calls.append(len(window))
            return estimator

        loop, frontend = _make_loop(online_stream, online_estimator, refit_fn=refit_fn)
        try:
            loop.run(online_stream)
        finally:
            frontend.stop()
        assert calls and all(rows == 128 for rows in calls)

    def test_non_finite_refit_is_rejected_before_deploy(self, online_stream, online_estimator):
        """Fault injection: a refit yielding a NaN parameter never goes live."""

        def refit_fn(estimator, window):
            candidate = copy.deepcopy(estimator)
            next(iter(candidate.trainer.backbone.parameters())).data.flat[0] = np.nan
            return candidate

        probe = online_stream.train.covariates[:32]
        expected = online_estimator.predict_potential_outcomes(probe)
        loop, frontend = _make_loop(online_stream, online_estimator, refit_fn=refit_fn)
        try:
            report = loop.run(online_stream)
            served = frontend.submit(probe, model="m").result()
        finally:
            frontend.stop()
        assert report.rejections >= 1
        assert report.refits == 0 and report.rollbacks == 0
        assert frontend.registry.live("m").version == 1
        assert loop.estimator is online_estimator
        assert report.failed_requests == 0
        assert all(np.isfinite(record.pehe) for record in report.steps)
        for key in ("mu0", "mu1", "ite"):
            np.testing.assert_array_equal(served[key], expected[key])
        rejected = next(event for event in report.events if event.kind == "refit-rejected")
        assert rejected.details["refit_seconds"] > 0
        assert "version" not in rejected.details
        assert any(record.action == "rejected" for record in report.steps)

    def test_report_is_json_serialisable(self, online_stream, online_estimator):
        loop, frontend = _make_loop(online_stream, online_estimator)
        try:
            report = loop.run(online_stream)
        finally:
            frontend.stop()
        payload = json.dumps(report.as_dict())
        assert "steps" in json.loads(payload)

    def test_constructor_validation(self, online_stream, online_estimator):
        monitor = DriftMonitor(online_stream.train)
        frontend = ServingFrontend(num_workers=1)
        try:
            with pytest.raises(ValueError, match="refit_epochs"):
                OnlineServingLoop(frontend, online_estimator, monitor, refit_epochs=0)
            with pytest.raises(ValueError, match="refit_window_batches"):
                OnlineServingLoop(
                    frontend, online_estimator, monitor, refit_window_batches=0
                )
            with pytest.raises(ValueError, match="request_rows"):
                OnlineServingLoop(frontend, online_estimator, monitor, request_rows=0)
        finally:
            frontend.stop()
