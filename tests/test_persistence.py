"""Tests for estimator persistence (save / load round trips)."""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.core.estimator import HTEEstimator
from repro.persistence import (
    ARRAYS_FILENAME,
    FORMAT_VERSION,
    MANIFEST_FILENAME,
    ArtifactError,
    load_estimator,
    read_manifest,
)


@pytest.fixture()
def fitted_sbrl_hap(fast_config, small_train):
    return HTEEstimator(
        backbone="cfr", framework="sbrl-hap", config=fast_config, seed=1
    ).fit(small_train)


class TestRoundTrip:
    def test_binary_sbrl_hap_predictions_bit_identical(
        self, fitted_sbrl_hap, small_ood, tmp_path
    ):
        path = fitted_sbrl_hap.save(tmp_path / "model")
        reloaded = HTEEstimator.load(path)
        assert reloaded.is_fitted
        original = fitted_sbrl_hap.predict_potential_outcomes(small_ood.covariates)
        restored = reloaded.predict_potential_outcomes(small_ood.covariates)
        for key in ("mu0", "mu1", "ite"):
            np.testing.assert_array_equal(original[key], restored[key])

    def test_continuous_vanilla_round_trip(self, fast_config, tiny_continuous_dataset, tmp_path):
        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=fast_config, binary_outcome=False
        ).fit(tiny_continuous_dataset)
        estimator.save(tmp_path / "model")
        reloaded = HTEEstimator.load(tmp_path / "model")
        np.testing.assert_array_equal(
            estimator.predict_ite(tiny_continuous_dataset.covariates),
            reloaded.predict_ite(tiny_continuous_dataset.covariates),
        )
        # The resolved (inferred) outcome type is persisted, not the override.
        assert reloaded.binary_outcome is False
        metrics = reloaded.evaluate(tiny_continuous_dataset)
        assert "f1_factual" not in metrics

    def test_dercfr_alias_round_trip(self, fast_config, small_train, small_ood, tmp_path):
        estimator = HTEEstimator(backbone="der-cfr", framework="sbrl", config=fast_config)
        estimator.fit(small_train)
        estimator.save(tmp_path / "model")
        reloaded = HTEEstimator.load(tmp_path / "model")
        assert reloaded.backbone_name == "dercfr"
        np.testing.assert_array_equal(
            estimator.predict_ite(small_ood.covariates),
            reloaded.predict_ite(small_ood.covariates),
        )

    def test_sample_weights_preserved(self, fitted_sbrl_hap, tmp_path):
        fitted_sbrl_hap.save(tmp_path / "model")
        reloaded = HTEEstimator.load(tmp_path / "model")
        np.testing.assert_array_equal(
            fitted_sbrl_hap.sample_weights(), reloaded.sample_weights()
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sample_weights_keep_their_training_dtype(self, fast_config, small_train, tmp_path, dtype):
        fast_config.training.dtype = dtype
        estimator = HTEEstimator(
            backbone="cfr", framework="sbrl-hap", config=fast_config, seed=1
        ).fit(small_train)
        estimator.save(tmp_path / "model")
        reloaded = HTEEstimator.load(tmp_path / "model")
        assert estimator.sample_weights().dtype == np.dtype(dtype)
        assert reloaded.sample_weights().dtype == np.dtype(dtype)
        assert reloaded.fitted_dtype == estimator.fitted_dtype == np.dtype(dtype)
        np.testing.assert_array_equal(estimator.sample_weights(), reloaded.sample_weights())

    def test_evaluate_works_after_reload(self, fitted_sbrl_hap, small_ood, tmp_path):
        fitted_sbrl_hap.save(tmp_path / "model")
        reloaded = load_estimator(tmp_path / "model")
        assert reloaded.evaluate(small_ood) == fitted_sbrl_hap.evaluate(small_ood)

    def test_config_survives_round_trip(self, fitted_sbrl_hap, tmp_path):
        fitted_sbrl_hap.save(tmp_path / "model")
        reloaded = HTEEstimator.load(tmp_path / "model")
        assert reloaded.config.to_dict() == fitted_sbrl_hap.config.to_dict()
        assert reloaded.config.training.weight_clip == (1e-3, 10.0)


class TestArtifactValidation:
    def test_unfitted_estimator_refuses_to_save(self, fast_config, tmp_path):
        estimator = HTEEstimator(config=fast_config)
        with pytest.raises(RuntimeError, match="fitted"):
            estimator.save(tmp_path / "model")

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="no estimator artifact"):
            HTEEstimator.load(tmp_path / "does-not-exist")

    def test_manifest_records_format_version(self, fitted_sbrl_hap, tmp_path):
        fitted_sbrl_hap.save(tmp_path / "model")
        manifest = read_manifest(tmp_path / "model")
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["estimator"]["backbone"] == "cfr"
        assert manifest["num_features"] == 14

    def test_future_format_version_rejected(self, fitted_sbrl_hap, tmp_path):
        path = fitted_sbrl_hap.save(tmp_path / "model")
        manifest_path = os.path.join(path, MANIFEST_FILENAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format_version"] = FORMAT_VERSION + 1
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="format_version"):
            HTEEstimator.load(path)

    def test_wrong_format_marker_rejected(self, fitted_sbrl_hap, tmp_path):
        path = fitted_sbrl_hap.save(tmp_path / "model")
        manifest_path = os.path.join(path, MANIFEST_FILENAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["format"] = "something-else"
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="not a"):
            HTEEstimator.load(path)

    def test_missing_arrays_file_rejected(self, fitted_sbrl_hap, tmp_path):
        path = fitted_sbrl_hap.save(tmp_path / "model")
        os.remove(os.path.join(path, ARRAYS_FILENAME))
        with pytest.raises(ArtifactError, match=ARRAYS_FILENAME):
            HTEEstimator.load(path)

    @pytest.mark.parametrize(
        "key, edit",
        [
            ("standardize_mean", lambda values: values[:1]),
            ("standardize_std", lambda values: values[:1]),
            ("standardize_mean", lambda values: np.where(np.arange(values.size) == 2, np.nan, values)),
            ("standardize_std", lambda values: np.where(np.arange(values.size) == 2, np.inf, values)),
            ("standardize_std", lambda values: np.where(np.arange(values.size) == 2, 0.0, values)),
            ("standardize_std", lambda values: -values),
            ("standardize_std", None),
            ("sample_weights", lambda values: values.reshape(1, -1)),
            ("sample_weights", lambda values: np.where(np.arange(values.size) == 0, np.nan, values)),
            ("sample_weights", lambda values: np.where(np.arange(values.size) == 0, -1.0, values)),
        ],
        ids=[
            "mean-shape", "std-shape", "mean-nan", "std-inf", "std-zero",
            "std-negative", "std-missing", "weights-2d", "weights-nan", "weights-negative",
        ],
    )
    def test_invalid_arrays_rejected(self, fitted_sbrl_hap, tmp_path, key, edit):
        """Each of these loaded and then predicted wrong or non-finite values."""
        path = fitted_sbrl_hap.save(tmp_path / "model")
        arrays_path = os.path.join(path, ARRAYS_FILENAME)
        with np.load(arrays_path) as arrays:
            contents = {name: arrays[name] for name in arrays.files}
        if edit is None:
            del contents[key]
        else:
            contents[key] = edit(contents[key])
        np.savez(arrays_path, **contents)
        with pytest.raises(ArtifactError, match=key):
            HTEEstimator.load(path)

    def test_invalid_config_rejected(self, fitted_sbrl_hap, tmp_path):
        path = fitted_sbrl_hap.save(tmp_path / "model")
        manifest_path = os.path.join(path, MANIFEST_FILENAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["config"]["training"]["learning_rate"] = float("nan")
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match="learning_rate"):
            HTEEstimator.load(path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"lr_schedule_params": {"learning_rate": float("nan")}}, "learning rate"),
            ({"optimizer_params": {"weight_decay": float("nan")}}, "weight_decay"),
            ({"optimizer_params": {"momentm": 0.9}}, "momentm"),
            ({"lr_schedule": "step", "lr_schedule_params": {"step_size": 0}}, "step size"),
        ],
        ids=["schedule-nan-rate", "nan-weight-decay", "unknown-optimizer-key", "zero-step-size"],
    )
    def test_invalid_optimizer_or_schedule_params_rejected(
        self, fitted_sbrl_hap, tmp_path, fields, match
    ):
        """Each of these loaded and served, and failed only at the first refit."""
        path = fitted_sbrl_hap.save(tmp_path / "model")
        manifest_path = os.path.join(path, MANIFEST_FILENAME)
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["config"]["training"].update(fields)
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(ArtifactError, match=match):
            HTEEstimator.load(path)


class TestEstimatorProtocol:
    def test_get_params_round_trips_through_constructor(self, fast_config):
        estimator = HTEEstimator(
            backbone="tarnet", framework="sbrl", config=fast_config, seed=9, use_balance=False
        )
        twin = HTEEstimator(**estimator.get_params(deep=False))
        assert twin.backbone_name == "tarnet"
        assert twin.framework == "sbrl"
        assert twin.seed == 9
        assert twin.use_balance is False

    def test_deep_params_expose_nested_keys(self, fast_config):
        estimator = HTEEstimator(config=fast_config)
        params = estimator.get_params(deep=True)
        assert params["config__training__iterations"] == fast_config.training.iterations
        assert params["config__backbone__rep_units"] == fast_config.backbone.rep_units

    def test_set_params_nested_keys(self, fast_config):
        estimator = HTEEstimator(config=fast_config)
        estimator.set_params(config__training__learning_rate=0.5, seed=11)
        assert estimator.config.training.learning_rate == 0.5
        assert estimator.seed == 11
        with pytest.raises(ValueError, match="no attribute"):
            estimator.set_params(config__training__bogus=1)
        with pytest.raises(ValueError, match="config__"):
            estimator.set_params(training__learning_rate=0.5)

    def test_get_params_deep_copies_config(self, fast_config):
        estimator = HTEEstimator(config=fast_config)
        params = estimator.get_params(deep=True)
        params["config"].training.iterations = 1
        assert estimator.config.training.iterations != 1

    def test_clone_is_unfitted_with_same_params(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config)
        estimator.fit(small_train)
        clone = estimator.clone()
        assert not clone.is_fitted
        assert clone.name == estimator.name
        assert clone.get_params(deep=False)["seed"] == estimator.seed

    def test_clone_refits_identically(self, fast_config, small_train, small_ood):
        estimator = HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config, seed=4)
        estimator.fit(small_train)
        refit = estimator.clone().fit(small_train)
        np.testing.assert_allclose(
            estimator.predict_ite(small_ood.covariates),
            refit.predict_ite(small_ood.covariates),
        )

    def test_set_params_validates_names_and_values(self, fast_config):
        estimator = HTEEstimator(config=fast_config)
        with pytest.raises(ValueError, match="invalid parameters"):
            estimator.set_params(nonsense=1)
        with pytest.raises(ValueError, match="unknown backbone"):
            estimator.set_params(backbone="resnet")
        estimator.set_params(backbone="der-cfr", framework="vanilla", seed=3)
        assert estimator.backbone_name == "dercfr"
        assert estimator.name == "DeR-CFR"
        assert estimator.seed == 3

    def test_trainer_public_is_fitted(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="tarnet", framework="vanilla", config=fast_config)
        assert not estimator.is_fitted
        estimator.fit(small_train)
        assert estimator.trainer.is_fitted
        assert estimator.is_fitted
