"""Unit tests for the HTEEstimator public facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import HTEEstimator


class TestConstruction:
    def test_invalid_framework(self):
        with pytest.raises(ValueError):
            HTEEstimator(framework="nope")

    def test_invalid_backbone_rejected_at_construction(self, fast_config):
        with pytest.raises(ValueError, match="unknown backbone"):
            HTEEstimator(backbone="unknown", config=fast_config)

    def test_backbone_alias_resolves(self, fast_config):
        estimator = HTEEstimator(backbone="der-cfr", config=fast_config)
        assert estimator.backbone_name == "dercfr"
        assert estimator.name == "DeR-CFR+SBRL-HAP"

    def test_name_composition(self, fast_config):
        assert HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config).name == "CFR"
        assert (
            HTEEstimator(backbone="dercfr", framework="sbrl-hap", config=fast_config).name
            == "DeR-CFR+SBRL-HAP"
        )

    def test_is_fitted_flag(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="tarnet", framework="vanilla", config=fast_config)
        assert not estimator.is_fitted
        estimator.fit(small_train)
        assert estimator.is_fitted


class TestFitPredictEvaluate:
    def test_end_to_end_binary(self, fast_config, small_train, small_ood):
        estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=fast_config, seed=1)
        estimator.fit(small_train)
        ite = estimator.predict_ite(small_ood.covariates)
        assert ite.shape == (len(small_ood),)
        outcomes = estimator.predict_potential_outcomes(small_ood.covariates)
        np.testing.assert_allclose(ite, outcomes["mu1"] - outcomes["mu0"])
        ate = estimator.predict_ate(small_ood.covariates)
        assert -1.0 <= ate <= 1.0
        metrics = estimator.evaluate(small_ood)
        assert metrics["pehe"] >= 0

    def test_unfitted_prediction_raises(self, fast_config, small_ood):
        estimator = HTEEstimator(config=fast_config)
        with pytest.raises(RuntimeError):
            estimator.predict_ite(small_ood.covariates)

    def test_sample_weights_none_for_vanilla(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config)
        estimator.fit(small_train)
        assert estimator.sample_weights() is None

    def test_sample_weights_available_for_sbrl(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="cfr", framework="sbrl", config=fast_config)
        estimator.fit(small_train)
        weights = estimator.sample_weights()
        assert weights is not None and len(weights) == len(small_train)

    def test_training_history_exposed(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="tarnet", framework="vanilla", config=fast_config)
        estimator.fit(small_train)
        history = estimator.training_history()
        assert len(history.network_loss) > 0

    def test_representations(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config)
        estimator.fit(small_train)
        representation = estimator.representations(small_train.covariates)
        assert representation.shape[0] == len(small_train)

    def test_binary_outcome_override(self, fast_config, tiny_continuous_dataset):
        # Forcing binary handling on a continuous dataset still runs (the
        # facade trusts the caller), demonstrating the override plumbing.
        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=fast_config, binary_outcome=False
        )
        estimator.fit(tiny_continuous_dataset)
        metrics = estimator.evaluate(tiny_continuous_dataset)
        assert "f1_factual" not in metrics

    def test_seed_controls_initialisation(self, fast_config, small_train, small_ood):
        first = HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config, seed=1)
        second = HTEEstimator(backbone="cfr", framework="vanilla", config=fast_config, seed=1)
        first.fit(small_train)
        second.fit(small_train)
        np.testing.assert_allclose(
            first.predict_ite(small_ood.covariates), second.predict_ite(small_ood.covariates)
        )


class TestCovariateCheck:
    """predict, representations and evaluate coerce covariates as serving does."""

    @pytest.fixture(scope="class", params=["tarnet", "cfr", "dercfr"])
    def fitted(self, request, small_train):
        from repro.core.config import BackboneConfig, SBRLConfig, TrainingConfig

        config = SBRLConfig(
            backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6),
            training=TrainingConfig(iterations=3, early_stopping_patience=None, seed=0),
        )
        return HTEEstimator(
            backbone=request.param, framework="vanilla", config=config, seed=1
        ).fit(small_train)

    def test_one_dimensional_row_is_one_unit(self, fitted, small_ood):
        row = small_ood.covariates[3]
        outcomes = fitted.predict_potential_outcomes(row)
        expected = fitted.predict_potential_outcomes(small_ood.covariates[3:4])
        for key in ("mu0", "mu1", "ite"):
            assert outcomes[key].shape == (1,)
            np.testing.assert_array_equal(outcomes[key], expected[key])
        representation = fitted.representations(row)
        assert representation.shape == (1, fitted.representations(small_ood.covariates[:1]).shape[1])

    def test_wrong_width_names_both_widths(self, fitted, small_ood):
        width = small_ood.covariates.shape[1]
        for call in (fitted.predict_potential_outcomes, fitted.representations):
            with pytest.raises(ValueError) as excinfo:
                call(np.zeros((3, width + 1)))
            message = str(excinfo.value)
            assert f"feature dimension {width + 1}" in message
            assert f"feature dimension {width}" in message

    def test_other_ranks_are_rejected(self, fitted, small_ood):
        width = small_ood.covariates.shape[1]
        for bad in (np.zeros((2, 2, width)), np.float64(1.0)):
            with pytest.raises(ValueError, match="1-D or 2-D"):
                fitted.predict_potential_outcomes(bad)

    def test_evaluate_runs_the_same_check(self, fitted, small_ood):
        from dataclasses import replace

        narrow = replace(small_ood, covariates=small_ood.covariates[:, :-1])
        with pytest.raises(ValueError, match="feature dimension"):
            fitted.evaluate(narrow)


class TestRefit:
    def test_refit_requires_fitted_for_warm_start(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="tarnet", config=fast_config)
        with pytest.raises(RuntimeError):
            estimator.refit(small_train, init="fitted", epochs=5)

    def test_warm_refit_moves_parameters(self, fast_config, small_train, small_ood):
        estimator = HTEEstimator(backbone="tarnet", config=fast_config, seed=0)
        estimator.fit(small_train)
        before = estimator.predict_ite(small_ood.covariates).copy()
        estimator.refit(small_ood, init="fitted", epochs=5)
        after = estimator.predict_ite(small_ood.covariates)
        assert estimator.is_fitted
        assert not np.allclose(before, after)

    def test_cold_refit_matches_fresh_fit(self, fast_config, small_train, small_ood):
        refitted = HTEEstimator(backbone="tarnet", config=fast_config, seed=3)
        refitted.fit(small_ood)
        refitted.refit(small_train, init="fresh")
        fresh = HTEEstimator(backbone="tarnet", config=fast_config, seed=3)
        fresh.fit(small_train)
        np.testing.assert_allclose(
            refitted.predict_ite(small_ood.covariates),
            fresh.predict_ite(small_ood.covariates),
        )

    def test_refit_validates_init(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="tarnet", config=fast_config)
        estimator.fit(small_train)
        with pytest.raises(ValueError, match="init"):
            estimator.refit(small_train, init="nope")

    def test_warm_refit_rejects_feature_mismatch(
        self, fast_config, small_train, tiny_continuous_dataset
    ):
        estimator = HTEEstimator(backbone="tarnet", config=fast_config)
        estimator.fit(small_train)
        with pytest.raises(ValueError, match="features"):
            estimator.refit(tiny_continuous_dataset, init="fitted", epochs=5)

    def test_refit_validates_epochs(self, fast_config, small_train):
        estimator = HTEEstimator(backbone="tarnet", config=fast_config)
        estimator.fit(small_train)
        with pytest.raises(ValueError, match="epochs"):
            estimator.refit(small_train, init="fitted", epochs=0)

    def test_deepcopy_isolates_refit(self, fast_config, small_train, small_ood):
        import copy

        original = HTEEstimator(backbone="tarnet", config=fast_config, seed=0)
        original.fit(small_train)
        before = original.predict_ite(small_ood.covariates).copy()
        candidate = copy.deepcopy(original)
        candidate.refit(small_ood, init="fitted", epochs=5)
        np.testing.assert_array_equal(original.predict_ite(small_ood.covariates), before)
