"""Unit tests for configuration dataclasses and paper presets."""

from __future__ import annotations

import pytest

from repro.core.config import (
    PAPER_GAMMA_GRID,
    PAPER_PRESETS,
    BackboneConfig,
    RegularizerConfig,
    SBRLConfig,
    TrainingConfig,
    paper_preset,
)


class TestBackboneConfig:
    def test_hidden_sizes_expand(self):
        config = BackboneConfig(rep_layers=3, rep_units=128, head_layers=2, head_units=64)
        assert config.rep_hidden_sizes == (128, 128, 128)
        assert config.head_hidden_sizes == (64, 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackboneConfig(rep_layers=0)
        with pytest.raises(ValueError):
            BackboneConfig(head_units=-1)


class TestRegularizerConfig:
    def test_defaults_nonnegative(self):
        config = RegularizerConfig()
        assert config.alpha >= 0 and config.gamma1 >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            RegularizerConfig(alpha=-1)
        with pytest.raises(ValueError):
            RegularizerConfig(num_rff_features=0)
        # ``nan < 0`` is False, so a sign check alone lets these through.
        for name in ("alpha", "gamma1", "gamma2", "gamma3", "lambda_l2"):
            for value in (float("nan"), float("inf")):
                with pytest.raises(ValueError, match=name):
                    RegularizerConfig(**{name: value})

    def test_negative_max_pairs_per_layer_fails_at_construction(self):
        """A negative pair budget fails here, not at the first weight step."""
        with pytest.raises(ValueError, match="max_pairs_per_layer"):
            RegularizerConfig(max_pairs_per_layer=-3)
        assert RegularizerConfig(max_pairs_per_layer=None).max_pairs_per_layer is None
        assert RegularizerConfig(max_pairs_per_layer=0).max_pairs_per_layer == 0

    def test_unknown_ipm_kind_fails_at_construction(self):
        """A typo must not surface only at the first weight or network step."""
        with pytest.raises(ValueError, match="'mmd_linear', 'mmd_rbf'"):
            RegularizerConfig(ipm_kind="mmd_rfb")
        assert RegularizerConfig(ipm_kind="mmd_rbf").ipm_kind == "mmd_rbf"


class TestTrainingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainingConfig(iterations=0)
        with pytest.raises(ValueError):
            TrainingConfig(learning_rate=0)
        with pytest.raises(ValueError):
            TrainingConfig(weight_update_every=0)
        with pytest.raises(ValueError):
            TrainingConfig(weight_clip=(1.0, 0.5))
        nan, inf = float("nan"), float("inf")
        for name in ("learning_rate", "weight_learning_rate"):
            for value in (nan, inf):
                with pytest.raises(ValueError, match=name):
                    TrainingConfig(**{name: value})
        for clip in ((nan, 10.0), (1e-3, nan), (inf, inf)):
            with pytest.raises(ValueError, match="weight_clip"):
                TrainingConfig(weight_clip=clip)
        assert TrainingConfig(weight_clip=(0.0, inf)).weight_clip == (0.0, inf)
        # Zero raised ZeroDivisionError in the loop; a negative interval added patience.
        for interval in (0, -5):
            with pytest.raises(ValueError, match="evaluation_interval"):
                TrainingConfig(evaluation_interval=interval)
        # A loaded manifest goes through the same checks.
        payload = SBRLConfig().to_dict()
        payload["training"]["learning_rate"] = nan
        with pytest.raises(ValueError, match="learning_rate"):
            SBRLConfig.from_dict(payload)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"lr_schedule_params": {"learning_rate": float("nan")}}, "learning rate"),
            ({"optimizer_params": {"weight_decay": float("nan")}}, "weight_decay"),
            ({"optimizer_params": {"momentm": 0.9}}, "'adam'.*'momentm'"),
            ({"lr_schedule_params": {"decay_sptes": 10}}, "'exponential'.*'decay_sptes'"),
            ({"lr_schedule": "step", "lr_schedule_params": {"step_size": 0}}, "step size"),
            ({"optimizer": "sgd", "optimizer_params": {"momentum": float("nan")}}, "momentum"),
        ],
        ids=["schedule-nan-rate", "nan-weight-decay", "unknown-optimizer-key",
             "unknown-schedule-key", "zero-step-size", "nan-momentum"],
    )
    def test_optimizer_and_schedule_params_fail_at_construction(self, fields, match):
        """Each of these constructed and failed only when a fit built its optimizer."""
        with pytest.raises(ValueError, match=match):
            TrainingConfig(**fields)


class TestPresets:
    def test_all_published_datasets_present(self):
        assert set(PAPER_PRESETS) == {"twins", "ihdp", "syn_8_8_8_2", "syn_16_16_16_2"}

    def test_preset_values_match_table_iv(self):
        twins = paper_preset("twins")
        assert twins.training.learning_rate == pytest.approx(1e-5)
        assert twins.backbone.rep_normalization is True
        assert twins.regularizers.gamma1 == pytest.approx(1.0)
        assert twins.regularizers.gamma3 == pytest.approx(0.1)
        ihdp = paper_preset("ihdp")
        assert ihdp.backbone.rep_units == 256
        assert ihdp.regularizers.alpha == pytest.approx(1.0)

    def test_preset_is_a_copy(self):
        first = paper_preset("ihdp")
        first.regularizers.alpha = 123.0
        second = paper_preset("ihdp")
        assert second.regularizers.alpha != 123.0

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError):
            paper_preset("unknown")

    def test_gamma_grid_matches_paper(self):
        assert set(PAPER_GAMMA_GRID) == {1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0}

    def test_with_overrides(self):
        config = SBRLConfig()
        new_training = TrainingConfig(iterations=5)
        overridden = config.with_overrides(training=new_training)
        assert overridden.training.iterations == 5
        assert config.training.iterations != 5
