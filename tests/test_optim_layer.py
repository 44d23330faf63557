"""Integration tests for the optimizer/schedule layer.

Covers the config-driven selection end to end: TrainingConfig validation
with did-you-mean errors, replay-vs-eager bitwise parity for every
registered optimizer, the learning rate surfaced in IterationRecord and EMA
snapshots (identity, checkpoint wiring, persistence round-trip).
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.loop import Callback, EMACallback
from repro.core.sbrl import build_training_optimizer
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.nn.modules import Linear
from repro.nn.optim import (
    SGD,
    Adam,
    AdamW,
    ConstantSchedule,
    CosineDecay,
    ExponentialDecay,
    RMSprop,
    StepDecay,
    WarmupSchedule,
)
from repro.registry import UnknownComponentError


def _config(iterations=12, **overrides):
    training = dict(
        iterations=iterations,
        learning_rate=1e-2,
        weight_update_every=5,
        weight_steps_per_iteration=1,
        evaluation_interval=5,
        early_stopping_patience=None,
        seed=0,
    )
    training.update(overrides)
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(
            alpha=1e-2,
            gamma1=1.0,
            gamma2=1e-2,
            gamma3=1e-2,
            max_pairs_per_layer=6,
            subsample_threshold=256,
            num_anchors=32,
        ),
        training=TrainingConfig(**training),
    )


@pytest.fixture(scope="module")
def protocol():
    generator = SyntheticGenerator(
        SyntheticConfig(
            num_instruments=4, num_confounders=4, num_adjustments=4, num_unstable=2, seed=11
        )
    )
    return generator.generate_train_test_protocol(
        num_samples=200, train_rho=2.5, test_rhos=(2.5,), seed=11
    )


#: (id, TrainingConfig overrides) — one per registered optimizer, plus
#: schedule variety so the replay parity also exercises each schedule.
OPTIMIZER_VARIANTS = [
    ("adam-exponential", dict(optimizer="adam", lr_schedule="exponential")),
    (
        "adamw-cosine",
        dict(
            optimizer="adamw",
            optimizer_params={"weight_decay": 1e-3},
            lr_schedule="cosine",
        ),
    ),
    ("rmsprop-step", dict(optimizer="rmsprop", lr_schedule="step")),
    (
        "sgd-momentum-warmup",
        dict(
            optimizer="sgd",
            optimizer_params={"momentum": 0.9},
            lr_schedule="cosine",
            lr_warmup_steps=3,
        ),
    ),
    (
        "adam-weight-decay-constant",
        dict(
            optimizer="adam",
            optimizer_params={"weight_decay": 1e-3},
            lr_schedule="constant",
        ),
    ),
]


class TestTrainingConfigValidation:
    def test_unknown_optimizer_fails_at_construction(self):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            TrainingConfig(optimizer="adamm")

    def test_unknown_schedule_fails_at_construction(self):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            TrainingConfig(lr_schedule="cosin")

    def test_aliases_accepted(self):
        TrainingConfig(optimizer="momentum", lr_schedule="cosine-annealing")

    def test_forbidden_optimizer_params(self):
        for forbidden in ("lr", "schedule", "learning_rate"):
            with pytest.raises(ValueError, match="optimizer_params"):
                TrainingConfig(optimizer_params={forbidden: 0.1})

    def test_ema_decay_bounds(self):
        TrainingConfig(ema_decay=0.99)
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                TrainingConfig(ema_decay=bad)

    def test_warmup_steps_non_negative(self):
        with pytest.raises(ValueError):
            TrainingConfig(lr_warmup_steps=-1)

    def test_round_trips_through_dict(self):
        config = _config(
            optimizer="adamw",
            optimizer_params={"weight_decay": 1e-4},
            lr_schedule="cosine",
            lr_schedule_params={"min_lr": 1e-5},
            lr_warmup_steps=5,
            ema_decay=0.98,
        )
        rebuilt = SBRLConfig.from_dict(config.to_dict())
        assert rebuilt == config


class TestBuildTrainingOptimizer:
    def _params(self):
        return [t for t in Linear(3, 2, rng=np.random.default_rng(0)).parameters()]

    def test_default_is_adam_exponential(self):
        cfg = TrainingConfig()
        optimizer = build_training_optimizer(self._params(), cfg)
        assert type(optimizer) is Adam
        assert isinstance(optimizer.schedule, ExponentialDecay)
        assert optimizer.schedule.learning_rate == cfg.learning_rate
        assert optimizer.schedule.decay_rate == cfg.lr_decay_rate
        assert optimizer.schedule.decay_steps == cfg.lr_decay_steps

    def test_each_schedule_reuses_legacy_fields(self):
        step_cfg = TrainingConfig(lr_schedule="step", lr_decay_rate=0.5, lr_decay_steps=25)
        schedule = build_training_optimizer(self._params(), step_cfg).schedule
        assert isinstance(schedule, StepDecay)
        assert schedule.drop_rate == 0.5 and schedule.step_size == 25

        cosine_cfg = TrainingConfig(lr_schedule="cosine", iterations=77)
        schedule = build_training_optimizer(self._params(), cosine_cfg).schedule
        assert isinstance(schedule, CosineDecay)
        assert schedule.total_steps == 77

        constant_cfg = TrainingConfig(lr_schedule="constant", learning_rate=0.3)
        schedule = build_training_optimizer(self._params(), constant_cfg).schedule
        assert isinstance(schedule, ConstantSchedule)
        assert schedule.learning_rate == 0.3

    def test_schedule_params_override_defaults(self):
        cfg = TrainingConfig(
            lr_schedule="cosine", iterations=100, lr_schedule_params={"total_steps": 10}
        )
        schedule = build_training_optimizer(self._params(), cfg).schedule
        assert schedule.total_steps == 10

    def test_warmup_wraps_and_optimizer_params_forward(self):
        cfg = TrainingConfig(
            optimizer="sgd",
            optimizer_params={"momentum": 0.8},
            lr_warmup_steps=4,
        )
        optimizer = build_training_optimizer(self._params(), cfg)
        assert type(optimizer) is SGD and optimizer.momentum == 0.8
        assert isinstance(optimizer.schedule, WarmupSchedule)
        assert optimizer.schedule.warmup_steps == 4
        assert isinstance(optimizer.schedule.schedule, ExponentialDecay)

    def test_optimizer_classes_resolve(self):
        for name, cls in (("adamw", AdamW), ("rmsprop", RMSprop)):
            optimizer = build_training_optimizer(self._params(), TrainingConfig(optimizer=name))
            assert type(optimizer) is cls


class TestReplayParityPerOptimizer:
    @pytest.mark.parametrize(
        "overrides", [o for _, o in OPTIMIZER_VARIANTS], ids=[i for i, _ in OPTIMIZER_VARIANTS]
    )
    def test_replay_equals_eager(self, protocol, overrides):
        """graph_replay='auto' is bit-identical to eager for every optimizer."""

        def fit(graph_replay):
            estimator = HTEEstimator(
                backbone="cfr",
                framework="sbrl-hap",
                config=_config(graph_replay=graph_replay, **overrides),
                seed=11,
            )
            estimator.fit(protocol["train"])
            return estimator

        replayed = fit("auto")
        eager = fit("off")
        assert eager.trainer._replay is None
        assert replayed.trainer._replay.stats["hits"] > 0
        for rho, dataset in protocol["test_environments"].items():
            assert replayed.evaluate(dataset) == eager.evaluate(dataset), f"rho={rho}"
        history_replayed = replayed.training_history().as_dict()
        history_eager = eager.training_history().as_dict()
        assert history_replayed["network_loss"] == history_eager["network_loss"]
        assert history_replayed["validation_loss"] == history_eager["validation_loss"]


class TestLearningRateSurfacing:
    def _lr_trace(self, protocol, **overrides):
        records = []

        class Collect(Callback):
            def on_iteration_end(self, loop, record):
                records.append(record)

        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=_config(**overrides), seed=11
        )
        estimator.build_trainer(protocol["train"]).fit(protocol["train"], callbacks=[Collect()])
        return records

    def test_records_carry_schedule_lrs(self, protocol):
        records = self._lr_trace(protocol)
        cfg = _config().training
        expected = ExponentialDecay(cfg.learning_rate, cfg.lr_decay_rate, cfg.lr_decay_steps)
        assert [record.lr for record in records] == [
            expected(step) for step in range(len(records))
        ]

    def test_warmup_scales_early_lrs(self, protocol):
        records = self._lr_trace(
            protocol, lr_schedule="constant", lr_warmup_steps=4, learning_rate=0.01
        )
        lrs = [record.lr for record in records]
        assert lrs[:4] == [0.01 * (i + 1) / 4 for i in range(4)]
        assert all(lr == 0.01 for lr in lrs[4:])


class TestEMA:
    def test_constant_parameters_are_identity(self):
        """EMA of unchanging parameters equals them bit for bit (delta form)."""
        module = Linear(4, 3, rng=np.random.default_rng(3))
        ema = EMACallback(decay=0.97)
        ema.attach(module)
        for _ in range(25):
            ema.update()
        live = module.state_dict()
        shadow = ema.state_dict()
        for name in live:
            np.testing.assert_array_equal(shadow[name], live[name])

    def test_shadow_trails_moving_parameters(self):
        module = Linear(2, 2, rng=np.random.default_rng(4))
        ema = EMACallback(decay=0.9)
        ema.attach(module)
        target = {name: values + 1.0 for name, values in module.state_dict().items()}
        module.load_state_dict(target)
        ema.update()
        for name, values in ema.state_dict().items():
            np.testing.assert_allclose(values, target[name] - 1.0 + 0.1)

    def test_requires_attach(self):
        with pytest.raises(RuntimeError):
            EMACallback(decay=0.9).state_dict()
        with pytest.raises(ValueError):
            EMACallback(decay=1.0)

    def test_fit_with_ema_marks_weights_kind(self, protocol):
        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=_config(ema_decay=0.95), seed=11
        )
        estimator.fit(protocol["train"])
        assert estimator.weights_kind == "ema"
        plain = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=_config(), seed=11
        )
        plain.fit(protocol["train"])
        assert plain.weights_kind == "live"

    def test_ema_weights_differ_from_live_fit(self, protocol):
        def fit(**overrides):
            estimator = HTEEstimator(
                backbone="tarnet", framework="vanilla", config=_config(**overrides), seed=11
            )
            estimator.fit(protocol["train"])
            return estimator.trainer.backbone.state_dict()

        live = fit()
        averaged = fit(ema_decay=0.9)
        assert any(
            not np.array_equal(live[name], averaged[name]) for name in live
        ), "EMA snapshot unexpectedly equals the live weights"

    def test_save_load_round_trips_ema_weights_bitwise(self, protocol, tmp_path):
        from repro.persistence import read_manifest

        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=_config(ema_decay=0.95), seed=11
        )
        estimator.fit(protocol["train"])
        path = estimator.save(tmp_path / "artifact")
        manifest = read_manifest(path)
        assert manifest["weights"] == "ema"

        reloaded = HTEEstimator.load(path)
        assert reloaded.weights_kind == "ema"
        saved_state = estimator.trainer.backbone.state_dict()
        for name, values in reloaded.trainer.backbone.state_dict().items():
            np.testing.assert_array_equal(values, saved_state[name])
        test = next(iter(protocol["test_environments"].values()))
        assert reloaded.evaluate(test) == estimator.evaluate(test)

    def test_manifest_records_live_weights_by_default(self, protocol, tmp_path):
        from repro.persistence import read_manifest

        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=_config(), seed=11
        )
        estimator.fit(protocol["train"])
        path = estimator.save(tmp_path / "artifact")
        assert read_manifest(path)["weights"] == "live"
        assert HTEEstimator.load(path).weights_kind == "live"


class TestBenchmarkSection:
    def test_optimizer_section_schema_and_target(self):
        from repro.experiments.training_benchmark import OPTIMIZER_COMBOS, _optimizer_section

        section = _optimizer_section(num_samples=120, iterations=10, seed=3)
        assert section["baseline"] == "adam+exponential"
        assert len(section["combos"]) == len(OPTIMIZER_COMBOS)
        assert section["seconds"] > 0
        baseline = section["combos"][0]
        assert baseline["optimizer"] == "adam"
        # The baseline always reaches its own final-PEHE-derived target.
        assert baseline["steps_to_target"] is not None
        for combo in section["combos"]:
            assert set(combo) >= {
                "optimizer",
                "schedule",
                "learning_rate",
                "seconds",
                "final_pehe",
                "best_pehe",
                "steps_to_target",
                "improves_on_baseline",
                "trace",
            }
            if combo["steps_to_target"] is not None:
                assert combo["steps_to_target"] <= section["iterations"]
