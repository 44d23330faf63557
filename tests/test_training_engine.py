"""Tests for the minibatch training engine and parallel experiment execution.

Covers the PR-2 engine guarantees:

* ``batch_size=None`` reproduces the pre-refactor full-batch loop
  bit-for-bit (checked against an inline replica of the original
  ``SBRLTrainer.fit`` implementation);
* minibatch training is deterministic, updates the global weight vector
  through batch index slicing and keeps the weights inside the clip range;
* the training-side regularizers subsample above the configured threshold
  without losing differentiability;
* ``run_methods`` runs in process, and the scheduler's one worker pool
  rejects an invalid ``n_jobs``.
"""

from __future__ import annotations

import logging

import numpy as np
import pytest

import repro.core.sbrl as sbrl_module
from repro.core.backbones import CFR
from repro.core.config import SBRLConfig, TrainingConfig
from repro.core.loop import Callback
from repro.core.regularizers import BalancingRegularizer, IndependenceRegularizer
from repro.core.sbrl import FRAMEWORK_REGISTRY, SBRLTrainer
from repro.core.weights import SampleWeights
from repro.experiments.runner import (
    MethodSpec,
    run_method,
    run_methods,
    run_replications,
    spawn_replication_seeds,
)
from repro.experiments.scheduler import plan_units, run_cross_cell
from repro.nn.tensor import Tensor, as_tensor, no_grad
from repro.nn.optim import Adam, ExponentialDecay


def _make_backbone(config: SBRLConfig, num_features: int) -> CFR:
    return CFR(
        num_features,
        config=config.backbone,
        regularizers=config.regularizers,
        rng=np.random.default_rng(0),
    )


def _reference_full_batch_fit(backbone, framework, config, train, validation=None):
    """Inline replica of the pre-refactor (seed) ``SBRLTrainer.fit`` loop.

    Kept verbatim-in-spirit so the callback/loop refactor can be checked
    against the original full-batch numerics, not merely against itself.
    """
    from repro.core.backbones.base import BackboneForward

    cfg = config.training
    spec = FRAMEWORK_REGISTRY.get(framework)
    weight_objective = spec.build_weight_objective(config)

    train_std, mean, std = train.standardize()
    val_std = validation.standardize(mean, std)[0] if validation is not None else None
    covariates, treatment, outcome = (
        train_std.covariates,
        train_std.treatment,
        train_std.outcome,
    )

    schedule = ExponentialDecay(cfg.learning_rate, cfg.lr_decay_rate, cfg.lr_decay_steps)
    optimizer = Adam(backbone.parameters(), schedule=schedule)
    uses_weights = spec.uses_weights and weight_objective is not None
    sample_weights = (
        SampleWeights(len(train_std), learning_rate=cfg.weight_learning_rate, clip=cfg.weight_clip)
        if uses_weights
        else None
    )

    history = {"iterations": [], "network_loss": [], "weight_loss": [], "validation_loss": []}
    best_state, best_loss = None, np.inf
    patience_left = cfg.early_stopping_patience

    for iteration in range(cfg.iterations):
        weights_constant = as_tensor(sample_weights.numpy()) if uses_weights else None
        forward = backbone.forward(covariates, treatment)
        loss = backbone.network_loss(forward, treatment, outcome, weights_constant)
        backbone.zero_grad()
        loss.backward()
        optimizer.step()

        weight_loss_value = float("nan")
        if uses_weights and iteration % cfg.weight_update_every == 0:
            with no_grad():
                fwd = backbone.forward(covariates, treatment)
            constant = BackboneForward(
                mu0=fwd.mu0.detach(),
                mu1=fwd.mu1.detach(),
                representation=fwd.representation.detach(),
                last_layer=fwd.last_layer.detach(),
                other_layers=[layer.detach() for layer in fwd.other_layers],
                extra={key: value.detach() for key, value in fwd.extra.items()},
            )
            for _ in range(cfg.weight_steps_per_iteration):
                weight_loss = (
                    weight_objective(constant, treatment, sample_weights.tensor)
                    + sample_weights.anchor_penalty()
                )
                sample_weights.zero_grad()
                weight_loss.backward()
                sample_weights.step()
                weight_loss_value = weight_loss.item()

        if iteration % cfg.evaluation_interval == 0 or iteration == cfg.iterations - 1:
            if val_std is not None:
                with no_grad():
                    val_forward = backbone.forward(val_std.covariates, val_std.treatment)
                    validation_loss = backbone.factual_loss(
                        val_forward, val_std.treatment, val_std.outcome
                    ).item()
            else:
                validation_loss = loss.item()
            history["iterations"].append(iteration)
            history["network_loss"].append(loss.item())
            history["weight_loss"].append(weight_loss_value)
            history["validation_loss"].append(validation_loss)
            if validation_loss < best_loss - 1e-9:
                best_loss = validation_loss
                best_state = backbone.state_dict()
                patience_left = cfg.early_stopping_patience
            elif cfg.early_stopping_patience is not None:
                patience_left = (patience_left or 0) - cfg.evaluation_interval
                if patience_left <= 0:
                    break

    if best_state is not None:
        backbone.load_state_dict(best_state)
    return history, sample_weights


class TestFullBatchEquivalence:
    @pytest.mark.parametrize("with_validation", [False, True])
    def test_refactored_loop_matches_seed_implementation(
        self, fast_config, small_train, small_ood, with_validation
    ):
        validation = small_ood if with_validation else None
        config = fast_config
        config.training.early_stopping_patience = 10 if with_validation else None

        backbone = _make_backbone(config, small_train.num_features)
        trainer = SBRLTrainer(backbone, framework="sbrl-hap", config=config)
        history = trainer.fit(small_train, validation)

        reference_backbone = _make_backbone(config, small_train.num_features)
        reference_history, reference_weights = _reference_full_batch_fit(
            reference_backbone, "sbrl-hap", config, small_train, validation
        )

        assert history.iterations == reference_history["iterations"]
        np.testing.assert_array_equal(history.network_loss, reference_history["network_loss"])
        np.testing.assert_array_equal(
            history.validation_loss, reference_history["validation_loss"]
        )
        np.testing.assert_array_equal(
            trainer.sample_weights.numpy(), reference_weights.numpy()
        )
        for key, value in trainer.backbone.state_dict().items():
            np.testing.assert_array_equal(value, reference_backbone.state_dict()[key])

    def test_default_config_is_full_batch(self):
        assert TrainingConfig().batch_size is None


class TestMinibatchTraining:
    def _config(self, fast_config, batch_size):
        config = fast_config
        config.training.batch_size = batch_size
        return config

    def test_minibatch_is_deterministic(self, fast_config, small_train):
        config = self._config(fast_config, 64)
        runs = []
        for _ in range(2):
            backbone = _make_backbone(config, small_train.num_features)
            trainer = SBRLTrainer(backbone, framework="sbrl-hap", config=config)
            history = trainer.fit(small_train)
            runs.append((history.network_loss, trainer.sample_weights.numpy()))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        np.testing.assert_array_equal(runs[0][1], runs[1][1])

    def test_minibatch_updates_global_weight_vector(self, fast_config, small_train):
        config = self._config(fast_config, 64)
        backbone = _make_backbone(config, small_train.num_features)
        trainer = SBRLTrainer(backbone, framework="sbrl-hap", config=config)
        trainer.fit(small_train)
        weights = trainer.sample_weights.numpy()
        assert len(weights) == len(small_train)
        assert np.any(np.abs(weights - 1.0) > 1e-6)
        assert np.all(weights >= config.training.weight_clip[0])
        assert np.all(weights <= config.training.weight_clip[1])

    def test_minibatch_trains_and_predicts(self, fast_config, small_train, small_ood):
        config = self._config(fast_config, 64)
        config.training.iterations = 60
        backbone = _make_backbone(config, small_train.num_features)
        trainer = SBRLTrainer(backbone, framework="sbrl-hap", config=config)
        history = trainer.fit(small_train)
        assert history.network_loss[-1] < history.network_loss[0]
        metrics = trainer.evaluate(small_ood)
        assert np.isfinite(metrics["pehe"])

    def test_extra_callback_is_invoked(self, fast_config, small_train):
        config = self._config(fast_config, None)

        class Counter(Callback):
            def __init__(self):
                self.iterations = 0
                self.evaluations = 0
                self.ended = False

            def on_iteration_end(self, loop, record):
                self.iterations += 1

            def on_evaluation(self, loop, record):
                self.evaluations += 1

            def on_train_end(self, loop):
                self.ended = True

        counter = Counter()
        backbone = _make_backbone(config, small_train.num_features)
        trainer = SBRLTrainer(backbone, framework="vanilla", config=config)
        trainer.fit(small_train, callbacks=[counter])
        assert counter.iterations == config.training.iterations
        assert counter.evaluations == len(trainer.history.iterations)
        assert counter.ended

    def test_training_loss_early_stopping_warns_once(
        self, fast_config, small_train, caplog, monkeypatch
    ):
        monkeypatch.setattr(sbrl_module, "_WARNED_TRAINING_LOSS_EARLY_STOP", False)
        config = fast_config
        config.training.early_stopping_patience = 10
        with caplog.at_level(logging.WARNING, logger="repro.core.sbrl"):
            for _ in range(2):
                backbone = _make_backbone(config, small_train.num_features)
                SBRLTrainer(backbone, framework="vanilla", config=config).fit(small_train)
        warnings = [record for record in caplog.records if "training loss" in record.message]
        assert len(warnings) == 1


class TestSubsampledRegularizers:
    def test_balancing_subsamples_above_threshold(self):
        rng = np.random.default_rng(0)
        treatment = (rng.uniform(size=300) < 0.4).astype(float)
        # Shift the treated rows so the group MMD is well away from zero and
        # the subsampled estimate is comparable on a relative scale.
        representation = Tensor(rng.normal(size=(300, 4)) + treatment[:, None])
        weights = Tensor(np.ones(300), requires_grad=True)
        exact = BalancingRegularizer(kind="mmd_rbf", subsample_threshold=None)
        subsampled = BalancingRegularizer(
            kind="mmd_rbf", subsample_threshold=100, num_anchors=50, seed=1
        )
        full = exact(representation, treatment, weights).item()
        approx = subsampled(representation, treatment, weights).item()
        assert np.isfinite(approx)
        assert approx == pytest.approx(full, rel=0.5)  # estimator, not exact
        loss = subsampled(representation, treatment, weights)
        loss.backward()
        assert weights.grad is not None

    def test_independence_subsamples_above_threshold(self):
        rng = np.random.default_rng(0)
        layer = Tensor(rng.normal(size=(400, 3)))
        weights = Tensor(np.ones(400), requires_grad=True)
        regularizer = IndependenceRegularizer(
            max_pairs=3, seed=0, subsample_threshold=100, num_anchors=64
        )
        loss = regularizer(layer, weights)
        assert np.isfinite(loss.item())
        loss.backward()
        assert weights.grad is not None
        # gradients only flow into the sampled rows
        assert 0 < np.count_nonzero(weights.grad) <= 64


class TestParallelExecution:
    def _specs(self, fast_config):
        fast_config.training.iterations = 10
        return [
            MethodSpec(backbone="cfr", framework=framework, config=fast_config, seed=5)
            for framework in ("vanilla", "sbrl")
        ]

    def test_run_methods_has_no_worker_pool(self, fast_config, small_protocol):
        specs = self._specs(fast_config)
        with pytest.raises(TypeError):
            run_methods(
                specs,
                small_protocol["train"],
                small_protocol["test_environments"],
                n_jobs=2,
            )

    def test_invalid_n_jobs_rejected(self, fast_config):
        units = plan_units(
            {"overlap": (0.0,)}, self._specs(fast_config), 1, 0, 100, (4, 4, 4, 2)
        )
        with pytest.raises(ValueError, match="n_jobs"):
            run_cross_cell(units, n_jobs=-2)

    def test_seed_spawning_is_deterministic_and_distinct(self):
        first = spawn_replication_seeds(2024, 5)
        second = spawn_replication_seeds(2024, 5)
        assert first == second
        assert len(set(first)) == 5
        assert spawn_replication_seeds(2025, 5) != first
        with pytest.raises(ValueError):
            spawn_replication_seeds(0, 0)

    def test_run_replications_shape_and_parity(self, fast_config, synthetic_generator):
        specs = self._specs(fast_config)[:1]

        def builder(replication, seed):
            return synthetic_generator.generate_train_test_protocol(
                num_samples=150, train_rho=2.5, test_rhos=(-2.5,), seed=seed % (2**31)
            )

        results = run_replications(specs, builder, replications=2, seed=3)
        assert len(results) == 2
        # Each replication equals a direct fit on its spawned-seed protocol.
        for replication, seed in enumerate(spawn_replication_seeds(3, 2)):
            assert len(results[replication]) == 1
            protocol = builder(replication, seed)
            direct = run_method(specs[0], protocol["train"], protocol["test_environments"])
            assert results[replication][0].per_environment == direct.per_environment

    def test_run_replications_has_no_stacked_replay_option(self, fast_config):
        """Replications fit serially; the stacked-replay option is gone."""
        with pytest.raises(TypeError, match="stacked_replay"):
            run_replications(
                self._specs(fast_config)[:1], lambda r, s: {}, replications=1, stacked_replay=True
            )
