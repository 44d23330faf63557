"""Unit tests for the Balancing / Independence / Hierarchical-Attention regularizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backbones import CFR
from repro.core.config import BackboneConfig, RegularizerConfig
from repro.core.regularizers import (
    BalancingRegularizer,
    HierarchicalAttentionLoss,
    IndependenceRegularizer,
)
from repro.nn.tensor import Tensor, as_tensor


@pytest.fixture()
def representation_batch(rng):
    n = 120
    representation = rng.normal(size=(n, 6))
    treatment = (rng.uniform(size=n) < 0.5).astype(float)
    # Inject a mean shift between arms so the balance loss is non-trivial.
    representation[treatment == 1] += 0.8
    return representation, treatment


class TestBalancingRegularizer:
    def test_positive_for_imbalanced_groups(self, representation_batch):
        representation, treatment = representation_batch
        regularizer = BalancingRegularizer(alpha=1.0)
        loss = regularizer(as_tensor(representation), treatment, as_tensor(np.ones(len(treatment))))
        assert loss.item() > 0.0

    def test_alpha_zero_disables(self, representation_batch):
        representation, treatment = representation_batch
        regularizer = BalancingRegularizer(alpha=0.0)
        loss = regularizer(as_tensor(representation), treatment, as_tensor(np.ones(len(treatment))))
        assert loss.item() == 0.0

    def test_single_arm_returns_zero(self, rng):
        representation = rng.normal(size=(30, 4))
        regularizer = BalancingRegularizer(alpha=1.0)
        loss = regularizer(as_tensor(representation), np.ones(30), as_tensor(np.ones(30)))
        assert loss.item() == 0.0

    def test_differentiable_wrt_weights(self, representation_batch):
        representation, treatment = representation_batch
        weights = Tensor(np.ones(len(treatment)), requires_grad=True)
        regularizer = BalancingRegularizer(alpha=1.0)
        regularizer(as_tensor(representation), treatment, weights).backward()
        assert weights.grad is not None and np.any(weights.grad != 0)

    def test_gradient_descent_on_weights_reduces_imbalance(self, representation_batch):
        representation, treatment = representation_batch
        weights = Tensor(np.ones(len(treatment)), requires_grad=True)
        regularizer = BalancingRegularizer(alpha=1.0)
        initial = regularizer(as_tensor(representation), treatment, weights).item()
        for _ in range(100):
            loss = regularizer(as_tensor(representation), treatment, weights)
            weights.zero_grad()
            loss.backward()
            weights.data = np.clip(weights.data - 5.0 * weights.grad, 1e-3, 10.0)
        final = regularizer(as_tensor(representation), treatment, weights).item()
        assert final < 0.5 * initial

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            BalancingRegularizer(alpha=-1.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="'mmd_linear', 'mmd_rbf'"):
            BalancingRegularizer(kind="mmd_rfb")


class TestIndependenceRegularizer:
    def test_loss_nonnegative(self, rng):
        regularizer = IndependenceRegularizer(max_pairs=None, seed=0)
        layer = rng.normal(size=(80, 4))
        loss = regularizer(as_tensor(layer), as_tensor(np.ones(80)))
        assert loss.item() >= 0.0

    def test_correlated_features_score_higher(self, rng):
        regularizer = IndependenceRegularizer(max_pairs=None, seed=0)
        base = rng.normal(size=(300, 1))
        correlated = np.hstack([base, base + 0.05 * rng.normal(size=(300, 1))])
        independent = rng.normal(size=(300, 2))
        weights = as_tensor(np.ones(300))
        assert (
            regularizer(as_tensor(correlated), weights, key="a").item()
            > regularizer(as_tensor(independent), weights, key="b").item()
        )

    def test_feature_draws_are_cached_per_key(self, rng):
        regularizer = IndependenceRegularizer(seed=0)
        layer = as_tensor(rng.normal(size=(50, 3)))
        weights = as_tensor(np.ones(50))
        first = regularizer(layer, weights, key="layer").item()
        second = regularizer(layer, weights, key="layer").item()
        assert first == second

    def test_single_column_layer_returns_zero(self, rng):
        regularizer = IndependenceRegularizer(seed=0)
        loss = regularizer(as_tensor(rng.normal(size=(50, 1))), as_tensor(np.ones(50)))
        assert loss.item() == 0.0

    def test_rejects_non_matrix_input(self, rng):
        regularizer = IndependenceRegularizer(seed=0)
        with pytest.raises(ValueError):
            regularizer(as_tensor(rng.normal(size=50)), as_tensor(np.ones(50)))

    def test_invalid_num_features(self):
        with pytest.raises(ValueError):
            IndependenceRegularizer(num_rff_features=0)

    def test_max_pairs_must_be_non_negative(self, rng):
        with pytest.raises(ValueError, match="max_pairs"):
            IndependenceRegularizer(max_pairs=-3)
        layer = as_tensor(rng.normal(size=(50, 3)))
        assert IndependenceRegularizer(max_pairs=None)(layer, as_tensor(np.ones(50))).item() > 0.0
        weights = Tensor(np.ones(50), requires_grad=True)
        loss = IndependenceRegularizer(max_pairs=0)(layer, weights)
        loss.backward()
        assert loss.item() == 0.0
        np.testing.assert_array_equal(weights.grad, np.zeros(50))


class TestHierarchicalAttentionLoss:
    @pytest.fixture()
    def forward_pass(self, rng):
        config = BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6)
        backbone = CFR(5, config=config, rng=np.random.default_rng(0))
        covariates = rng.normal(size=(60, 5))
        treatment = (rng.uniform(size=60) < 0.5).astype(float)
        return backbone.forward(covariates, treatment), treatment

    def test_full_objective_positive(self, forward_pass):
        forward, treatment = forward_pass
        objective = HierarchicalAttentionLoss(
            RegularizerConfig(alpha=1.0, gamma1=1.0, gamma2=1.0, gamma3=1.0, max_pairs_per_layer=6),
            mode="sbrl-hap",
        )
        loss = objective(forward, treatment, as_tensor(np.ones(len(treatment))))
        assert loss.item() > 0.0
        breakdown = objective.last_breakdown
        assert breakdown is not None
        assert breakdown.independence_representation > 0.0
        assert breakdown.independence_other > 0.0

    def test_sbrl_mode_excludes_hierarchy(self, forward_pass):
        forward, treatment = forward_pass
        objective = HierarchicalAttentionLoss(
            RegularizerConfig(alpha=1.0, gamma1=1.0, gamma2=1.0, gamma3=1.0, max_pairs_per_layer=6),
            mode="sbrl",
        )
        objective(forward, treatment, as_tensor(np.ones(len(treatment))))
        breakdown = objective.last_breakdown
        assert breakdown.independence_representation == 0.0
        assert breakdown.independence_other == 0.0
        assert breakdown.independence_last > 0.0

    def test_ablation_switches(self, forward_pass):
        forward, treatment = forward_pass
        config = RegularizerConfig(alpha=1.0, gamma1=1.0, gamma2=1.0, gamma3=1.0, max_pairs_per_layer=6)
        weights = as_tensor(np.ones(len(treatment)))

        no_balance = HierarchicalAttentionLoss(config, mode="sbrl-hap", use_balance=False)
        no_balance(forward, treatment, weights)
        assert no_balance.last_breakdown.balance == 0.0

        no_independence = HierarchicalAttentionLoss(config, mode="sbrl-hap", use_independence=False)
        no_independence(forward, treatment, weights)
        assert no_independence.last_breakdown.independence_last == 0.0

        no_hierarchy = HierarchicalAttentionLoss(config, mode="sbrl-hap", use_hierarchy=False)
        no_hierarchy(forward, treatment, weights)
        assert no_hierarchy.last_breakdown.independence_other == 0.0

    def test_differentiable_wrt_weights(self, forward_pass):
        forward, treatment = forward_pass
        objective = HierarchicalAttentionLoss(
            RegularizerConfig(alpha=1.0, gamma1=1.0, gamma2=0.1, gamma3=0.1, max_pairs_per_layer=6),
            mode="sbrl-hap",
        )
        weights = Tensor(np.ones(len(treatment)), requires_grad=True)
        objective(forward, treatment, weights).backward()
        assert weights.grad is not None and np.any(weights.grad != 0)

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            HierarchicalAttentionLoss(mode="unknown")

    def test_breakdown_total(self, forward_pass):
        forward, treatment = forward_pass
        objective = HierarchicalAttentionLoss(
            RegularizerConfig(alpha=0.5, gamma1=0.5, gamma2=0.5, gamma3=0.5, max_pairs_per_layer=6),
            mode="sbrl-hap",
        )
        loss = objective(forward, treatment, as_tensor(np.ones(len(treatment))))
        assert objective.last_breakdown.total == pytest.approx(loss.item(), rel=1e-9)
