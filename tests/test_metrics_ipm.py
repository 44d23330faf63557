"""Unit tests for the Integral Probability Metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.metrics.ipm import (
    ipm_distance,
    mmd_linear,
    mmd_linear_weighted,
    mmd_rbf,
    mmd_rbf_anchored,
    mmd_rbf_weighted,
    wasserstein,
    weighted_ipm,
)
from repro.nn.tensor import Tensor


@pytest.fixture(scope="module")
def groups():
    rng = np.random.default_rng(0)
    control = rng.normal(0.0, 1.0, size=(150, 4))
    treated_same = rng.normal(0.0, 1.0, size=(140, 4))
    treated_shifted = rng.normal(1.5, 1.0, size=(140, 4))
    return control, treated_same, treated_shifted


class TestNumpyIPM:
    def test_mmd_linear_zero_for_identical(self, groups):
        control, _, _ = groups
        assert mmd_linear(control, control) == pytest.approx(0.0, abs=1e-12)

    def test_mmd_linear_detects_mean_shift(self, groups):
        control, same, shifted = groups
        assert mmd_linear(control, shifted) > mmd_linear(control, same)

    def test_mmd_rbf_nonnegative_and_ordered(self, groups):
        control, same, shifted = groups
        d_same = mmd_rbf(control, same)
        d_shifted = mmd_rbf(control, shifted)
        assert d_same >= 0.0
        assert d_shifted > d_same

    def test_wasserstein_ordering(self, groups):
        control, same, shifted = groups
        assert wasserstein(control, shifted) > wasserstein(control, same)

    def test_wasserstein_identical_much_smaller_than_shifted(self, groups):
        # The entropic (Sinkhorn) approximation has a small blur, so the
        # self-distance is not exactly zero — but it must be far below the
        # distance to a mean-shifted population.
        control, _, shifted = groups
        assert wasserstein(control, control) < 0.05 * wasserstein(control, shifted)

    def test_dispatch_by_name(self, groups):
        control, same, _ = groups
        assert ipm_distance(control, same, kind="mmd_linear") == pytest.approx(
            mmd_linear(control, same)
        )
        with pytest.raises(ValueError):
            ipm_distance(control, same, kind="bogus")

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            mmd_linear(np.zeros((3, 2)), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            mmd_linear(np.zeros((0, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            mmd_linear(np.zeros(3), np.zeros(3))

    def test_wasserstein_finite_for_large_cost_matrices(self):
        # Regression test: points separated by distances far larger than
        # epsilon drive the Sinkhorn kernel to its underflow floor, and the
        # unclamped scaling updates divided by exactly zero, propagating
        # inf/NaN into the transport plan.
        rng = np.random.default_rng(5)
        control = rng.normal(size=(20, 3)) * 1e4
        treated = rng.normal(size=(15, 3)) * 1e4 + 1e5
        value = wasserstein(control, treated, epsilon=0.1)
        assert np.isfinite(value)
        assert value > 0.0

    def test_wasserstein_clamp_preserves_moderate_values(self, groups):
        # The clamp must not disturb the well-conditioned regime.
        control, _, shifted = groups
        value = wasserstein(control, shifted)
        assert np.isfinite(value) and value > 0.0


class TestAnchoredMMD:
    def test_matches_exact_when_anchors_cover_groups(self, groups):
        control, _, shifted = groups
        anchored = mmd_rbf_anchored(control, shifted, num_anchors=len(control) + len(shifted))
        np.testing.assert_allclose(anchored, mmd_rbf(control, shifted), rtol=1e-12)

    def test_converges_to_exact_with_anchor_count(self):
        rng = np.random.default_rng(7)
        control = rng.normal(0.0, 1.0, size=(600, 5))
        treated = rng.normal(0.5, 1.0, size=(500, 5))
        exact = mmd_rbf(control, treated)
        errors = [
            abs(mmd_rbf_anchored(control, treated, num_anchors=m, seed=11) - exact)
            for m in (16, 128, 600)
        ]
        assert errors[-1] < errors[0]
        assert errors[-1] == pytest.approx(0.0, abs=1e-12)  # anchors cover both groups

    def test_seeded_and_validated(self, groups):
        control, _, shifted = groups
        first = mmd_rbf_anchored(control, shifted, num_anchors=32, seed=3)
        second = mmd_rbf_anchored(control, shifted, num_anchors=32, seed=3)
        assert first == second
        with pytest.raises(ValueError):
            mmd_rbf_anchored(control, shifted, num_anchors=0)


class TestWeightedIPM:
    def test_unit_weights_match_unweighted_linear(self, groups):
        control, _, shifted = groups
        unweighted = mmd_linear(control, shifted)
        weighted = mmd_linear_weighted(
            Tensor(control), Tensor(shifted), Tensor(np.ones(len(control))), Tensor(np.ones(len(shifted)))
        ).item()
        np.testing.assert_allclose(weighted, unweighted, rtol=1e-10)

    def test_none_weights_match_unweighted(self, groups):
        control, _, shifted = groups
        weighted = mmd_linear_weighted(Tensor(control), Tensor(shifted)).item()
        np.testing.assert_allclose(weighted, mmd_linear(control, shifted), rtol=1e-10)

    def test_weights_can_remove_mean_shift(self):
        # Control group is a mixture of two clusters; the treated group matches
        # only one of them.  Up-weighting that cluster should shrink the IPM.
        rng = np.random.default_rng(1)
        cluster_a = rng.normal(0.0, 0.3, size=(100, 3))
        cluster_b = rng.normal(3.0, 0.3, size=(100, 3))
        control = np.vstack([cluster_a, cluster_b])
        treated = rng.normal(0.0, 0.3, size=(80, 3))
        uniform = mmd_linear_weighted(Tensor(control), Tensor(treated)).item()
        weights = np.concatenate([np.ones(100), np.full(100, 1e-3)])
        reweighted = mmd_linear_weighted(
            Tensor(control), Tensor(treated), Tensor(weights), None
        ).item()
        assert reweighted < uniform * 0.1

    def test_weighted_mmd_is_differentiable_wrt_weights(self, groups):
        control, _, shifted = groups
        weights = Tensor(np.ones(len(control)), requires_grad=True)
        loss = mmd_linear_weighted(Tensor(control), Tensor(shifted), weights, None)
        loss.backward()
        assert weights.grad is not None
        assert np.any(np.abs(weights.grad) > 0)

    def test_weighted_rbf_nonnegative(self, groups):
        control, _, shifted = groups
        value = mmd_rbf_weighted(Tensor(control[:50]), Tensor(shifted[:50])).item()
        assert value >= -1e-10

    def test_weighted_rbf_unit_weights_match_numpy(self, groups):
        control, _, shifted = groups
        tensor_value = mmd_rbf_weighted(Tensor(control[:60]), Tensor(shifted[:60])).item()
        numpy_value = mmd_rbf(control[:60], shifted[:60])
        np.testing.assert_allclose(tensor_value, numpy_value, rtol=1e-8, atol=1e-10)

    def test_dispatch_and_validation(self, groups):
        control, _, shifted = groups
        value = weighted_ipm(Tensor(control), Tensor(shifted), kind="mmd_linear").item()
        assert value >= 0
        with pytest.raises(ValueError):
            weighted_ipm(Tensor(control), Tensor(shifted), kind="wasserstein")

    def test_dispatch_takes_sigma_for_the_rbf_kernel_only(self, groups):
        """No keyword is dropped: ``sigma`` reaches the RBF kernel, the linear
        MMD refuses it, and an unknown keyword is an error for every kind."""
        control, _, shifted = groups
        reps = (Tensor(control[:40]), Tensor(shifted[:40]))
        assert weighted_ipm(*reps, kind="mmd_rbf", sigma=0.7).item() == (
            mmd_rbf_weighted(*reps, sigma=0.7).item()
        )
        assert weighted_ipm(*reps, kind="mmd_rbf").item() == mmd_rbf_weighted(*reps).item()
        with pytest.raises(ValueError, match="sigma"):
            weighted_ipm(*reps, kind="mmd_linear", sigma=0.7)
        for kind in ("mmd_linear", "mmd_rbf"):
            with pytest.raises(TypeError):
                weighted_ipm(*reps, kind=kind, bandwidth=0.7)


class TestSinkhornEarlyExit:
    """Convergence-tolerance early exit of the Sinkhorn iterations."""

    def _groups(self, seed=0):
        rng = np.random.default_rng(seed)
        control = rng.normal(size=(40, 4))
        treated = rng.normal(loc=0.7, size=(35, 4))
        return control, treated

    def test_tight_tolerance_reproduces_fixed_budget_values(self):
        control, treated = self._groups()
        exhaustive = wasserstein(control, treated, iterations=200, tol=0.0)
        early = wasserstein(control, treated, iterations=200, tol=1e-12)
        np.testing.assert_allclose(early, exhaustive, rtol=1e-9)

    def test_default_tolerance_matches_disabled_on_short_budgets(self):
        control, treated = self._groups(seed=3)
        default = wasserstein(control, treated, iterations=10)
        disabled = wasserstein(control, treated, iterations=10, tol=0.0)
        np.testing.assert_allclose(default, disabled, rtol=1e-6)

    def test_early_exit_actually_triggers(self):
        """With a generous budget the converged loop must cost no accuracy."""
        control, treated = self._groups(seed=5)
        converged = wasserstein(control, treated, iterations=10_000, tol=1e-10)
        reference = wasserstein(control, treated, iterations=10_000, tol=0.0)
        np.testing.assert_allclose(converged, reference, rtol=1e-7)

    def test_identical_groups_exit_immediately(self):
        control, _ = self._groups(seed=7)
        value = wasserstein(control, control, iterations=500)
        assert np.isfinite(value)

    def test_negative_tolerance_rejected(self):
        control, treated = self._groups()
        with pytest.raises(ValueError, match="tol"):
            wasserstein(control, treated, tol=-1.0)
