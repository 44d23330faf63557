"""Engine-level tests for the autodiff hot-path overhaul.

Covers the process-wide dtype policy, zero-copy gradient accumulation,
graph retention/release semantics, the ``no_grad`` parent-retention fix,
the per-thread ``no_grad`` switch and the ``__pow__`` zero-gradient guard.
"""

from __future__ import annotations

import gc
import threading
import weakref

import numpy as np
import pytest

from repro.core.backbones import build_backbone
from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.nn.tensor import (
    Tensor,
    dtype_scope,
    get_default_dtype,
    graph_node_count,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    tensor_alloc_count,
)


class TestDtypePolicy:
    def test_default_is_float64(self):
        assert get_default_dtype() is np.float64
        assert Tensor([1.0, 2.0]).data.dtype == np.float64

    def test_scope_switches_and_restores(self):
        with dtype_scope("float32"):
            assert get_default_dtype() is np.float32
            t = Tensor([1.0, 2.0], requires_grad=True)
            assert t.data.dtype == np.float32
            (t * t).sum().backward()
            assert t.grad.dtype == np.float32
        assert get_default_dtype() is np.float64

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with dtype_scope(np.float32):
                raise RuntimeError("boom")
        assert get_default_dtype() is np.float64

    def test_set_default_dtype_accepts_strings_and_types(self):
        try:
            set_default_dtype("float32")
            assert get_default_dtype() is np.float32
            set_default_dtype(np.float64)
            assert get_default_dtype() is np.float64
        finally:
            set_default_dtype("float64")

    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            set_default_dtype("int32")
        with pytest.raises(ValueError):
            dtype_scope("float16")

    def test_float32_training_end_to_end(self):
        """Opt-in float32 training runs the whole stack and lands close to float64."""
        generator = SyntheticGenerator(
            SyntheticConfig(num_instruments=3, num_confounders=3, num_adjustments=3, seed=9)
        )
        protocol = generator.generate_train_test_protocol(num_samples=160, seed=9)

        def fit(dtype):
            config = SBRLConfig(
                backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6),
                regularizers=RegularizerConfig(max_pairs_per_layer=4, subsample_threshold=64),
                training=TrainingConfig(
                    iterations=10, early_stopping_patience=None, seed=9, dtype=dtype
                ),
            )
            estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=9)
            estimator.fit(protocol["train"])
            return estimator

        est32 = fit("float32")
        est64 = fit("float64")
        assert get_default_dtype() is np.float64  # scope did not leak
        params32 = list(est32.trainer.backbone.parameters())
        assert all(p.data.dtype == np.float32 for p in params32)
        m32 = est32.evaluate(protocol["test_environments"][2.5])
        m64 = est64.evaluate(protocol["test_environments"][2.5])
        assert np.isfinite(m32["pehe"])
        assert m32["pehe"] == pytest.approx(m64["pehe"], rel=0.05)

    @pytest.mark.parametrize("ipm_kind", ["mmd_rbf", "mmd_linear"])
    def test_float32_fit_keeps_sample_weights_float32(self, ipm_kind):
        """The weight step's fused kernels must not promote float32 (NEP 50)."""
        generator = SyntheticGenerator(
            SyntheticConfig(num_instruments=3, num_confounders=3, num_adjustments=3, seed=9)
        )
        protocol = generator.generate_train_test_protocol(num_samples=120, seed=9)
        config = SBRLConfig(
            backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6),
            regularizers=RegularizerConfig(
                ipm_kind=ipm_kind, max_pairs_per_layer=4, subsample_threshold=None
            ),
            training=TrainingConfig(
                iterations=3,
                weight_update_every=1,
                early_stopping_patience=None,
                seed=9,
                dtype="float32",
            ),
        )
        estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=9)
        estimator.fit(protocol["train"])
        weights = estimator.trainer.sample_weights.values
        assert weights.data.dtype == np.float32
        assert weights.grad is not None and weights.grad.dtype == np.float32

    def test_training_config_rejects_bad_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            TrainingConfig(dtype="float16")


class TestGraphRetention:
    def test_no_grad_constructor_drops_parents(self):
        """The seed engine kept `_parents` alive even with requires_grad=False."""
        parent = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            child = Tensor(np.ones(3), requires_grad=True, _parents=(parent,))
        assert child._parents == ()
        plain = Tensor(np.ones(3), _parents=(parent,))
        assert plain._parents == ()

    def test_no_grad_ops_do_not_retain_graph(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        with no_grad():
            y = (x * 2.0).tanh().sum()
        assert y._parents == ()
        assert y._backward is None

    def test_backward_releases_graph_memory(self):
        """Intermediate nodes are freed once backward() has consumed them."""
        x = Tensor(np.ones((5, 5)), requires_grad=True)
        intermediate = (x * 3.0).tanh()
        loss = intermediate.sum()
        ref = weakref.ref(intermediate)
        loss.backward()
        assert loss._parents == ()
        del intermediate
        gc.collect()
        assert ref() is None, "backward() must drop parent links so the graph is freed"
        np.testing.assert_allclose(x.grad, 3.0 * (1.0 - np.tanh(3.0) ** 2) * np.ones((5, 5)))

    @pytest.mark.parametrize("backbone", ["tarnet", "cfr", "dercfr"])
    def test_eager_network_step_leaves_no_cyclic_last_layer(self, backbone):
        """``Z_p`` is not built from graph nodes the network loss never reaches.

        Such nodes keep a closure <-> tensor cycle alive until the cyclic
        collector runs, so with the collector off they would outlive the step.
        """
        rng = np.random.default_rng(0)
        covariates = rng.normal(size=(40, 5))
        treatment = (np.arange(40) % 2).astype(np.float64)
        outcome = rng.normal(size=40)
        model = build_backbone(
            backbone,
            num_features=5,
            config=BackboneConfig(rep_layers=2, rep_units=6, head_layers=2, head_units=4),
            regularizers=RegularizerConfig(ipm_kind="mmd_rbf", subsample_threshold=None),
            binary_outcome=False,
            rng=np.random.default_rng(1),
        )
        weights = Tensor(rng.uniform(0.5, 1.5, size=40))
        gc.disable()
        try:
            forward = model.forward(covariates, treatment)
            loss = model.network_loss(forward, treatment, outcome, weights)
            model.zero_grad()
            loss.backward()
            ref = weakref.ref(forward.last_layer)
            del forward, loss
            assert ref() is None, "last_layer outlived its network step without gc.collect()"
        finally:
            gc.enable()

    def test_second_backward_through_released_graph_raises(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward()
        with pytest.raises(RuntimeError, match="freed"):
            loss.backward()

    def test_retain_graph_allows_double_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        loss = (x * x).sum()
        loss.backward(retain_graph=True)
        loss.backward()
        np.testing.assert_allclose(x.grad, [4.0, 8.0])  # two accumulations

    def test_grad_accumulates_across_separate_graphs(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])


class TestGradModeThreads:
    def test_no_grad_on_one_thread_leaves_another_building_graphs(self):
        entered, release = threading.Event(), threading.Event()
        seen = {}

        def hold_no_grad():
            with no_grad():
                seen["worker"] = is_grad_enabled()
                entered.set()
                release.wait(10)

        worker = threading.Thread(target=hold_no_grad)
        worker.start()
        try:
            assert entered.wait(10)
            assert is_grad_enabled()
            x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
            assert x.requires_grad
            (x * x).sum().backward()
            np.testing.assert_allclose(x.grad, [2.0, 4.0, 6.0])
        finally:
            release.set()
            worker.join(10)
        assert not worker.is_alive()
        assert seen["worker"] is False


class TestZeroCopyAccumulation:
    def test_duplicate_parent_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        (x + x).backward()
        np.testing.assert_allclose(x.grad, [2.0])
        y = Tensor([3.0], requires_grad=True)
        (y * y).backward()
        np.testing.assert_allclose(y.grad, [6.0])

    def test_diamond_fanin(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        c = x.tanh()
        (a + b + c).sum().backward()
        np.testing.assert_allclose(x.grad, 5.0 + 1.0 - np.tanh([1.0, 2.0]) ** 2)

    def test_broadcast_grad_not_mutated_across_siblings(self):
        """A shared upstream gradient buffer must not be corrupted by fan-in."""
        x = Tensor(np.ones((3, 2)), requires_grad=True)
        y = Tensor(np.ones((3, 2)), requires_grad=True)
        # Both receive the *same* incoming grad object from the add node.
        ((x + y) * 2.0).sum().backward()
        np.testing.assert_allclose(x.grad, np.full((3, 2), 2.0))
        np.testing.assert_allclose(y.grad, np.full((3, 2), 2.0))

    def test_user_supplied_grad_not_stolen(self):
        seed = np.ones(3)
        x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        (x * 1.0).backward(seed)
        x.grad[0] = 99.0
        np.testing.assert_allclose(seed, np.ones(3))


class TestPowZeroGuard:
    def test_sqrt_like_pow_has_finite_grad_at_zero(self):
        x = Tensor([0.0, 4.0], requires_grad=True)
        (x ** 0.5).sum().backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_allclose(x.grad, [0.0, 0.25])

    def test_negative_exponent_zero_guard(self):
        x = Tensor([0.0, 2.0], requires_grad=True)
        (x ** -1.0).sum().backward()
        assert np.all(np.isfinite(x.grad))
        np.testing.assert_allclose(x.grad, [0.0, -0.25])

    def test_integer_exponents_unchanged(self):
        x = Tensor([0.0, 3.0], requires_grad=True)
        (x ** 2).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 6.0])


class TestInstrumentation:
    def test_tensor_alloc_count_monotonic(self):
        before = tensor_alloc_count()
        t = Tensor([1.0]) * 2.0 + 1.0
        assert tensor_alloc_count() - before >= 3

    def test_graph_node_count(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ((x * 2.0) + 1.0).sum()
        # x, x*2 (plus constant nodes), +1, sum
        assert graph_node_count(loss) >= 4
        loss.backward()
        assert graph_node_count(loss) == 1  # released
