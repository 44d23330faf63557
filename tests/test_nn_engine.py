"""Engine-level tests for the autodiff hot-path overhaul.

Covers dtypes taken from the data, zero-copy gradient accumulation,
graph retention/release semantics, the ``no_grad`` parent-retention fix,
the per-thread ``no_grad`` switch and allocation counter, and the
``__pow__`` zero-gradient guard.
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
from repro.nn import functional as F
from repro.nn.kernels import KERNELS, Kernel
from repro.nn.tensor import (
    Tensor,
    _released_backward,
    as_tensor,
    graph_node_count,
    is_grad_enabled,
    no_grad,
    tensor_alloc_count,
)


class TestDtypeFromData:
    def test_float_arrays_keep_their_dtype_and_anything_else_is_float64(self):
        for dtype in (np.float32, np.float64):
            array = np.arange(3, dtype=dtype)
            assert Tensor(array).data is array  # kept, not copied
        others = ([1.0, 2.0], 2.0, 3, np.arange(3), np.ones(2, dtype=bool), np.ones(2, np.float16))
        assert [Tensor(value).data.dtype for value in others] == [np.float64] * len(others)

    def test_a_float32_tensor_trains_in_float32(self):
        t = Tensor(np.array([1.0, 2.0], dtype=np.float32), requires_grad=True)
        (t * t).sum().backward()
        assert t.grad.dtype == np.float32

    def test_non_tensor_operands_take_the_tensors_dtype(self):
        """NumPy 2 would promote a float32 array meeting a float64 0-d array."""
        x = Tensor(np.array([[1.0, -2.0, 3.0]], dtype=np.float32), requires_grad=True)
        mask = np.array([[1.0, 0.0, 1.0]])  # float64, like a treatment vector
        outputs = [
            x * 0.5, 0.5 * x, x * np.float64(2.0), x + 1.0, 1.0 + x, x - 1.0, 1.0 - x,
            x / 2.0, 2.0 / x, x * mask, x.mean(), x.mean(axis=1), x.var(), x.maximum(0.0),
            x @ np.ones((3, 2)),
        ]
        assert [out.data.dtype for out in outputs] == [np.float32] * len(outputs)
        sum(out.sum() for out in outputs).backward()
        assert x.grad.dtype == np.float32
        # A float64 tensor meeting a float32 array stays float64.
        assert (Tensor([1.0, 2.0]) * np.ones(2, np.float32)).data.dtype == np.float64

    def test_as_tensor_like_makes_only_non_tensors_in_its_dtype(self):
        narrow = Tensor(np.zeros(2, dtype=np.float32))
        assert as_tensor(0.0, like=narrow).data.dtype == np.float32
        assert as_tensor(np.ones(2), like=narrow).data.dtype == np.float32
        wide = Tensor(np.zeros(2))
        assert as_tensor(wide, like=narrow) is wide

    def test_losses_of_a_float32_prediction_stay_float32(self):
        prediction = Tensor(np.array([0.2, 0.7, 0.9], dtype=np.float32), requires_grad=True)
        target, weights = np.array([0.0, 1.0, 1.0]), np.array([1.0, 2.0, 0.5])
        losses = [
            F.mse_loss(prediction, target),
            F.weighted_mse_loss(prediction, target, weights),
            F.binary_cross_entropy(prediction, target),
            F.weighted_binary_cross_entropy(prediction, target, weights),
            F.bce_with_logits(prediction, target, weights),
            F.linear(np.ones((2, 3)), prediction.reshape(3, 1)),
            F.l2_penalty([prediction]),
        ]
        assert [loss.data.dtype for loss in losses] == [np.float32] * len(losses)
        assert F.l2_penalty([]).data.dtype == np.float64

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
        assert all(p.data.dtype == np.float64 for p in est64.trainer.backbone.parameters())
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

    def test_backward_frees_a_vjps_ctx_before_its_parents_vjp(self, monkeypatch):
        """Each node is released right after its own VJP, not when the backward ends."""
        softplus, tanh = KERNELS["softplus"], KERNELS["tanh"]
        scratch, seen = [], []

        def softplus_vjp(grad, ins, out, attrs, ctx, needs):
            grads = softplus.vjp(grad, ins, out, attrs, ctx, needs)
            scratch.extend(
                weakref.ref(array) for array in ctx.values()
                if isinstance(array, np.ndarray) and all(array is not g for g in grads)
            )
            return grads

        def tanh_vjp(*args):
            seen.append([ref() is None for ref in scratch])
            return tanh.vjp(*args)

        monkeypatch.setitem(KERNELS, "softplus", Kernel("softplus", softplus.fwd, softplus_vjp))
        monkeypatch.setitem(KERNELS, "tanh", Kernel("tanh", tanh.fwd, tanh_vjp))
        x = Tensor(np.linspace(-2.0, 2.0, 12).reshape(4, 3), requires_grad=True)
        x.tanh().softplus().sum().backward()
        assert scratch and seen == [[True] * len(scratch)]
        np.testing.assert_allclose(
            x.grad, (1.0 - np.tanh(x.data) ** 2) / (1.0 + np.exp(-np.tanh(x.data)))
        )

    def test_a_backward_that_raises_releases_the_graph(self, monkeypatch):
        def failing_vjp(*args):
            raise FloatingPointError("vjp")

        monkeypatch.setitem(KERNELS, "tanh", Kernel("tanh", KERNELS["tanh"].fwd, failing_vjp))
        x = Tensor(np.ones(3), requires_grad=True)
        hidden = x.tanh()
        loss = (hidden * 2.0).sum()
        with pytest.raises(FloatingPointError):
            loss.backward()
        for node in (loss, hidden):
            assert node._backward is _released_backward and node._parents == ()

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

    def test_tensor_alloc_count_counts_the_calling_threads_tensors(self):
        """Both threads build while the other reads: each still reads its own count."""
        count, started, built = 2000, threading.Barrier(2), threading.Barrier(2)
        deltas = {}

        def build(name):
            started.wait(10)
            before = tensor_alloc_count()
            for _ in range(count):
                Tensor([1.0])
            built.wait(10)  # the other thread has built all its tensors too
            deltas[name] = tensor_alloc_count() - before

        main_before = tensor_alloc_count()
        workers = [threading.Thread(target=build, args=(name,)) for name in ("a", "b")]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(30)
        assert deltas == {"a": count, "b": count}
        assert tensor_alloc_count() == main_before

    def test_graph_node_count(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = ((x * 2.0) + 1.0).sum()
        # x, x*2 (plus constant nodes), +1, sum
        assert graph_node_count(loss) >= 4
        loss.backward()
        assert graph_node_count(loss) == 1  # released
