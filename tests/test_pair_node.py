"""The HSIC pair node folds its backward into its forward and borrows its blocks.

``weighted_pair_sq_cross_cov`` is one node per decorrelated layer of the
weight objective (the Eq. 10 sum over the drawn column pairs).  Its forward
forms the value and the gradients at unit upstream gradient, keeps only
those, and takes its three ``(P, k, n)`` working blocks from a
:class:`~repro.nn.kernels.Workspace` when its caller lends one; the trainer
keeps one workspace for one fit.  This file pins:

* malformed pair indices and weight vectors are rejected before any work;
* the node records which products it formed, and weights-only and full
  products give bitwise-equal weight gradients;
* after a forward on constant features the node keeps no ``(P, k, n)``
  array, and a lent workspace changes no bit of the value or gradients;
* with a warm workspace, an objective call and its backward peak below one
  ``(P, k, n)`` block above their start;
* a fit creates one workspace, reuses its buffers from one weight step to
  the next and drops it when it returns or raises; a fitted estimator's
  deep copy carries none and refits; two trainers fitting in two threads
  share none.
"""

from __future__ import annotations

import copy
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.core.backbones.base import BackboneForward
from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.loop import Callback
from repro.core.regularizers import HierarchicalAttentionLoss
from repro.core.sbrl import SBRLTrainer
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.nn import functional as F
from repro.nn.kernels import KERNELS, Kernel, Workspace
from repro.nn.tensor import Tensor, no_grad

COLUMNS, K, N = 6, 5, 40
LEFT, RIGHT = np.triu_indices(COLUMNS, k=1)


def _inputs(seed=0, n=N):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(COLUMNS, K, n))
    probs = rng.dirichlet(np.ones(n))
    return features, probs


def _node(features, probs, features_grad=False, workspace=None):
    """Value and gradients of one node at upstream gradient 0.7."""
    f_t = Tensor(features.copy(), requires_grad=features_grad)
    p_t = Tensor(probs.copy(), requires_grad=True)
    out = F.weighted_pair_sq_cross_cov(f_t, p_t, LEFT, RIGHT, workspace=workspace)
    out.backward(np.asarray(0.7))
    return out.item(), p_t.grad, f_t.grad


# --------------------------------------------------------------------------- #
# Input checks
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "left, right",
    [
        ([0, 1], [2]),  # must not broadcast into the pairs (0, 2) and (1, 2)
        ([[0, 1]], [[2, 3]]),
        (0, 1),
    ],
    ids=["unequal-lengths", "2-d", "0-d"],
)
def test_rejects_pair_indices_that_are_not_matching_vectors(left, right):
    features, probs = _inputs()
    with pytest.raises(ValueError, match="1-D column indices of equal length"):
        F.weighted_pair_sq_cross_cov(features[:4], probs, np.array(left), np.array(right))


@pytest.mark.parametrize("left, right", [([-1], [2]), ([0], [4]), ([5, 0], [1, 2])])
def test_rejects_pair_indices_outside_the_columns(left, right):
    """``left=[-1]`` must not silently mean the last column."""
    features, probs = _inputs()
    with pytest.raises(ValueError, match=r"in \[0, 4\)"):
        F.weighted_pair_sq_cross_cov(features[:4], probs, np.array(left), np.array(right))


def test_rejects_probs_of_the_wrong_size_before_gathering():
    features, probs = _inputs()
    workspace = Workspace()
    with pytest.raises(ValueError, match="one entry per sample"):
        F.weighted_pair_sq_cross_cov(features, probs[:-1], LEFT, RIGHT, workspace=workspace)
    assert workspace._buffers == {}


def test_empty_pair_set_is_a_zero_term():
    features, probs = _inputs()
    p_t = Tensor(probs, requires_grad=True)
    out = F.weighted_pair_sq_cross_cov(features, p_t, np.array([], dtype=int), np.array([], dtype=int))
    out.backward()
    assert out.item() == 0.0
    np.testing.assert_array_equal(p_t.grad, np.zeros(N))


# --------------------------------------------------------------------------- #
# Products and saved state
# --------------------------------------------------------------------------- #
def test_node_records_products_from_grad_mode_and_features(monkeypatch):
    kernel = KERNELS["weighted_pair_sq_cross_cov"]
    seen = []

    def fwd(out, ins, attrs, ctx):
        seen.append(attrs["products"])
        return kernel.fwd(out, ins, attrs, ctx)

    monkeypatch.setitem(KERNELS, kernel.name, Kernel(kernel.name, fwd, kernel.vjp))
    features, probs = _inputs()
    p_t = Tensor(probs, requires_grad=True)
    F.weighted_pair_sq_cross_cov(Tensor(features, requires_grad=True), p_t, LEFT, RIGHT)
    F.weighted_pair_sq_cross_cov(Tensor(features), p_t, LEFT, RIGHT)
    with no_grad():
        F.weighted_pair_sq_cross_cov(Tensor(features, requires_grad=True), p_t, LEFT, RIGHT)
    assert seen == ["full", "weights", "weights"]


def test_weights_only_and_full_products_give_bitwise_equal_weight_gradients():
    features, probs = _inputs(seed=1)
    value_w, grad_w, _ = _node(features, probs, features_grad=False)
    value_f, grad_f, features_grad = _node(features, probs, features_grad=True)
    assert value_w == value_f
    np.testing.assert_array_equal(grad_w, grad_f)
    assert features_grad is not None and features_grad.shape == features.shape


def test_eager_node_on_constant_features_keeps_no_pair_block():
    features, probs = _inputs()
    out = F.weighted_pair_sq_cross_cov(
        Tensor(features), Tensor(probs, requires_grad=True), LEFT, RIGHT
    )
    _, attrs, ctx = out._backward
    assert attrs["products"] == "weights"
    block = len(LEFT) * K * N
    assert all(value.size < block for value in ctx.values()), {
        key: value.shape for key, value in ctx.items()
    }
    assert set(ctx) == {"unit_p"}


@pytest.mark.parametrize("features_grad", [False, True], ids=["weights", "full"])
def test_lent_workspace_changes_no_bit(features_grad):
    """Warm, grown and shared: the same bits as the node's own temporaries."""
    workspace = Workspace()
    for seed, n in ((2, N), (3, N + 7), (4, N - 9)):
        features, probs = _inputs(seed, n)
        expected = _node(features, probs, features_grad)
        actual = _node(features, probs, features_grad, workspace=workspace)
        assert actual[0] == expected[0]
        for got, want in zip(actual[1:], expected[1:]):
            np.testing.assert_array_equal(got, want)
    assert {key for key, _ in workspace._buffers} == {"pair_u", "pair_v", "pair_pu"}


# --------------------------------------------------------------------------- #
# The weight objective's memory
# --------------------------------------------------------------------------- #
def test_warm_workspace_objective_call_peaks_below_one_pair_block():
    """Saved blocks would hold three ``(P, k, n)`` arrays per layer until the backward."""
    n, width, pairs = 2000, 12, 24
    rng = np.random.default_rng(6)
    forward = BackboneForward(
        mu0=Tensor(np.zeros(n)),
        mu1=Tensor(np.zeros(n)),
        representation=Tensor(rng.normal(size=(n, width))),
        last_layer=Tensor(np.tanh(rng.normal(size=(n, width)))),
        other_layers=[Tensor(rng.normal(size=(n, width))) for _ in range(2)],
    )
    treatment = (rng.uniform(size=n) < 0.5).astype(float)
    config = RegularizerConfig(
        alpha=0.5,
        gamma2=0.3,
        gamma3=0.2,
        ipm_kind="mmd_rbf",
        max_pairs_per_layer=pairs,
        subsample_threshold=None,
    )
    objective = HierarchicalAttentionLoss(config=config, seed=3)
    prepared = objective.prepare(forward, treatment, workspace=Workspace())

    def call():
        weights = Tensor(rng.uniform(0.2, 2.0, size=n), requires_grad=True)
        objective(prepared, treatment, weights).backward()
        return weights.grad

    call()  # grows the workspace
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        grad = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(grad))
    block = pairs * config.num_rff_features * n * 8
    assert peak - start < block, (peak - start, block)


# --------------------------------------------------------------------------- #
# The trainer's workspace lifetime
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def train():
    generator = SyntheticGenerator(
        SyntheticConfig(num_instruments=3, num_confounders=3, num_adjustments=3, seed=5)
    )
    return generator.generate(160, 2.5, seed=5)


def _config(batch_size=None, iterations=11):
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6),
        regularizers=RegularizerConfig(max_pairs_per_layer=6, subsample_threshold=None),
        training=TrainingConfig(
            iterations=iterations,
            weight_update_every=2,
            weight_steps_per_iteration=2,
            early_stopping_patience=None,
            batch_size=batch_size,
            seed=0,
        ),
    )


def _spy_weight_steps(monkeypatch):
    """After each weight step: the trainer's workspace and its buffer objects."""
    seen = []
    original = SBRLTrainer._update_weights

    def spy(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        seen.append((self._workspace, dict(self._workspace._buffers)))
        return value

    monkeypatch.setattr(SBRLTrainer, "_update_weights", spy)
    return seen


@pytest.mark.parametrize("batch_size", [None, 64], ids=["full-batch", "minibatch"])
def test_fit_reuses_one_workspace_and_drops_it(train, monkeypatch, batch_size):
    seen = _spy_weight_steps(monkeypatch)
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(batch_size), seed=0)
    estimator.fit(train)
    assert len(seen) == 6
    workspace, first = seen[0]
    assert isinstance(workspace, Workspace) and first
    for later, buffers in seen[1:]:
        assert later is workspace
        # Full batches and equal-size minibatches: nothing regrows.
        assert buffers.keys() == first.keys()
        assert all(buffers[key] is first[key] for key in first)
    assert estimator.trainer._workspace is None

    estimator.fit(train)
    assert seen[-1][0] is not workspace
    assert estimator.trainer._workspace is None


def test_fit_drops_the_workspace_when_a_callback_raises(train):
    class Boom(Callback):
        def on_iteration_end(self, loop, record):
            if record.iteration == 5:
                raise RuntimeError("boom")

    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0)
    trainer = estimator.build_trainer(train)
    with pytest.raises(RuntimeError, match="boom"):
        trainer.fit(train, callbacks=[Boom()])
    assert trainer._workspace is None


def test_deepcopy_of_a_fitted_estimator_carries_no_workspace_and_refits(train):
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0)
    estimator.fit(train)
    memo: dict = {}
    candidate = copy.deepcopy(estimator, memo)
    assert not any(isinstance(value, Workspace) for value in memo.values())
    assert candidate.trainer._workspace is None
    candidate.refit(train, init="fitted", epochs=4)
    assert candidate.trainer._workspace is None
    assert np.all(np.isfinite(candidate.predict_ite(train.covariates)))


def test_two_trainers_fitting_in_two_threads_equal_serial_fits(train):
    """Each fit owns its workspace, so concurrent fits cannot clobber each other's blocks."""

    def fit(seed):
        estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=seed)
        estimator.fit(train)
        return estimator.trainer.sample_weights.numpy(), estimator.predict_ite(train.covariates)

    serial = [fit(seed) for seed in (0, 1)]
    results = [None, None]

    def run(index):
        results[index] = fit(index)

    threads = [threading.Thread(target=run, args=(index,)) for index in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for concurrent, expected in zip(results, serial):
        assert concurrent is not None
        for got, want in zip(concurrent, expected):
            np.testing.assert_array_equal(got, want)
