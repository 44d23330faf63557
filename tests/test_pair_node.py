"""The HSIC pair node folds its backward into its forward and borrows its blocks.

``weighted_pair_sq_cross_cov`` is one node per decorrelated layer of the
weight objective (the Eq. 10 sum over the drawn column pairs).  Its forward
forms the value and the gradients at unit upstream gradient, keeps only
those, and takes its three ``(P, k, n)`` working blocks from the
:class:`~repro.nn.kernels.Workspace` lent to the running turn on its
thread; the trainer's weight step is a turn of one workspace per fit.
This file pins:

* malformed pair indices and weight vectors are rejected before any work;
* the node records which products it formed, and weights-only and full
  products give bitwise-equal weight gradients;
* after a forward on constant features the node keeps no ``(P, k, n)``
  array, and a workspace lent by a turn changes no bit of the value or
  gradients;
* with a warm workspace, an objective call and its backward peak below one
  ``(P, k, n)`` block above their start;
* a turn lends its workspace to its own thread only, also while four
  threads take turns in pools of their own, and a turn that an exception
  ends lends nothing afterwards and holds no view of its pool;
* a fit creates one pool, which its replay program and its weight steps
  take turns in: each turn ends with no view of the pool, so a buffer the
  pool replaces dies at once, and a weight step's features are views of
  the buffer the program's op outputs live in, while the first weight
  step runs beside no recorded op output; the weight step's layout and
  buffer hold from one weight step to the next, and the fit drops the pool
  and its parameters' gradients when it returns or raises; a fitted
  estimator's deep copy carries none and refits; two trainers fitting in
  two threads share none.
"""

from __future__ import annotations

import copy
import sys
import threading
import tracemalloc
import weakref

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
from repro.nn import kernels
from repro.nn.kernels import KERNELS, Kernel, Pool, Workspace
from repro.nn.tape import ReplayProgram
from repro.nn.tensor import Tensor, no_grad

COLUMNS, K, N = 6, 5, 40
LEFT, RIGHT = np.triu_indices(COLUMNS, k=1)


def _inputs(seed=0, n=N):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(COLUMNS, K, n))
    probs = rng.dirichlet(np.ones(n))
    return features, probs


def _node(features, probs, features_grad=False):
    """Value and gradients of one node at upstream gradient 0.7."""
    f_t = Tensor(features.copy(), requires_grad=features_grad)
    p_t = Tensor(probs.copy(), requires_grad=True)
    out = F.weighted_pair_sq_cross_cov(f_t, p_t, LEFT, RIGHT)
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
    with workspace.turn(), pytest.raises(ValueError, match="one entry per sample"):
        F.weighted_pair_sq_cross_cov(features, probs[:-1], LEFT, RIGHT)
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
        with workspace.turn():
            actual = _node(features, probs, features_grad)
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
    prepared = objective.prepare(forward, treatment)
    workspace = Workspace()

    def call():
        weights = Tensor(rng.uniform(0.2, 2.0, size=n), requires_grad=True)
        with workspace.turn():
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
# Turns
# --------------------------------------------------------------------------- #
def test_a_turn_lends_nothing_to_another_thread(monkeypatch):
    """During a turn on one thread, a pair node evaluated on another thread
    gets temporaries: its blocks share no memory with the lent pool's buffer."""
    features, probs = _inputs()
    blocks = {}
    tmp = kernels._tmp

    def spy(key, shape, dtype):
        block = tmp(key, shape, dtype)
        blocks.setdefault(threading.get_ident(), []).append(block)
        return block

    monkeypatch.setattr(kernels, "_tmp", spy)
    workspace = Workspace(Pool())
    with workspace.turn():
        _node(features, probs)  # lays the blocks out; the next claim grows the pool to them
    other = []
    with workspace.turn():
        buffer = workspace.pool.buffer
        expected = _node(features, probs)
        thread = threading.Thread(target=lambda: other.append(_node(features, probs)))
        thread.start()
        thread.join(timeout=60)
    assert not thread.is_alive() and len(other) == 1
    own = blocks.pop(threading.get_ident())
    [theirs] = blocks.values()
    assert len(theirs) == 3 and all(np.may_share_memory(block, buffer) for block in own[-3:])
    assert not any(np.may_share_memory(block, buffer) for block in theirs)
    assert other[0][0] == expected[0]
    np.testing.assert_array_equal(other[0][1], expected[1])


def test_concurrent_turns_each_lend_their_own_pool(monkeypatch):
    """Four threads, more than the cores, each take turns in a pool of their
    own under a short switch interval: every block a pair node takes after
    the first turn lies in its own thread's pool, and every value and
    gradient keeps its bits."""
    features, probs = _inputs()
    expected = _node(features, probs)
    taken, workspaces, steady, results = [], {}, set(), []
    # All four are alive before any takes a turn, so no thread reuses the
    # ident of one that has finished.
    started = threading.Barrier(4)
    tmp = kernels._tmp

    def spy(key, shape, dtype):
        block = tmp(key, shape, dtype)
        if threading.get_ident() in steady:
            taken.append((threading.get_ident(), block))
        return block

    def run():
        started.wait(timeout=60)
        workspace = workspaces[threading.get_ident()] = Workspace(Pool())
        with workspace.turn():  # lays the blocks out, in mappings of their own
            _node(features, probs)
        steady.add(threading.get_ident())
        for _ in range(20):
            with workspace.turn():
                results.append(_node(features, probs))

    monkeypatch.setattr(kernels, "_tmp", spy)
    threads = [threading.Thread(target=run) for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == 80 and len(taken) == 4 * 20 * 3
    for ident, block in taken:
        assert np.may_share_memory(block, workspaces[ident].pool.buffer)
    for value, grad, _ in results:
        assert value == expected[0]
        np.testing.assert_array_equal(grad, expected[1])


def test_a_turn_ended_by_an_exception_lends_nothing_and_holds_no_view():
    pool = Pool()
    pool.reserve(64)
    outer, inner = Workspace(), Workspace(pool)
    with outer.turn():
        with pytest.raises(RuntimeError, match="boom"):
            with inner.turn():
                inner.take("block", (8,), np.float64)
                assert kernels._LENT.workspace is inner
                raise RuntimeError("boom")
        assert kernels._LENT.workspace is outer  # the thread's previous turn lends again
    assert kernels._LENT.workspace is None
    holders = sys.getrefcount(pool.buffer) - 1  # less getrefcount's own
    assert inner.buffers == {} and holders == 1  # the pool's


# --------------------------------------------------------------------------- #
# The fit's pool
# --------------------------------------------------------------------------- #
def test_pool_grows_to_the_largest_reservation_at_a_claim():
    pool = Pool()
    pool.reserve(256)
    first = pool.claim()
    assert first.nbytes == 256
    assert pool.claim() is first
    pool.reserve(128)  # smaller than the buffer: no growth
    assert pool.claim() is first
    pool.reserve(1024)
    grown = pool.claim()
    assert grown.nbytes == 1024 and grown is not first


def test_turns_that_grow_the_pool_leave_no_old_buffer_alive():
    """Each tenant drops its views when its turn ends, so a buffer the pool
    replaces dies at once, also when one tenant grows it twice in a row
    and the other grows it next."""
    pool = Pool()
    program, weights = Workspace(pool), Workspace(pool)
    pool.reserve(64)
    buffers, growths = [weakref.ref(pool.buffer)], 0
    for tenant, size in [(program, 16), (program, 32), (weights, 64), (program, 4)]:
        with tenant.turn():
            growths += buffers[-1]() is not pool.buffer
            buffers.append(weakref.ref(pool.buffer))
            assert all(ref() is None or ref() is pool.buffer for ref in buffers)
            tenant.take("block", (size,), np.float64)  # past the buffer: the next claim grows it
    assert growths == 4


def test_pool_poisons_the_whole_buffer_at_each_claim(monkeypatch):
    monkeypatch.setattr(kernels, "POISON_FREED", True)
    pool = Pool()
    pool.reserve(64)
    pool.claim().view(np.float64)[:] = 1.0
    assert np.isnan(pool.claim().view(np.float64)).all()


def test_pooled_workspace_keeps_its_layout_and_maps_what_does_not_fit():
    pool = Pool()
    workspace = Workspace(pool)
    with workspace.turn():  # nothing reserved yet: an empty buffer
        spilled = workspace.take("a", (4, 3), np.float64)
        assert not np.may_share_memory(spilled, pool.buffer) and pool.nbytes >= spilled.nbytes
        workspace.take("b", (5,), np.float32)
    for _ in range(2):  # the pool grows to the layout, kept from turn to turn
        with workspace.turn():
            a = workspace.take("a", (2, 6), np.float64)
            b = workspace.take("b", (5,), np.float32)
            assert a.ctypes.data == pool.buffer.ctypes.data
            assert b.ctypes.data == pool.buffer.ctypes.data + 128  # 96 bytes, aligned


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
    """After each weight step: the fit's pool, its buffer and its weight layout."""
    seen = []
    original = SBRLTrainer._update_weights

    def spy(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        seen.append((self._pool, self._pool.buffer, dict(self._workspace._regions)))
        return value

    monkeypatch.setattr(SBRLTrainer, "_update_weights", spy)
    return seen


def test_fit_reuses_one_pool_and_drops_it(train, monkeypatch):
    seen = _spy_weight_steps(monkeypatch)
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0)
    estimator.fit(train)
    assert len(seen) == 6
    pool, _, layout = seen[0]
    assert isinstance(pool, Pool) and layout
    # The first weight step lays its blocks out; from the second on they
    # are found in one unchanged buffer.
    buffer = seen[1][1]
    assert buffer.nbytes == pool.nbytes
    for later, later_buffer, later_layout in seen[1:]:
        assert later is pool and later_buffer is buffer and later_layout == layout
    assert estimator.trainer._pool is None and estimator.trainer._workspace is None

    estimator.fit(train)
    assert seen[-1][0] is not pool
    assert estimator.trainer._pool is None and estimator.trainer._workspace is None


def test_minibatch_fit_reuses_one_workspace_of_its_own_and_drops_it(train, monkeypatch):
    """No replay program: the weight step's pair blocks stay in one workspace."""
    seen = []
    original = SBRLTrainer._update_weights

    def spy(self, *args, **kwargs):
        value = original(self, *args, **kwargs)
        seen.append((self._pool, self._workspace, dict(self._workspace.buffers)))
        return value

    monkeypatch.setattr(SBRLTrainer, "_update_weights", spy)
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(64), seed=0)
    estimator.fit(train)
    assert len(seen) == 6
    _, workspace, first = seen[0]
    assert workspace.pool is None and {key for key, _ in first} == {"pair_u", "pair_v", "pair_pu"}
    for pool, later, buffers in seen[1:]:
        # Equal-size minibatches: nothing regrows.
        assert pool is None and later is workspace
        assert all(buffers[key] is first[key] for key in first)
    assert estimator.trainer._workspace is None


def test_weight_step_features_share_the_buffer_of_the_program_op_outputs(train, monkeypatch):
    """The two tenants overlap: features and op outputs are views of one buffer."""
    features_owner, outputs_owner = [], []
    prepare = HierarchicalAttentionLoss.prepare

    def owner(array):
        while isinstance(array.base, np.ndarray):
            array = array.base
        return array

    def spy_prepare(self, *args, **kwargs):
        prepared = prepare(self, *args, **kwargs)
        features_owner.append({id(owner(f.data)) for f in prepared.features.values()})
        return prepared

    bind = ReplayProgram._bind

    def spy_bind(self, buffer):
        bind(self, buffer)
        if buffer is not None:  # a run's start
            outputs_owner.append({id(owner(self._bufs[sid])) for sid, _ in self._outputs})

    monkeypatch.setattr(HierarchicalAttentionLoss, "prepare", spy_prepare)
    monkeypatch.setattr(ReplayProgram, "_bind", spy_bind)
    HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0).fit(train)
    # Weight steps at iterations 0, 2, ..., 10; the program runs from 1 on.
    assert len(features_owner) == 6 and len(outputs_owner) == 10
    shared = features_owner[-1]
    assert len(shared) == 1 and outputs_owner[-1] == shared


def test_every_turn_in_a_fits_pool_ends_with_no_view_of_it(train, monkeypatch):
    """The program and the weight step drop their views when their turn
    ends: at every claim only the pool holds its buffer, so a claim that
    replaces the buffer frees the old one at once."""
    holders = []
    claim = Pool.claim

    def spy(self):
        holders.append(sys.getrefcount(self.buffer) - 1)  # less getrefcount's own
        return claim(self)

    monkeypatch.setattr(Pool, "claim", spy)
    HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0).fit(train)
    assert holders == [1] * 16  # 10 runs and 6 weight steps


def test_first_weight_step_runs_beside_no_recorded_op_output(train, monkeypatch):
    """Iteration 0 weighs after the recording: the program holds no op output then."""
    held = []
    original = SBRLTrainer._update_weights

    def spy(self, *args, **kwargs):
        program = self._replay.program
        held.append([program._bufs[sid] for sid, _ in program._outputs])
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SBRLTrainer, "_update_weights", spy)
    HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0).fit(train)
    assert held[0] and all(buf is None for buf in held[0])


def test_fit_drops_the_pool_when_a_callback_raises(train):
    class Boom(Callback):
        def on_iteration_end(self, loop, record):
            if record.iteration == 5:
                raise RuntimeError("boom")

    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0)
    trainer = estimator.build_trainer(train)
    with pytest.raises(RuntimeError, match="boom"):
        trainer.fit(train, callbacks=[Boom()])
    assert trainer._pool is None and trainer._workspace is None
    assert all(param.grad is None for param in trainer.backbone.parameters())


def test_deepcopy_of_a_fitted_estimator_carries_no_pool_and_refits(train):
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0)
    estimator.fit(train)
    memo: dict = {}
    candidate = copy.deepcopy(estimator, memo)
    assert not any(isinstance(value, (Pool, Workspace)) for value in memo.values())
    assert candidate.trainer._pool is None
    candidate.refit(train, init="fitted", epochs=4)
    assert candidate.trainer._pool is None
    assert np.all(np.isfinite(candidate.predict_ite(train.covariates)))


def test_a_replayed_fit_and_its_deep_copy_hold_no_parameter_gradient(train):
    """A gradient left on a parameter would pin the program's buffers past the fit."""
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=_config(), seed=0)
    estimator.fit(train)
    assert estimator.trainer._replay.stats["hits"] > 0
    for fitted in (estimator, copy.deepcopy(estimator)):
        assert all(param.grad is None for param in fitted.trainer.backbone.parameters())


def test_two_trainers_fitting_in_two_threads_equal_serial_fits(train):
    """Each fit owns its pool, so concurrent fits cannot clobber each other's blocks."""

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
