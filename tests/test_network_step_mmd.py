"""The fused weighted RBF-MMD against the composition it replaced.

``mmd_rbf_weighted`` is one ``weighted_rbf_mmd`` node that sweeps the
stacked kernel in tiles built from augmented gemms.  This file keeps the
previous formulation verbatim as the reference:

* the ``|a|² + |b|² - 2 a·b`` → scale → ``exp`` kernel node with its
  closed-form backward;
* three such blocks with a differentiable kernel, each reduced by the
  elementwise bilinear form ``Σ_ij a_i K_ij b_j``.

The sweep's kernel entries (the augmented gemm and in-place ``exp``)
match that node's, and the value and all four gradients must match it
within a relative 1e-12, also with the tile shrunk so that arm boundaries
fall inside tiles and last tiles are ragged.  It also pins the memory picture: an eager call and
a recorded full-batch CFR + ``mmd_rbf`` network step keep no array of
``n_c · n_t`` elements (the step counts its ctx, its workspace and its
gradient arena), and a float32 step stays in float32.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.metrics.ipm import mmd_rbf_weighted
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.tape import TapeRecorder
from repro.nn.tensor import Tensor, as_tensor, no_grad

RTOL = 1e-12
SIGMA = 1.7


# --------------------------------------------------------------------------- #
# Reference: the kernel-block composition, kept verbatim
# --------------------------------------------------------------------------- #
def reference_rbf_kernel(a, b, sigma: float) -> Tensor:
    """The expansion → scale → ``exp`` kernel node the augmented gemm replaced."""
    a_t, b_t = as_tensor(a), as_tensor(b)
    scale = -1.0 / (2.0 * sigma ** 2)
    cross = a_t.data @ b_t.data.T
    cross *= 2.0
    out_data = np.sum(a_t.data * a_t.data, axis=1)[:, None] + np.sum(b_t.data * b_t.data, axis=1)[None, :]
    out_data -= cross
    out_data *= scale
    np.exp(out_data, out=out_data)

    def backward(grad, at=a_t, bt=b_t, s=scale):
        grad_sq = grad * out.data * s
        a_data, b_data = at.data, bt.data
        out._send(at, 2.0 * a_data * grad_sq.sum(axis=1, keepdims=True) - 2.0 * (grad_sq @ b_data))
        out._send(bt, 2.0 * b_data * grad_sq.sum(axis=0)[:, None] - 2.0 * (grad_sq.T @ a_data))

    out = Tensor._make(out_data, (a_t, b_t), backward)
    return out


def reference_bilinear(weights_a: Tensor, kernel: Tensor, weights_b: Tensor) -> Tensor:
    """The elementwise ``Σ_ij a_i K_ij b_j`` node."""
    a_t, k_t, b_t = as_tensor(weights_a), as_tensor(kernel), as_tensor(weights_b)
    col = a_t.data.reshape(-1, 1)
    row = b_t.data.reshape(1, -1)
    weighted = col * k_t.data
    value = (weighted * row).sum()

    def backward(grad, at=a_t, kt=k_t, bt=b_t, col=col, row=row, weighted=weighted):
        out._send(at, (grad * (kt.data * row).sum(axis=1)).reshape(at.data.shape))
        out._send(kt, grad * (col * row))
        out._send(bt, (grad * weighted.sum(axis=0)).reshape(bt.data.shape))

    out = Tensor._make(np.asarray(value), (a_t, k_t, b_t), backward)
    return out


def reference_weighted_rbf_mmd(rep_control, rep_treated, w_c, w_t, sigma):
    """Differentiable kernel blocks reduced through the elementwise bilinear form."""
    k_cc = reference_bilinear(w_c, reference_rbf_kernel(rep_control, rep_control, sigma), w_c)
    k_tt = reference_bilinear(w_t, reference_rbf_kernel(rep_treated, rep_treated, sigma), w_t)
    k_ct = reference_bilinear(w_c, reference_rbf_kernel(rep_control, rep_treated, sigma), w_t)
    return k_cc + k_tt - 2.0 * k_ct


def reference_mmd_rbf_weighted(rep_control, rep_treated, weights_control, weights_treated, sigma):
    """:func:`reference_weighted_rbf_mmd` over weights normalised to sum one."""

    def normalised(weights):
        weights = as_tensor(weights)
        return weights / (weights.sum() + 1e-12)

    w_c = normalised(weights_control)
    w_t = normalised(weights_treated)
    return reference_weighted_rbf_mmd(rep_control, rep_treated, w_c, w_t, sigma)


def _relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference relative to the largest reference entry."""
    return float(np.max(np.abs(actual - expected)) / np.max(np.abs(expected)))


def _groups(n_control: int, n_treated: int):
    rng = np.random.default_rng(n_control * 100 + n_treated)
    return (
        rng.normal(size=(n_control, 5)),
        rng.normal(size=(n_treated, 5)) + 0.3,
        rng.uniform(0.2, 2.0, size=n_control),
        rng.uniform(0.2, 2.0, size=n_treated),
    )


def _value_and_grads(fn, arrays, differentiable=(True, True, True, True)):
    leaves = [
        Tensor(array.copy(), requires_grad=flag) for array, flag in zip(arrays, differentiable)
    ]
    loss = fn(*leaves)
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves]


def _fused(c, t, wc, wt):
    return mmd_rbf_weighted(c, t, wc, wt, sigma=SIGMA)


def _reference(c, t, wc, wt):
    return reference_mmd_rbf_weighted(c, t, wc, wt, SIGMA)


def _node(c, t, wc, wt):
    return F.weighted_rbf_mmd(c, t, wc, wt, SIGMA)


def _node_reference(c, t, wc, wt):
    return reference_weighted_rbf_mmd(c, t, wc, wt, SIGMA)


def _assert_matches_reference(arrays, fused=_fused, reference=_reference):
    value, grads = _value_and_grads(fused, arrays)
    ref_value, ref_grads = _value_and_grads(reference, arrays)
    assert value == pytest.approx(ref_value, rel=RTOL, abs=0.0)
    for grad, ref_grad in zip(grads, ref_grads):
        assert grad.shape == ref_grad.shape
        assert _relative_error(grad, ref_grad) <= RTOL


ARMS = [(40, 40), (37, 23)]
#: Arms for a 4-row tile: single-tile inputs, an arm boundary inside a
#: tile, a boundary on a tile edge, and ragged last tiles.
TILE_ARMS = [(1, 1), (3, 5), (4, 4), (9, 2)]


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("n_control, n_treated", ARMS)
def test_kernel_block_matches_the_expansion(n_control, n_treated):
    control, treated, _, _ = _groups(n_control, n_treated)
    for a, b in ((control, control), (treated, treated), (control, treated)):
        scale = -1.0 / (2.0 * SIGMA ** 2)
        new = kernels._rbf_entries(kernels._rbf_left(a, scale), kernels._rbf_right(b, scale))
        old = reference_rbf_kernel(a, b, SIGMA).numpy()
        np.testing.assert_allclose(new, old, rtol=RTOL, atol=0.0)


@pytest.mark.parametrize("n_control, n_treated", ARMS)
def test_fused_value_is_bitwise_the_kernel_block_composition(n_control, n_treated):
    """Within rel 1e-12 of the verbatim composition: the tiled sweep sums in another order."""
    arrays = _groups(n_control, n_treated)
    fused = mmd_rbf_weighted(*arrays, sigma=SIGMA).item()
    expected = reference_mmd_rbf_weighted(*arrays, SIGMA).item()
    assert fused == pytest.approx(expected, rel=RTOL, abs=0.0)


@pytest.mark.parametrize("n_control, n_treated", ARMS)
def test_fused_gradients_match_the_reference_composition(n_control, n_treated):
    _assert_matches_reference(_groups(n_control, n_treated))


@pytest.mark.parametrize("n_control, n_treated", TILE_ARMS)
def test_tile_boundaries_match_the_reference(n_control, n_treated, monkeypatch):
    """The node on unnormalised weights, so a one-row arm's weight gradient is not ~1e-12 noise."""
    monkeypatch.setattr(kernels, "RBF_MMD_TILE", 4)
    arrays = _groups(n_control, n_treated)
    _assert_matches_reference(arrays, _node, _node_reference)
    value = mmd_rbf_weighted(*arrays, sigma=SIGMA).item()
    assert value == pytest.approx(_reference(*arrays).item(), rel=RTOL, abs=0.0)


@pytest.mark.parametrize("n_control, n_treated", TILE_ARMS + ARMS)
def test_weights_only_sweep_gives_the_full_sweeps_weight_gradients(
    n_control, n_treated, monkeypatch
):
    """Constant representations skip the ``K (a ⊙ X)`` products, not the weight gradients."""
    monkeypatch.setattr(kernels, "RBF_MMD_TILE", 4)
    arrays = _groups(n_control, n_treated)
    value, grads = _value_and_grads(_node, arrays)
    weights_value, weights_grads = _value_and_grads(_node, arrays, (False, False, True, True))
    assert weights_value == pytest.approx(value, rel=RTOL, abs=0.0)
    assert weights_grads[:2] == [None, None]
    for grad, full_grad in zip(weights_grads[2:], grads[2:]):
        assert _relative_error(grad, full_grad) <= RTOL


def test_node_records_which_products_the_sweep_forms():
    arrays = _groups(5, 4)
    leaves = [Tensor(array, requires_grad=True) for array in arrays]
    constant_reps = [Tensor(array) for array in arrays[:2]] + leaves[2:]
    for parents, products in ((leaves, "full"), (constant_reps, "weights")):
        _, attrs, ctx = F.weighted_rbf_mmd(*parents, SIGMA)._backward
        assert attrs["products"] == products
        # Only the unit gradients live until backward.
        assert set(ctx) == ({"unit_x", "unit_w"} if products == "full" else {"unit_w"})
    # Under no_grad nothing needs a gradient: the sweep forms K a alone.
    with no_grad():
        value = F.weighted_rbf_mmd(*leaves, SIGMA).item()
    assert value == F.weighted_rbf_mmd(*arrays, SIGMA).item()


def test_argument_checks():
    control, treated, w_control, w_treated = _groups(4, 3)
    with pytest.raises(ValueError, match="equal width"):
        F.weighted_rbf_mmd(control, treated[:, :4], w_control, w_treated)
    with pytest.raises(ValueError, match="2-D"):
        F.weighted_rbf_mmd(control[0], treated, w_control, w_treated)
    # One weight too many in one arm and one too few in the other would pair
    # rows silently once the arms are stacked.
    too_long = np.append(w_control, 1.0)
    with pytest.raises(ValueError, match="one weight per representation row"):
        F.weighted_rbf_mmd(control, treated, too_long, w_treated[:-1])
    with pytest.raises(ValueError, match="one weight per representation row"):
        F.weighted_rbf_mmd(control, treated, w_control, w_treated[:-1])


def test_eager_call_holds_no_kernel_block():
    """Forward and backward at 1500 rows per arm stay below one 1500 × 1500 block."""
    rng = np.random.default_rng(0)
    n, d = 1500, 8
    arrays = (
        rng.normal(size=(n, d)),
        rng.normal(size=(n, d)) + 0.3,
        rng.uniform(0.2, 2.0, size=n),
        rng.uniform(0.2, 2.0, size=n),
    )
    leaves = [Tensor(array, requires_grad=True) for array in arrays]
    tracemalloc.start()
    try:
        mmd_rbf_weighted(*leaves, sigma=SIGMA).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(leaf.grad is not None for leaf in leaves)
    assert peak < n * n * 8, peak


def test_float32_network_step_node_keeps_its_gradients_float32():
    """No NumPy float64 scalar may promote the fused kernels (NEP 50).

    The arms are leaves here: behind CFR's row gathers a float64 gradient
    would be cast back to float32 silently, so only the node's own outputs
    can show a promotion.
    """
    arrays = [array.astype(np.float32) for array in _groups(23, 17)]

    def step():
        leaves = [Tensor(array, requires_grad=True) for array in arrays]
        loss = F.weighted_rbf_mmd(*leaves, SIGMA)
        loss.backward()
        return leaves, loss

    leaves, loss = step()
    assert loss.data.dtype == np.float32
    assert [leaf.grad.dtype for leaf in leaves] == [np.float32] * 4
    with TapeRecorder() as recorder:
        leaves, loss = step()
    program = recorder.finalize(loss)
    assert program is not None, recorder.aborted
    program.run()
    assert [leaf.grad.dtype for leaf in leaves] == [np.float32] * 4


def test_recorded_network_step_runs_one_fused_node_and_no_n_by_m_temporaries():
    generator = SyntheticGenerator(
        SyntheticConfig(num_instruments=3, num_confounders=3, num_adjustments=3, seed=2)
    )
    train = generator.generate_train_test_protocol(num_samples=400, seed=2)["train"]
    config = SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6),
        regularizers=RegularizerConfig(
            alpha=0.1, ipm_kind="mmd_rbf", max_pairs_per_layer=4, subsample_threshold=None
        ),
        training=TrainingConfig(
            iterations=3, early_stopping_patience=None, seed=2, graph_replay="auto"
        ),
    )
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=2)
    estimator.fit(train)
    # A fit releases its program: record one with a step after it, and run
    # it twice, so the program has planned its memory and run planned.
    trainer = estimator.trainer
    train_std = train.standardize()[0]
    for _ in range(3):
        trainer._network_step(train_std.covariates, train_std.treatment, train_std.outcome)
    assert trainer.last_step_stats["replay_hit"] is True
    program = trainer._replay.program
    # A run's turn ends with no view of the pool: bind the pool's bytes and
    # view every block the workspace laid out there, to look at them.
    program._bind(program.pool.buffer)
    program.workspace.bind(program.pool.buffer)
    for (key, dtype), (_, size) in program.workspace._regions.items():
        program.workspace.take(key, (size,), dtype)

    ops = [instr.op for instr in program.instructions]
    assert ops.count("weighted_rbf_mmd") == 1
    [fused] = [instr for instr in program.instructions if instr.op == "weighted_rbf_mmd"]
    assert fused.attrs["products"] == "full"

    # n_c·n_t exceeds the tile buffer and every row buffer of the sweep, so
    # an array that large could only be a kernel block (or worse).
    # The sweep's tile now lives in the program's workspace, and gradient
    # buffers in its arena: the check covers ctx, the workspace and the
    # arena, in bytes.
    n_treated = int(train.treatment.sum())
    limit = (len(train) - n_treated) * n_treated * 8
    width = fused.ins[0].shape[1]
    assert limit > kernels.RBF_MMD_TILE ** 2 * 8 and limit > len(train) * (width + 2) * 8
    tile = program.workspace.buffers[("tile", np.dtype(np.float64))]
    assert tile.size == kernels.RBF_MMD_TILE ** 2
    assert program.arena is not None and program.arena.nbytes < limit
    for buf in program.workspace.buffers.values():
        assert buf.nbytes < limit, buf.shape
    for instr in program.instructions:
        stack = list(instr.ctx.values())
        while stack:
            item = stack.pop()
            if isinstance(item, (tuple, list)):
                stack.extend(item)
            elif isinstance(item, np.ndarray):
                assert item.nbytes < limit, (instr.op, item.shape)
