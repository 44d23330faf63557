"""The op table (:mod:`repro.nn.kernels`) is the only definition of every op.

* every eager op's forward and backward run its table kernels, once each,
  so eager autodiff and graph replay share one ``fwd``/``vjp`` per op;
* the table holds exactly the engine's 37 ops;
* an eager node keeps only what its VJP reads (ELU's forward scratch is a
  temporary, not node state).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.kernels import KERNELS, Kernel
from repro.nn.tensor import Tensor, concatenate, stack


def _normal(*shape):
    return lambda rng: rng.normal(size=shape)


def _positive(*shape):
    return lambda rng: np.abs(rng.normal(size=shape)) + 0.5


def _unit(*shape):
    return lambda rng: rng.uniform(0.1, 0.9, size=shape)


_FREQS = np.random.default_rng(5).normal(size=(2, 3))
_PHASES = np.random.default_rng(6).uniform(0.0, 6.0, size=(2, 3))

#: op name -> (graph over requires_grad leaves, leaf makers)
OP_CASES = {
    "add": (lambda a, b: a + b, [_normal(3, 4), _normal(3, 4)]),
    "neg": (lambda a: -a, [_normal(3, 4)]),
    "mul": (lambda a, b: a * b, [_normal(3, 4), _normal(4)]),
    "div": (lambda a, b: a / b, [_normal(3, 4), _positive(3, 4)]),
    "pow": (lambda a: a ** 2.5, [_positive(3, 4)]),
    "matmul": (lambda a, b: a @ b, [_normal(3, 4), _normal(4, 2)]),
    "sum": (lambda a: a.sum(axis=1), [_normal(3, 4)]),
    "exp": (lambda a: a.exp(), [_normal(3, 4)]),
    "log": (lambda a: a.log(), [_positive(3, 4)]),
    "sqrt": (lambda a: a.sqrt(), [_positive(3, 4)]),
    "abs": (lambda a: a.abs(), [_normal(3, 4)]),
    "tanh": (lambda a: a.tanh(), [_normal(3, 4)]),
    "sigmoid": (lambda a: a.sigmoid(), [_normal(3, 4)]),
    "relu": (lambda a: a.relu(), [_normal(3, 4)]),
    "elu": (lambda a: a.elu(), [_normal(3, 4)]),
    "softplus": (lambda a: a.softplus(), [_normal(3, 4)]),
    "cos": (lambda a: a.cos(), [_normal(3, 4)]),
    "sin": (lambda a: a.sin(), [_normal(3, 4)]),
    "clip": (lambda a: a.clip(-0.5, None), [_normal(3, 4)]),
    "maximum": (lambda a, b: a.maximum(b), [_normal(3, 4), _normal(3, 4)]),
    "reshape": (lambda a: a.reshape(4, 3), [_normal(3, 4)]),
    "transpose": (lambda a: a.transpose(), [_normal(3, 4)]),
    "getitem": (lambda a: a[1:, [0, 2]], [_normal(3, 4)]),
    "concatenate": (lambda a, b: concatenate([a, b], axis=1), [_normal(3, 4), _normal(3, 2)]),
    "stack": (lambda a, b: stack([a, b], axis=1), [_normal(3, 4), _normal(3, 4)]),
    "linear": (F.linear, [_normal(3, 4), _normal(4, 2), _normal(2)]),
    "pairwise_sq_dists": (F.pairwise_sq_dists, [_normal(3, 2), _normal(4, 2)]),
    "rbf_kernel": (lambda a, b: F.rbf_kernel(a, b, 1.3), [_normal(3, 2), _normal(4, 2)]),
    "bce_with_logits": (F.bce_with_logits, [_normal(5), _unit(5), _positive(5)]),
    "mse_loss": (F.mse_loss, [_normal(5), _normal(5)]),
    "weighted_mse_loss": (F.weighted_mse_loss, [_normal(5), _normal(5), _positive(5)]),
    "bce": (F.weighted_binary_cross_entropy, [_unit(5), _unit(5), _positive(5)]),
    "l2_penalty": (lambda a, b: F.l2_penalty([a, b]), [_normal(3, 4), _normal(2)]),
    "normalize_rows": (F.normalize_rows, [_normal(3, 4)]),
    "rff_features": (lambda v: F.rff_features(v, _FREQS, _PHASES), [_normal(5, 2)]),
    "weighted_pair_sq_cross_cov": (
        lambda f, p: F.weighted_pair_sq_cross_cov(f, p, np.array([0, 1]), np.array([2, 2])),
        [_normal(3, 2, 5), _positive(5)],
    ),
    "weighted_rbf_mmd": (
        lambda rc, rt, wc, wt: F.weighted_rbf_mmd(rc, rt, wc, wt, 1.3),
        [_normal(3, 2), _normal(4, 2), _positive(3), _positive(4)],
    ),
}


def test_table_holds_exactly_the_engine_ops():
    assert len(KERNELS) == 37
    assert set(KERNELS) == set(OP_CASES)
    for name, kernel in KERNELS.items():
        assert kernel.name == name


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_eager_op_runs_its_table_kernels_once(op, monkeypatch):
    build, makers = OP_CASES[op]
    kernel = KERNELS[op]
    calls = {"fwd": 0, "vjp": 0}

    def fwd(*args):
        calls["fwd"] += 1
        return kernel.fwd(*args)

    def vjp(*args):
        calls["vjp"] += 1
        return kernel.vjp(*args)

    monkeypatch.setitem(KERNELS, op, Kernel(op, fwd, vjp))
    rng = np.random.default_rng(0)
    leaves = [Tensor(make(rng), requires_grad=True) for make in makers]
    out = build(*leaves)
    assert calls == {"fwd": 1, "vjp": 0}
    out.backward(np.ones_like(out.data))
    assert calls == {"fwd": 1, "vjp": 1}
    assert all(leaf.grad is not None for leaf in leaves)
    # The released node keeps neither its op state nor its parents.
    assert out._parents == ()


def test_eager_elu_node_keeps_only_its_mask():
    """Forward-only scratch must not live until backward (page faults, RSS)."""
    x = Tensor(np.random.default_rng(1).normal(size=(6, 5)), requires_grad=True)
    out = x.elu()
    kernel, attrs, ctx = out._backward
    assert kernel is KERNELS["elu"]
    assert set(ctx) == {"pos"}
