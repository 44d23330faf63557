"""Functional interface over :class:`repro.nn.tensor.Tensor`.

Provides activations, loss functions and **fused kernels** used by the
SBRL-HAP backbones.  All functions accept tensors or array-likes and return
tensors, so they can be dropped into both training graphs and pure NumPy
evaluation code.

The fused kernels (:func:`linear`, :func:`bce_with_logits`, the weighted
losses, :func:`rff_features`, :func:`weighted_pair_sq_cross_cov`,
:func:`weighted_rbf_mmd`) record a *single* graph node with a closed-form
vector-Jacobian product instead of composing dozens of broadcast
primitives.  That collapses the per-step node count of the RBF-MMD / HSIC
regularizer graphs by an order of magnitude (see
``benchmarks/bench_autodiff.py``).  Each function here checks its inputs
and dispatches one op of the kernel table (:mod:`repro.nn.kernels`), where
its forward and VJP are defined.  The two scalar regularizer nodes,
:func:`weighted_pair_sq_cross_cov` and :func:`weighted_rbf_mmd`, fold their
backward into the forward: it keeps only the gradients at unit upstream
gradient, and the VJP scales them.  Neither saves a ``(P, k, n)`` or
``n × m`` block, and each forms its representation or feature gradient
only when one is needed.

Numeric contract:

* eager == replay by construction: the eager node and its replayed
  instruction run the same kernel;
* every RBF kernel entry comes from one helper (an augmented gemm and an
  in-place ``exp``), which matches the ``|a|² + |b|² - 2 a·b`` expansion it
  replaced within a relative 1e-12;
* the :func:`weighted_rbf_mmd` value and gradients match the kernel-block
  composition (three RBF kernel blocks reduced by bilinear forms) within a
  relative 1e-12 (``tests/test_network_step_mmd.py`` keeps it
  verbatim as the reference); the tiled sweep sums in a different order;
* the batched HSIC pair node sums in a different order than the per-pair
  composition it replaced, so it matches that within a relative 1e-12,
  not bitwise (``tests/test_weight_objective.py`` keeps the old
  compositions as the reference); its gradients are the unit gradients
  times ``g``;
* the working blocks of both scalar regularizer nodes come from the
  :class:`~repro.nn.kernels.Workspace` lent to the running turn on this
  thread (a replay run, or the trainer's weight step), else from
  temporaries; where they come from changes no bit of a value or
  gradient;
* end to end, the golden-regression suite pins fitted metrics at a
  relative 1e-5.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import kernels
from .tensor import ArrayLike, Tensor, _apply, as_tensor, is_grad_enabled

__all__ = [
    "elu",
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
    "linear",
    "bce_with_logits",
    "mse_loss",
    "weighted_mse_loss",
    "binary_cross_entropy",
    "weighted_binary_cross_entropy",
    "l2_penalty",
    "normalize_rows",
    "rff_features",
    "weighted_pair_sq_cross_cov",
    "weighted_rbf_mmd",
]


def elu(x: ArrayLike, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit, the activation used throughout the paper."""
    return as_tensor(x).elu(alpha)


def relu(x: ArrayLike) -> Tensor:
    """Rectified linear unit."""
    return as_tensor(x).relu()


def sigmoid(x: ArrayLike) -> Tensor:
    """Logistic sigmoid."""
    return as_tensor(x).sigmoid()


def tanh(x: ArrayLike) -> Tensor:
    """Hyperbolic tangent."""
    return as_tensor(x).tanh()


def softplus(x: ArrayLike) -> Tensor:
    """Numerically stable ``log(1 + exp(x))``."""
    return as_tensor(x).softplus()


def _with_operands(tensor: ArrayLike, *operands: ArrayLike) -> tuple:
    """``tensor``, then each operand (a target, weights) given as an array made in its dtype."""
    tensor = as_tensor(tensor)
    return (tensor,) + tuple([as_tensor(operand, like=tensor) for operand in operands])


# --------------------------------------------------------------------------- #
# Fused affine / kernel primitives
# --------------------------------------------------------------------------- #
def linear(x: ArrayLike, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one fused graph node.

    Supports the same 1-D/2-D operand ranks as :meth:`Tensor.matmul`; the
    bias gradient is reduced over broadcast dimensions.  An array ``x`` is
    made in the weight's dtype.
    """
    weight = as_tensor(weight)
    parents = (as_tensor(x, like=weight), weight)
    return _apply("linear", parents if bias is None else parents + (as_tensor(bias),))


def bce_with_logits(
    logits: ArrayLike, target: ArrayLike, weights: Optional[ArrayLike] = None
) -> Tensor:
    """Numerically stable (weighted) binary cross-entropy on raw logits.

    Computes ``mean(w * (softplus(z) - t * z))`` as a single fused node —
    no intermediate sigmoid, no probability clipping, and the classic
    well-conditioned gradient ``w * (sigmoid(z) - t) / n``.
    """
    operands = (target,) if weights is None else (target, weights)
    return _apply("bce_with_logits", _with_operands(logits, *operands))


# --------------------------------------------------------------------------- #
# Fused losses (bit-identical to the historical op compositions)
# --------------------------------------------------------------------------- #
def mse_loss(prediction: ArrayLike, target: ArrayLike) -> Tensor:
    """Mean squared error (fused single node)."""
    return _apply("mse_loss", _with_operands(prediction, target))


def weighted_mse_loss(prediction: ArrayLike, target: ArrayLike, weights: ArrayLike) -> Tensor:
    """Sample-weighted mean squared error, Eq. (13) of the paper (fused).

    ``weights`` are not assumed to sum to ``n``; the loss divides by ``n`` so
    the scale matches the unweighted loss when all weights are one.
    """
    return _apply("weighted_mse_loss", _with_operands(prediction, target, weights))


def binary_cross_entropy(prediction: ArrayLike, target: ArrayLike, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)`` (fused node)."""
    return _apply("bce", _with_operands(prediction, target), {"eps": eps})


def weighted_binary_cross_entropy(
    prediction: ArrayLike, target: ArrayLike, weights: ArrayLike, eps: float = 1e-7
) -> Tensor:
    """Sample-weighted binary cross-entropy (used for binary outcomes)."""
    return _apply("bce", _with_operands(prediction, target, weights), {"eps": eps})


def l2_penalty(parameters) -> Tensor:
    """Sum of squared parameter values (the paper's ``R_l2`` term), fused, in their dtype."""
    params = tuple([as_tensor(param) for param in parameters])
    dtype = np.result_type(*[param.data for param in params]) if params else np.dtype(np.float64)
    return _apply("l2_penalty", params, {"dtype": dtype})


def normalize_rows(x: ArrayLike, eps: float = 1e-8) -> Tensor:
    """Project each row onto the unit sphere (the paper's ``rep_normalization``).

    Fused: one node computing ``x / (||x||_2 + eps)`` per row with the exact
    VJP of the historical sum/sqrt/divide chain (including its ``1e-12``
    guard on the square root).
    """
    return _apply("normalize_rows", (as_tensor(x),), {"eps": eps})


# --------------------------------------------------------------------------- #
# Fused HSIC-RFF building blocks
# --------------------------------------------------------------------------- #
def rff_features(
    values: ArrayLike,
    frequencies: np.ndarray,
    phases: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> Tensor:
    """Random-Fourier-feature map ``sqrt(2) * cos(v * w + phi)`` (fused).

    With 1-D ``frequencies`` / ``phases`` of length ``k``, ``values`` is a
    column of ``n`` samples (any shape that ravels to ``n``) and the output
    is ``(n, k)``.  With ``(c, k)`` draws, ``values`` is an ``(n, c)``
    matrix, column ``j`` uses draw ``j``, and the output is ``(c, k, n)``:
    per column, its ``k`` features over the ``n`` samples (samples last, so
    the per-sample weighting downstream runs along contiguous memory).  The
    draws are constants and receive no gradient.  ``attrs`` records whether
    the values need a gradient (grad mode on and ``values`` requiring one);
    only then does the node keep ``v * w + phi`` for its VJP.

    ``out`` is a caller's buffer of the output's shape and the values'
    dtype (the weight step passes a pool region).  The features are then
    written into it by the op's array function and returned as a constant
    tensor, with no graph node, which needs values that take no gradient.
    """
    v_t = as_tensor(values)
    values_grad = is_grad_enabled() and v_t.requires_grad
    frequencies = np.asarray(frequencies, dtype=v_t.data.dtype)
    phases = np.asarray(phases, dtype=v_t.data.dtype)
    if out is not None:
        if values_grad:
            raise ValueError("rff_features(out=...) needs values that take no gradient")
        return Tensor(kernels.rff_features(v_t.data, frequencies, phases, out))
    attrs = {"values_grad": values_grad, "frequencies": frequencies, "phis": phases}
    return _apply("rff_features", (v_t,), attrs)


def weighted_pair_sq_cross_cov(
    features: ArrayLike,
    probs: ArrayLike,
    left: np.ndarray,
    right: np.ndarray,
) -> Tensor:
    """``Σ_p ||C_w(u_{left[p]}, u_{right[p]})||²`` over the selected column pairs, fused.

    ``features`` is a ``(c, k, n)`` stack of per-column RFF blocks (see
    :func:`rff_features`), ``probs`` a normalised weight vector of ``n``
    entries, and ``left`` / ``right`` the ``P`` column indices of each
    pair: 1-D, of equal length, each in ``[0, c)`` (anything else raises
    ``ValueError``).  ``C_w(u, v) = (p ⊙ (u - E_p u))ᵀ (v - E_p v)`` is the
    StableNet weighted cross-covariance, so one node is the whole
    Independence Regularizer sum of one layer (Eq. 10).

    The forward gathers and centres the pairs' ``(P, k, n)`` blocks, forms
    every cross-covariance in one batched matmul, and in the same call
    forms the gradients at unit upstream gradient, which the VJP scales;
    the node saves no ``(P, k, n)`` block.  The feature gradient is formed
    only when grad mode is on and ``features`` requires a gradient;
    ``attrs`` records that choice, so a replayed program repeats it.  The
    working blocks come from the workspace lent to the running turn (a
    caller that evaluates many nodes keeps their pages resident that way)
    and are temporaries otherwise.
    """
    f_t = as_tensor(features)
    p_t = as_tensor(probs)
    if f_t.ndim != 3:
        raise ValueError("features must be a (columns, k, n) stack of RFF blocks")
    columns, _, n = f_t.shape
    left, right = np.asarray(left), np.asarray(right)
    if left.ndim != 1 or left.shape != right.shape:
        raise ValueError(
            f"left and right must be 1-D column indices of equal length; got shapes "
            f"{left.shape} and {right.shape}"
        )
    if left.size and (min(left.min(), right.min()) < 0 or max(left.max(), right.max()) >= columns):
        raise ValueError(f"pair column indices must lie in [0, {columns})")
    if p_t.size != n:
        raise ValueError(f"probs must hold one entry per sample: got {p_t.size} for n = {n}")
    full = is_grad_enabled() and f_t.requires_grad
    attrs = {
        "left": np.asarray(left, dtype=np.intp),
        "right": np.asarray(right, dtype=np.intp),
        "products": "full" if full else "weights",
    }
    return _apply("weighted_pair_sq_cross_cov", (f_t, p_t), attrs)


# --------------------------------------------------------------------------- #
# Fused weighted RBF-MMD (the Balancing Regularizer, Eq. 4)
# --------------------------------------------------------------------------- #
def weighted_rbf_mmd(
    rep_control: ArrayLike,
    rep_treated: ArrayLike,
    weights_control: ArrayLike,
    weights_treated: ArrayLike,
    sigma: float = 1.0,
) -> Tensor:
    """Weighted RBF-MMD ``w_cᵀK_cc w_c + w_tᵀK_tt w_t - 2 w_cᵀK_ct w_t``, one node.

    ``weights_control`` / ``weights_treated`` are used as given (callers
    pass weights normalised to sum one).  The forward sweeps the stacked
    kernel in tiles (``kernels._rbf_mmd_sweep``) and keeps only the
    gradients at unit upstream gradient, which the VJP scales; no ``n × m``
    block outlives its tile.  The representation products run only when
    grad mode is on and a representation requires a gradient; ``attrs``
    records that choice, so a replayed program repeats it.  The sweep's
    augmented rows, weight block, accumulator and tile come from the
    workspace lent to the running turn (a replay run's, or the weight
    step's in the fit's pool), else from the node's own temporaries.  The
    value and gradients match the RBF kernel-block composition within a
    relative 1e-12.
    """
    parents = tuple(
        [as_tensor(x) for x in (rep_control, rep_treated, weights_control, weights_treated)]
    )
    rep_c, rep_t, w_c, w_t = parents
    if rep_c.ndim != 2 or rep_t.ndim != 2 or rep_c.shape[1] != rep_t.shape[1]:
        raise ValueError(
            "weighted_rbf_mmd expects 2-D (rows, features) representations of equal width"
        )
    if w_c.size != rep_c.shape[0] or w_t.size != rep_t.shape[0]:
        raise ValueError(
            f"weighted_rbf_mmd needs one weight per representation row in each arm; got {w_c.size} "
            f"for {rep_c.shape[0]} control rows and {w_t.size} for {rep_t.shape[0]} treated rows"
        )
    full = is_grad_enabled() and (rep_c.requires_grad or rep_t.requires_grad)
    attrs = {
        "scale": -1.0 / (2.0 * sigma ** 2),
        "products": "full" if full else "weights",
    }
    return _apply("weighted_rbf_mmd", parents, attrs)
