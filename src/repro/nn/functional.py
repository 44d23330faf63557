"""Functional interface over :class:`repro.nn.tensor.Tensor`.

Provides activations, loss functions and **fused kernels** used by the
SBRL-HAP backbones.  All functions accept tensors or array-likes and return
tensors, so they can be dropped into both training graphs and pure NumPy
evaluation code.

The fused kernels (:func:`linear`, :func:`pairwise_sq_dists`,
:func:`rbf_kernel`, :func:`bce_with_logits`, the weighted losses,
:func:`rff_features`, :func:`weighted_pair_sq_cross_cov`,
:func:`bilinear_weighted_sum`, :func:`weighted_rbf_mmd`) record a *single*
graph node with a closed-form vector-Jacobian product instead of composing
dozens of broadcast primitives.  That collapses the per-step node count of
the RBF-MMD / HSIC regularizer graphs by an order of magnitude (see
``benchmarks/bench_autodiff.py``).

Numeric contract:

* eager == replay == stacked, bit for bit: each fused node and its tape
  kernel (:mod:`repro.nn.tape`) run the same array code;
* every RBF kernel block comes from one helper (an augmented gemm and an
  in-place ``exp``), which matches the ``|a|² + |b|² - 2 a·b`` expansion it
  replaced within a relative 1e-12;
* the :func:`weighted_rbf_mmd` value is bitwise the kernel-block
  composition's (:func:`rbf_kernel` blocks reduced by
  :func:`bilinear_weighted_sum`), and its gradients match that
  composition's within a relative 1e-12
  (``tests/test_network_step_mmd.py``);
* the batched HSIC pair node and the mat-vec bilinear form sum in a
  different order than the per-pair / elementwise compositions they
  replaced, so they match those within a relative 1e-12, not bitwise
  (``tests/test_weight_objective.py`` keeps the old compositions as the
  reference);
* end to end, the golden-regression suite pins fitted metrics at a
  relative 1e-5.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from .tensor import ArrayLike, Tensor, _matmul_vjp, _tape_record, as_tensor, get_default_dtype

__all__ = [
    "elu",
    "relu",
    "sigmoid",
    "tanh",
    "softplus",
    "linear",
    "pairwise_sq_dists",
    "rbf_kernel",
    "bce_with_logits",
    "mse_loss",
    "weighted_mse_loss",
    "binary_cross_entropy",
    "weighted_binary_cross_entropy",
    "l2_penalty",
    "normalize_rows",
    "rff_features",
    "weighted_pair_sq_cross_cov",
    "bilinear_weighted_sum",
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


# --------------------------------------------------------------------------- #
# Fused affine / kernel primitives
# --------------------------------------------------------------------------- #
def linear(x: ArrayLike, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` as one fused graph node.

    Supports the same 1-D/2-D operand ranks as :meth:`Tensor.matmul`; the
    bias gradient is reduced over broadcast dimensions.
    """
    x_t = as_tensor(x)
    w_t = as_tensor(weight)
    if bias is None:
        out_data = x_t.data @ w_t.data

        def backward(grad: np.ndarray, a=x_t, w=w_t) -> None:
            grad_a, grad_w = _matmul_vjp(grad, a.data, w.data)
            out._send(a, grad_a)
            out._send(w, grad_w)

        out = Tensor._make(out_data, (x_t, w_t), backward)
        return _tape_record(out, "linear", (x_t, w_t))

    b_t = as_tensor(bias)
    out_data = (x_t.data @ w_t.data) + b_t.data

    def backward(grad: np.ndarray, a=x_t, w=w_t, b=b_t) -> None:
        grad_a, grad_w = _matmul_vjp(grad, a.data, w.data)
        out._send(a, grad_a)
        out._send(w, grad_w)
        out._send(b, grad)

    out = Tensor._make(out_data, (x_t, w_t, b_t), backward)
    return _tape_record(out, "linear", (x_t, w_t, b_t))


def _pairwise_sq_data(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``|a_i|² + |b_j|² - 2 a_i·b_j``, with one ``n × m`` temporary."""
    cross = a @ b.T
    cross *= 2.0
    out = np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
    out -= cross
    return out


def _pairwise_sq_vjp(
    grad: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple:
    grad_a = 2.0 * a * grad.sum(axis=1, keepdims=True) - 2.0 * (grad @ b)
    grad_b = 2.0 * b * grad.sum(axis=0)[:, None] - 2.0 * (grad.T @ a)
    return grad_a, grad_b


def pairwise_sq_dists(a: ArrayLike, b: ArrayLike) -> Tensor:
    """All-pairs squared Euclidean distances ``D[i, j] = ||a_i - b_j||²``.

    One fused node replacing the sum/broadcast/matmul chain the kernel IPMs
    used to build; inputs must be 2-D ``(n, d)`` / ``(m, d)``.
    """
    a_t = as_tensor(a)
    b_t = as_tensor(b)
    if a_t.ndim != 2 or b_t.ndim != 2:
        raise ValueError("pairwise_sq_dists expects 2-D (rows, features) inputs")
    out_data = _pairwise_sq_data(a_t.data, b_t.data)

    def backward(grad: np.ndarray, at=a_t, bt=b_t) -> None:
        grad_a, grad_b = _pairwise_sq_vjp(grad, at.data, bt.data)
        out._send(at, grad_a)
        out._send(bt, grad_b)

    out = Tensor._make(out_data, (a_t, b_t), backward)
    return _tape_record(out, "pairwise_sq_dists", (a_t, b_t))


def _rbf_block(
    a: np.ndarray, b: np.ndarray, scale: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``exp(scale · ||a_i - b_j||²)`` from one augmented gemm and an in-place ``exp``.

    ``[-2s·a, s·|a|², 1] @ [b, 1, s·|b|²]ᵀ`` writes ``s·D`` straight into
    the ``n × m`` output (``out`` when given), so a block costs one gemm and
    one ``exp`` pass instead of a gemm and five elementwise passes.  Every
    RBF kernel block is built here (eager :func:`rbf_kernel`, its tape
    kernel and :func:`weighted_rbf_mmd`), so they agree bitwise.
    """
    d = a.shape[1]
    left = np.empty((a.shape[0], d + 2), dtype=a.dtype)
    np.multiply(a, -2.0 * scale, out=left[:, :d])
    left[:, d] = scale * np.einsum("ij,ij->i", a, a)
    left[:, d + 1] = 1.0
    right = np.empty((b.shape[0], d + 2), dtype=b.dtype)
    right[:, :d] = b
    right[:, d] = 1.0
    right[:, d + 1] = scale * np.einsum("ij,ij->i", b, b)
    out = np.matmul(left, right.T, out=out)
    np.exp(out, out=out)
    return out


def rbf_kernel(a: ArrayLike, b: ArrayLike, sigma: float = 1.0) -> Tensor:
    """RBF (Gaussian) kernel matrix ``exp(-||a_i - b_j||² / (2σ²))``, fused.

    The pairwise distances and the exponential are one graph node with an
    analytic VJP.  The forward is one augmented gemm and an in-place
    ``exp`` (:func:`_rbf_block`).
    """
    a_t = as_tensor(a)
    b_t = as_tensor(b)
    if a_t.ndim != 2 or b_t.ndim != 2:
        raise ValueError("rbf_kernel expects 2-D (rows, features) inputs")
    scale = -1.0 / (2.0 * sigma ** 2)
    out_data = _rbf_block(a_t.data, b_t.data, scale)

    def backward(grad: np.ndarray, at=a_t, bt=b_t, s=scale) -> None:
        grad_sq = grad * out.data * s
        grad_a, grad_b = _pairwise_sq_vjp(grad_sq, at.data, bt.data)
        out._send(at, grad_a)
        out._send(bt, grad_b)

    out = Tensor._make(out_data, (a_t, b_t), backward)
    return _tape_record(out, "rbf_kernel", (a_t, b_t), {"scale": scale})


def bce_with_logits(
    logits: ArrayLike, target: ArrayLike, weights: Optional[ArrayLike] = None
) -> Tensor:
    """Numerically stable (weighted) binary cross-entropy on raw logits.

    Computes ``mean(w * (softplus(z) - t * z))`` as a single fused node —
    no intermediate sigmoid, no probability clipping, and the classic
    well-conditioned gradient ``w * (sigmoid(z) - t) / n``.
    """
    z_t = as_tensor(logits)
    t_t = as_tensor(target)
    losses = np.logaddexp(0.0, z_t.data) - t_t.data * z_t.data
    if weights is None:
        arr = losses
        parents: tuple = (z_t, t_t)
        w_t = None
    else:
        w_t = as_tensor(weights)
        arr = w_t.data * losses
        parents = (z_t, t_t, w_t)
    count = arr.size

    def backward(grad: np.ndarray, z=z_t, t=t_t, w=w_t, losses=losses, n=count) -> None:
        scale = grad / n
        sig = 1.0 / (1.0 + np.exp(-np.clip(z.data, -60.0, 60.0)))
        weighted_scale = scale if w is None else scale * w.data
        out._send(z, weighted_scale * (sig - t.data))
        out._send(t, -weighted_scale * z.data)
        if w is not None:
            out._send(w, scale * losses)

    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), parents, backward)
    return _tape_record(out, "bce_with_logits", parents)


# --------------------------------------------------------------------------- #
# Fused losses (bit-identical to the historical op compositions)
# --------------------------------------------------------------------------- #
def mse_loss(prediction: ArrayLike, target: ArrayLike) -> Tensor:
    """Mean squared error (fused single node)."""
    p_t = as_tensor(prediction)
    t_t = as_tensor(target)
    diff = p_t.data - t_t.data
    arr = diff * diff
    count = arr.size

    def backward(grad: np.ndarray, p=p_t, t=t_t, diff=diff, n=count) -> None:
        grad_p = (2.0 * (grad / n)) * diff
        out._send(p, grad_p)
        out._send(t, -grad_p)

    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), (p_t, t_t), backward)
    return _tape_record(out, "mse_loss", (p_t, t_t))


def weighted_mse_loss(prediction: ArrayLike, target: ArrayLike, weights: ArrayLike) -> Tensor:
    """Sample-weighted mean squared error, Eq. (13) of the paper (fused).

    ``weights`` are not assumed to sum to ``n``; the loss divides by ``n`` so
    the scale matches the unweighted loss when all weights are one.
    """
    p_t = as_tensor(prediction)
    t_t = as_tensor(target)
    w_t = as_tensor(weights)
    diff = p_t.data - t_t.data
    arr = w_t.data * diff * diff
    count = arr.size

    def backward(grad: np.ndarray, p=p_t, t=t_t, w=w_t, diff=diff, n=count) -> None:
        scale = grad / n
        grad_p = (2.0 * scale) * (w.data * diff)
        out._send(p, grad_p)
        out._send(t, -grad_p)
        out._send(w, scale * (diff * diff))

    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), (p_t, t_t, w_t), backward)
    return _tape_record(out, "weighted_mse_loss", (p_t, t_t, w_t))


def _bce_fused(
    prediction: Tensor, target: Tensor, weights: Optional[Tensor], eps: float
) -> Tensor:
    clipped = np.clip(prediction.data, eps, 1.0 - eps)
    log_p = np.log(clipped)
    log_1m = np.log(1.0 - clipped)
    losses = -(target.data * log_p + (1.0 - target.data) * log_1m)
    arr = losses if weights is None else weights.data * losses
    count = arr.size

    def backward(
        grad: np.ndarray,
        p=prediction,
        t=target,
        w=weights,
        pc=clipped,
        log_p=log_p,
        log_1m=log_1m,
        losses=losses,
        lo=eps,
        hi=1.0 - eps,
        n=count,
    ) -> None:
        scale = grad / n
        weighted_scale = scale if w is None else scale * w.data
        in_band = (p.data >= lo) & (p.data <= hi)
        local = (1.0 - t.data) / (1.0 - pc) - t.data / pc
        out._send(p, weighted_scale * local * in_band)
        out._send(t, weighted_scale * (log_1m - log_p))
        if w is not None:
            out._send(w, scale * losses)

    parents = (prediction, target) if weights is None else (prediction, target, weights)
    out = Tensor._make(np.asarray(arr.mean(), dtype=arr.dtype), parents, backward)
    return _tape_record(out, "bce", parents, {"eps": eps})


def binary_cross_entropy(prediction: ArrayLike, target: ArrayLike, eps: float = 1e-7) -> Tensor:
    """Binary cross-entropy on probabilities in ``(0, 1)`` (fused node)."""
    return _bce_fused(as_tensor(prediction), as_tensor(target), None, eps)


def weighted_binary_cross_entropy(
    prediction: ArrayLike, target: ArrayLike, weights: ArrayLike, eps: float = 1e-7
) -> Tensor:
    """Sample-weighted binary cross-entropy (used for binary outcomes)."""
    return _bce_fused(as_tensor(prediction), as_tensor(target), as_tensor(weights), eps)


def l2_penalty(parameters) -> Tensor:
    """Sum of squared parameter values (the paper's ``R_l2`` term), fused."""
    params = [as_tensor(param) for param in parameters]
    total = np.asarray(0.0, dtype=get_default_dtype())
    for param in params:
        total = total + np.sum(param.data * param.data)

    def backward(grad: np.ndarray, params=params) -> None:
        for param in params:
            out._send(param, (2.0 * grad) * param.data)

    out = Tensor._make(np.asarray(total), tuple(params), backward)
    return _tape_record(out, "l2_penalty", tuple(params), {"dtype": total.dtype})


def normalize_rows(x: ArrayLike, eps: float = 1e-8) -> Tensor:
    """Project each row onto the unit sphere (the paper's ``rep_normalization``).

    Fused: one node computing ``x / (||x||_2 + eps)`` per row with the exact
    VJP of the historical sum/sqrt/divide chain (including its ``1e-12``
    guard on the square root).
    """
    x_t = as_tensor(x)
    data = x_t.data
    sq_norms = (data * data).sum(axis=1, keepdims=True)
    roots = np.sqrt(sq_norms)
    norms = roots + eps
    out_data = data / norms

    def backward(grad: np.ndarray, xt=x_t, roots=roots, norms=norms) -> None:
        data = xt.data
        grad_norm = (-grad * data / (norms ** 2)).sum(axis=1, keepdims=True)
        grad_sq = grad_norm * (0.5 / np.maximum(roots, 1e-12))
        out._send(xt, grad / norms + (2.0 * grad_sq) * data)

    out = Tensor._make(out_data, (x_t,), backward)
    return _tape_record(out, "normalize_rows", (x_t,), {"eps": eps})


# --------------------------------------------------------------------------- #
# Fused HSIC-RFF building blocks
# --------------------------------------------------------------------------- #
def _rff_inner(values: np.ndarray, freqs: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """``v * w + phi`` as ``(n, k)`` (one draw) or ``(c, k, n)`` (a draw per column)."""
    if freqs.ndim == 1:
        return values.reshape(-1, 1) * freqs + phis
    columns = values.reshape(values.shape[0], -1).T[:, None, :]
    return columns * freqs[:, :, None] + phis[:, :, None]


def _rff_values_grad(d_inner: np.ndarray, freqs: np.ndarray, shape: tuple) -> np.ndarray:
    """Gradient wrt the values from the gradient wrt :func:`_rff_inner`'s output."""
    if freqs.ndim == 1:
        return (d_inner * freqs).sum(axis=-1).reshape(shape)
    return (d_inner * freqs[:, :, None]).sum(axis=1).T.reshape(shape)


def rff_features(values: ArrayLike, frequencies: np.ndarray, phases: np.ndarray) -> Tensor:
    """Random-Fourier-feature map ``sqrt(2) * cos(v * w + phi)`` (fused).

    With 1-D ``frequencies`` / ``phases`` of length ``k``, ``values`` is a
    column of ``n`` samples (any shape that ravels to ``n``) and the output
    is ``(n, k)``.  With ``(c, k)`` draws, ``values`` is an ``(n, c)``
    matrix, column ``j`` uses draw ``j``, and the output is ``(c, k, n)``:
    per column, its ``k`` features over the ``n`` samples (samples last, so
    the per-sample weighting downstream runs along contiguous memory).  The
    draws are constants and receive no gradient.
    """
    v_t = as_tensor(values)
    freqs = np.asarray(frequencies, dtype=v_t.data.dtype)
    phis = np.asarray(phases, dtype=v_t.data.dtype)
    inner = _rff_inner(v_t.data, freqs, phis)
    # Python-float sqrt(2): a NumPy float64 scalar would promote float32
    # inputs to float64 under NEP 50, defeating the dtype policy here.
    sqrt2 = 2.0 ** 0.5
    out_data = np.cos(inner)
    out_data *= sqrt2

    def backward(grad: np.ndarray, vt=v_t, inner=inner, freqs=freqs, sqrt2=sqrt2) -> None:
        d_inner = grad * (-np.sin(inner)) * sqrt2
        out._send(vt, _rff_values_grad(d_inner, freqs, vt.data.shape))

    out = Tensor._make(out_data, (v_t,), backward)
    return _tape_record(
        out, "rff_features", (v_t,), {"frequencies": freqs, "phis": phis, "sqrt2": sqrt2}
    )


def _pair_cov_forward(features: np.ndarray, probs: np.ndarray, left: np.ndarray, right: np.ndarray):
    """``(value, saved)`` of :func:`weighted_pair_sq_cross_cov` on arrays.

    Works on the selected pairs only: their left/right ``(k, n)`` blocks are
    gathered into ``(P, k, n)`` arrays, centred in place, and every
    cross-covariance comes out of one batched matmul.  Shared by the eager
    node and its tape kernel, so the two are bitwise equal.
    """
    p = probs.reshape(-1)
    uc = features[left]
    vc = features[right]
    mean_u = np.matmul(uc, p)[:, :, None]
    mean_v = np.matmul(vc, p)[:, :, None]
    uc -= mean_u
    vc -= mean_v
    pu = uc * p
    cross_cov = np.matmul(pu, vc.transpose(0, 2, 1))
    value = (cross_cov * cross_cov).sum()
    return value, (uc, vc, pu, mean_u, mean_v, cross_cov)


def _pair_cov_vjp(
    grad: np.ndarray,
    features: np.ndarray,
    probs: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    saved: tuple,
    needs: tuple,
) -> tuple:
    """Closed-form VJP of :func:`weighted_pair_sq_cross_cov` wrt (features, probs).

    Per pair, with ``pu = (u - E_p u) ⊙ p`` and ``C = pu (v - E_p v)ᵀ``
    (``k × n`` blocks): ``dC = 2 g C``, ``d pu = dC vc``, ``d vc = dCᵀ pu``,
    and the mean terms ``d E_p u = -dC (vc p)``, ``d E_p v = -dCᵀ (pu 1)``.
    Only the selected pairs' ``(P, k, n)`` blocks are touched; the feature
    gradient is formed only when the features need one.
    """
    uc, vc, pu, mean_u, mean_v, cross_cov = saved
    p = probs.reshape(-1)
    d_cc = (2.0 * grad) * cross_cov
    d_cc_t = d_cc.transpose(0, 2, 1)
    d_mean_u = -np.matmul(d_cc, np.matmul(vc, p)[:, :, None])
    d_mean_v = -np.matmul(d_cc_t, pu.sum(axis=2, keepdims=True))
    # d u = (d pu + d E_p u) ⊙ p: accumulate the mean term into d pu.
    d_pu_u = np.matmul(d_cc, vc)
    d_pu_u += d_mean_u
    d_features = d_probs = None
    if needs[0]:
        d_features = np.zeros_like(features)
        np.add.at(d_features, left, d_pu_u * p)
        np.add.at(d_features, right, np.matmul(d_cc_t, pu) + d_mean_v * p)
    if needs[1]:
        # d p_n = Σ (d pu ⊙ uc) + Σ u ⊙ d E_p u + Σ v ⊙ d E_p v, with u = uc + E_p u.
        d_p = np.einsum("pkn,pkn->n", d_pu_u, uc)
        d_p += np.matmul(d_mean_v.transpose(0, 2, 1), vc).sum(axis=(0, 1))
        d_p += (mean_u * d_mean_u).sum() + (mean_v * d_mean_v).sum()
        d_probs = d_p.reshape(probs.shape)
    return d_features, d_probs


def weighted_pair_sq_cross_cov(
    features: ArrayLike, probs: ArrayLike, left: np.ndarray, right: np.ndarray
) -> Tensor:
    """``Σ_p ||C_w(u_{left[p]}, u_{right[p]})||²`` over the selected column pairs, fused.

    ``features`` is a ``(c, k, n)`` stack of per-column RFF blocks (see
    :func:`rff_features`), ``probs`` a normalised weight vector of ``n``
    entries, and ``left`` / ``right`` the ``P`` column indices of each
    pair.  ``C_w(u, v) = (p ⊙ (u - E_p u))ᵀ (v - E_p v)`` is the StableNet
    weighted cross-covariance, so one node is the whole Independence
    Regularizer sum of one layer (Eq. 10).
    """
    f_t = as_tensor(features)
    p_t = as_tensor(probs)
    left = np.asarray(left, dtype=np.intp)
    right = np.asarray(right, dtype=np.intp)
    if f_t.ndim != 3:
        raise ValueError("features must be a (columns, k, n) stack of RFF blocks")
    value, saved = _pair_cov_forward(f_t.data, p_t.data, left, right)

    def backward(grad: np.ndarray, ft=f_t, pt=p_t, saved=saved) -> None:
        needs = (ft.requires_grad, pt.requires_grad)
        d_features, d_probs = _pair_cov_vjp(grad, ft.data, pt.data, left, right, saved, needs)
        if d_features is not None:
            out._send(ft, d_features)
        if d_probs is not None:
            out._send(pt, d_probs)

    out = Tensor._make(np.asarray(value), (f_t, p_t), backward)
    attrs = {"left": left, "right": right}
    return _tape_record(out, "weighted_pair_sq_cross_cov", (f_t, p_t), attrs)


def _bilinear_forward(a: np.ndarray, kernel: np.ndarray, b: np.ndarray):
    """``(a · (K b), K b)`` by gemv; shared by the eager node and its tape kernel."""
    kb = kernel @ b.reshape(-1)
    return a.reshape(-1) @ kb, kb


def _bilinear_vjp(grad, a, kernel, b, kb, needs) -> tuple:
    """VJP of ``a · (K b)``: ``g K b``, ``g a bᵀ`` (only when needed), ``g a K``."""
    a_vec = a.reshape(-1)
    ga = (grad * kb).reshape(a.shape) if needs[0] else None
    gk = None
    if needs[1]:
        gk = np.outer(a_vec, b)
        gk *= grad
    gb = (grad * (a_vec @ kernel)).reshape(b.shape) if needs[2] else None
    return ga, gk, gb


def bilinear_weighted_sum(
    weights_a: ArrayLike, kernel: ArrayLike, weights_b: ArrayLike
) -> Tensor:
    """Weighted bilinear form ``Σ_ij a_i K_ij b_j`` as one fused node.

    The three kernel expectations of a weighted MMD are exactly this shape.
    The forward is two mat-vecs, ``a · (K b)``; the VJP reuses ``K b`` for
    ``a``, takes ``a K`` by gemv for ``b``, and forms the ``n × m`` kernel
    gradient ``a bᵀ`` only when the kernel needs one.  The value equals the
    elementwise ``(a[:, None] * K * b[None, :]).sum()`` within a relative
    1e-12 (a different summation order), and the tape kernel bit for bit.
    """
    a_t = as_tensor(weights_a)
    k_t = as_tensor(kernel)
    b_t = as_tensor(weights_b)
    value, kb = _bilinear_forward(a_t.data, k_t.data, b_t.data)

    def backward(grad: np.ndarray, at=a_t, kt=k_t, bt=b_t, kb=kb) -> None:
        needs = (at.requires_grad, kt.requires_grad, bt.requires_grad)
        grads = _bilinear_vjp(grad, at.data, kt.data, bt.data, kb, needs)
        for parent, g in zip((at, kt, bt), grads):
            if g is not None:
                out._send(parent, g)

    out = Tensor._make(np.asarray(value), (a_t, k_t, b_t), backward)
    return _tape_record(out, "bilinear_weighted_sum", (a_t, k_t, b_t))


# --------------------------------------------------------------------------- #
# Fused weighted RBF-MMD (the network step's Balancing Regularizer, Eq. 4)
# --------------------------------------------------------------------------- #
def _rbf_mmd_forward(rep_c, rep_t, w_c, w_t, scale, blocks=(None, None, None)):
    """``(value, saved)`` of :func:`weighted_rbf_mmd` on arrays.

    ``blocks`` are optional ``n_c × n_c``, ``n_t × n_t`` and ``n_c × n_t``
    output buffers for the kernel blocks (the tape kernel reuses its own
    across runs).  The value is reduced exactly as
    ``mmd_rbf_from_kernels`` reduces the same blocks, so the two are
    bitwise equal.  Shared by the eager node and its tape kernel.
    """
    k_cc = _rbf_block(rep_c, rep_c, scale, blocks[0])
    k_tt = _rbf_block(rep_t, rep_t, scale, blocks[1])
    k_ct = _rbf_block(rep_c, rep_t, scale, blocks[2])
    v_cc, kw_cc = _bilinear_forward(w_c, k_cc, w_c)
    v_tt, kw_tt = _bilinear_forward(w_t, k_tt, w_t)
    v_ct, kw_ct = _bilinear_forward(w_c, k_ct, w_t)
    return (v_cc + v_tt) - 2.0 * v_ct, (k_cc, k_tt, k_ct, kw_cc, kw_tt, kw_ct)


def _rbf_mmd_rep_grad(rep, diff, w, self_term, cross_term, coef):
    """``coef · w ⊙ [R ⊙ diff - K_self (w ⊙ R) + K_cross (w' ⊙ R')]``.

    ``self_term`` and ``cross_term`` are the two kernel products in the
    transposed ``(d, n)`` layout the gemms produce; the result is returned
    as an ``(n, d)`` view.
    """
    acc = cross_term
    acc -= self_term
    acc += rep.T * diff
    acc *= w
    acc *= coef
    return acc.T


def _rbf_mmd_vjp(grad, rep_c, rep_t, w_c, w_t, scale, saved, needs) -> tuple:
    """Closed-form VJP of :func:`weighted_rbf_mmd` wrt ``(R_c, R_t, w_c, w_t)``.

    With ``s = -1/(2σ²)`` and upstream gradient ``g``::

        ∂R_c = 4sg · w_c ⊙ [R_c ⊙ (K_cc w_c - K_ct w_t) - K_cc(w_c⊙R_c) + K_ct(w_t⊙R_t)]
        ∂R_t = 4sg · w_t ⊙ [R_t ⊙ (K_tt w_t - K_ctᵀw_c) - K_tt(w_t⊙R_t) + K_ctᵀ(w_c⊙R_c)]
        ∂w_c = 2g (K_cc w_c - K_ct w_t),   ∂w_t = 2g (K_tt w_t - K_ctᵀ w_c)

    The ``K w`` vectors come from the forward and ``K_ctᵀ w_c`` is one gemv;
    the representation gradients take four thin gemms of ``(w ⊙ R)ᵀ``
    against the kernel blocks (``Bᵀ K`` with a C-contiguous ``Bᵀ`` was the
    fastest orientation on a 2-CPU host with single-threaded OpenBLAS) and
    no ``n × m`` gradient is formed.
    """
    k_cc, k_tt, k_ct, kw_cc, kw_tt, kw_ct = saved
    wc = w_c.reshape(-1)
    wt = w_t.reshape(-1)
    diff_c = kw_cc - kw_ct
    diff_t = kw_tt - wc @ k_ct
    g_rc = g_rt = None
    if needs[0] or needs[1]:
        bc = np.multiply(rep_c.T, wc, out=np.empty(rep_c.shape[::-1], dtype=rep_c.dtype))
        bt = np.multiply(rep_t.T, wt, out=np.empty(rep_t.shape[::-1], dtype=rep_t.dtype))
        coef = (4.0 * scale) * grad
        if needs[0]:
            g_rc = _rbf_mmd_rep_grad(rep_c, diff_c, wc, bc @ k_cc, bt @ k_ct.T, coef)
        if needs[1]:
            g_rt = _rbf_mmd_rep_grad(rep_t, diff_t, wt, bt @ k_tt, bc @ k_ct, coef)
    g_wc = ((2.0 * grad) * diff_c).reshape(w_c.shape) if needs[2] else None
    g_wt = ((2.0 * grad) * diff_t).reshape(w_t.shape) if needs[3] else None
    return g_rc, g_rt, g_wc, g_wt


def weighted_rbf_mmd(
    rep_control: ArrayLike,
    rep_treated: ArrayLike,
    weights_control: ArrayLike,
    weights_treated: ArrayLike,
    sigma: float = 1.0,
) -> Tensor:
    """Weighted RBF-MMD ``w_cᵀK_cc w_c + w_tᵀK_tt w_t - 2 w_cᵀK_ct w_t``, one node.

    ``weights_control`` / ``weights_treated`` are used as given (callers
    pass weights normalised to sum one).  The forward builds the three
    kernel blocks with :func:`_rbf_block` and reduces them by mat-vec; the
    VJP is closed-form (:func:`_rbf_mmd_vjp`) and never forms an ``n × m``
    gradient.  The value is bitwise that of the :func:`rbf_kernel` /
    :func:`bilinear_weighted_sum` composition; the gradients match it
    within a relative 1e-12.
    """
    parents = tuple(
        as_tensor(x) for x in (rep_control, rep_treated, weights_control, weights_treated)
    )
    if parents[0].ndim != 2 or parents[1].ndim != 2:
        raise ValueError("weighted_rbf_mmd expects 2-D (rows, features) representations")
    scale = -1.0 / (2.0 * sigma ** 2)
    value, saved = _rbf_mmd_forward(*(p.data for p in parents), scale)

    def backward(grad: np.ndarray, parents=parents, saved=saved) -> None:
        needs = tuple(p.requires_grad for p in parents)
        grads = _rbf_mmd_vjp(grad, *(p.data for p in parents), scale, saved, needs)
        for parent, g in zip(parents, grads):
            if g is not None:
                out._send(parent, g)

    out = Tensor._make(np.asarray(value), parents, backward)
    return _tape_record(out, "weighted_rbf_mmd", parents, {"scale": scale})
