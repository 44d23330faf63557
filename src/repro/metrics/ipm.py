"""Integral Probability Metrics used by the Balancing Regularizer.

The paper measures the distance between the (weighted) treated and control
representation distributions with an IPM (Eq. 3 / Eq. 4).  Following CFR
(Shalit et al., 2017), two concrete IPM instances are provided:

* linear Maximum Mean Discrepancy (``mmd_linear``) — the distance between
  the two group means;
* RBF-kernel MMD (``mmd_rbf``) — a characteristic-kernel MMD that captures
  discrepancies beyond the first moment;
* an entropic-regularised Wasserstein-1 approximation (``wasserstein``)
  using a few Sinkhorn iterations, matching CFR-Wass.

Every function has two flavours: a differentiable one operating on
:class:`repro.nn.Tensor` (used inside training losses) and a plain NumPy
one (used for evaluation and tests).  The differentiable versions accept an
optional per-sample weight vector, which is what makes the paper's
Balancing Regularizer "model-free": the weights, not the network
parameters, absorb the balancing constraint.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, as_tensor

__all__ = [
    "mmd_linear",
    "mmd_rbf",
    "mmd_rbf_anchored",
    "wasserstein",
    "mmd_linear_weighted",
    "mmd_rbf_weighted",
    "ipm_distance",
    "weighted_ipm",
    "WEIGHTED_IPM_KINDS",
    "check_weighted_ipm_kind",
]


# --------------------------------------------------------------------------- #
# NumPy (evaluation) implementations
# --------------------------------------------------------------------------- #
def _check_groups(x_control: np.ndarray, x_treated: np.ndarray) -> None:
    if x_control.ndim != 2 or x_treated.ndim != 2:
        raise ValueError("IPM inputs must be 2-D arrays (n, d)")
    if x_control.shape[1] != x_treated.shape[1]:
        raise ValueError("control and treated groups must share the feature dimension")
    if len(x_control) == 0 or len(x_treated) == 0:
        raise ValueError("both groups must be non-empty")


def mmd_linear(x_control: np.ndarray, x_treated: np.ndarray) -> float:
    """Linear MMD: squared Euclidean distance between group means."""
    x_control = np.asarray(x_control, dtype=np.float64)
    x_treated = np.asarray(x_treated, dtype=np.float64)
    _check_groups(x_control, x_treated)
    diff = x_control.mean(axis=0) - x_treated.mean(axis=0)
    return float(np.sum(diff * diff))


def mmd_rbf(x_control: np.ndarray, x_treated: np.ndarray, sigma: float = 1.0) -> float:
    """Squared RBF-kernel MMD between the two groups (biased estimator)."""
    x_control = np.asarray(x_control, dtype=np.float64)
    x_treated = np.asarray(x_treated, dtype=np.float64)
    _check_groups(x_control, x_treated)

    def kernel(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :] - 2 * a @ b.T
        return np.exp(-sq / (2.0 * sigma ** 2))

    k_cc = kernel(x_control, x_control).mean()
    k_tt = kernel(x_treated, x_treated).mean()
    k_ct = kernel(x_control, x_treated).mean()
    return float(max(k_cc + k_tt - 2.0 * k_ct, 0.0))


def mmd_rbf_anchored(
    x_control: np.ndarray,
    x_treated: np.ndarray,
    sigma: float = 1.0,
    num_anchors: int = 256,
    seed: int = 0,
) -> float:
    """Anchor-subsampled RBF-MMD: O(n·m) instead of O(n²).

    Each of the three kernel expectations of the (biased) squared MMD is
    estimated against a seeded draw of at most ``num_anchors`` anchor rows
    per group, so the cost is ``O((n_c + n_t) · m)``.  When ``num_anchors``
    covers a whole group that group's draw is the full set, and with both
    groups covered the value equals :func:`mmd_rbf` exactly — the estimator
    converges to the exact statistic as ``m`` grows.
    """
    if num_anchors <= 0:
        raise ValueError("num_anchors must be positive")
    x_control = np.asarray(x_control, dtype=np.float64)
    x_treated = np.asarray(x_treated, dtype=np.float64)
    _check_groups(x_control, x_treated)
    rng = np.random.default_rng(seed)

    def anchors(group: np.ndarray) -> np.ndarray:
        if len(group) <= num_anchors:
            return group
        return group[np.sort(rng.choice(len(group), size=num_anchors, replace=False))]

    anchors_control = anchors(x_control)
    anchors_treated = anchors(x_treated)

    def kernel_mean(a: np.ndarray, b: np.ndarray) -> float:
        sq = np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :] - 2 * a @ b.T
        return float(np.exp(-sq / (2.0 * sigma ** 2)).mean())

    k_cc = kernel_mean(anchors_control, x_control)
    k_tt = kernel_mean(anchors_treated, x_treated)
    k_ct = kernel_mean(anchors_control, x_treated)
    return float(max(k_cc + k_tt - 2.0 * k_ct, 0.0))


def wasserstein(
    x_control: np.ndarray,
    x_treated: np.ndarray,
    epsilon: float = 0.1,
    iterations: int = 10,
    tol: float = 1e-9,
) -> float:
    """Entropic-regularised Wasserstein-1 distance (Sinkhorn approximation).

    ``iterations`` is an upper bound: the scaling loop exits early once the
    relative change of the ``u`` scaling vector between two consecutive
    iterations drops below ``tol`` (set ``tol=0`` to always exhaust the full
    budget; the converged value matches the fixed-budget one to within
    ``tol`` — see the regression test in ``tests/test_metrics_ipm.py``).
    """
    x_control = np.asarray(x_control, dtype=np.float64)
    x_treated = np.asarray(x_treated, dtype=np.float64)
    _check_groups(x_control, x_treated)
    if tol < 0:
        raise ValueError("tol must be non-negative")
    n_c, n_t = len(x_control), len(x_treated)
    cost = np.sqrt(
        np.maximum(
            np.sum(x_control ** 2, axis=1)[:, None]
            + np.sum(x_treated ** 2, axis=1)[None, :]
            - 2 * x_control @ x_treated.T,
            0.0,
        )
    )
    kernel = np.exp(-cost / max(epsilon, 1e-8))
    kernel = np.maximum(kernel, 1e-300)
    a = np.full(n_c, 1.0 / n_c)
    b = np.full(n_t, 1.0 / n_t)
    u = np.ones(n_c) / n_c
    # The matrix-vector products can underflow to exactly zero when the cost
    # matrix has large entries relative to epsilon (the kernel saturates at
    # its 1e-300 floor); clamp the denominators so the scaling updates stay
    # finite instead of producing inf/NaN transport plans.
    tiny = 1e-300
    v = b
    for _ in range(iterations):
        v = b / np.maximum(kernel.T @ u, tiny)
        u_next = a / np.maximum(kernel @ v, tiny)
        if tol > 0.0:
            drift = float(np.max(np.abs(u_next - u)))
            u = u_next
            if drift <= tol * max(1.0, float(np.max(np.abs(u_next)))):
                break
        else:
            u = u_next
    transport = u[:, None] * kernel * v[None, :]
    return float(np.sum(transport * cost))


def ipm_distance(x_control: np.ndarray, x_treated: np.ndarray, kind: str = "mmd_linear", **kwargs) -> float:
    """Dispatch to one of the NumPy IPM implementations by name."""
    dispatch = {"mmd_linear": mmd_linear, "mmd_rbf": mmd_rbf, "wasserstein": wasserstein}
    try:
        fn = dispatch[kind]
    except KeyError as exc:
        raise ValueError(f"unknown IPM kind {kind!r}; expected one of {sorted(dispatch)}") from exc
    return fn(x_control, x_treated, **kwargs)


# --------------------------------------------------------------------------- #
# Differentiable (training) implementations
# --------------------------------------------------------------------------- #
def _weighted_mean(rep: Tensor, weights: Optional[Tensor]) -> Tensor:
    """Weighted mean of representation rows; weights are renormalised to sum 1."""
    if weights is None:
        return rep.mean(axis=0)
    weights = as_tensor(weights)
    col = weights.reshape(-1, 1)
    total = col.sum() + 1e-12
    return (rep * col).sum(axis=0) / total


def mmd_linear_weighted(
    rep_control: Tensor,
    rep_treated: Tensor,
    weights_control: Optional[Tensor] = None,
    weights_treated: Optional[Tensor] = None,
) -> Tensor:
    """Differentiable linear MMD between weighted group representations (Eq. 4)."""
    rep_control = as_tensor(rep_control)
    rep_treated = as_tensor(rep_treated)
    diff = _weighted_mean(rep_control, weights_control) - _weighted_mean(rep_treated, weights_treated)
    return (diff * diff).sum()


def _normalised(weights: Optional[Tensor], rep: Tensor) -> Tensor:
    """Weights rescaled to sum to one; uniform over ``rep``'s rows, in its dtype, when ``None``."""
    if weights is None:
        count = rep.shape[0]
        return as_tensor(np.full(count, 1.0 / count), like=rep)
    weights = as_tensor(weights)
    return weights / (weights.sum() + 1e-12)


def mmd_rbf_weighted(
    rep_control: Tensor,
    rep_treated: Tensor,
    weights_control: Optional[Tensor] = None,
    weights_treated: Optional[Tensor] = None,
    sigma: float = 1.0,
) -> Tensor:
    """Differentiable RBF MMD between weighted group representations.

    One fused :func:`repro.nn.functional.weighted_rbf_mmd` node over the
    normalised weights: with four differentiable leaf inputs a call's graph
    has 13 nodes (the leaves included), against 23 for the kernel-block
    composition.  The node sweeps the stacked kernel in tiles, so no
    ``n × m`` block is kept.  The value and gradients match the
    composition's within a relative 1e-12.
    """
    rep_control = as_tensor(rep_control)
    rep_treated = as_tensor(rep_treated)
    return F.weighted_rbf_mmd(
        rep_control,
        rep_treated,
        _normalised(weights_control, rep_control),
        _normalised(weights_treated, rep_treated),
        sigma,
    )


#: The kinds :func:`weighted_ipm` dispatches on (``RegularizerConfig.ipm_kind``).
WEIGHTED_IPM_KINDS = ("mmd_linear", "mmd_rbf")


def check_weighted_ipm_kind(kind: str) -> str:
    """Return ``kind`` if :func:`weighted_ipm` knows it; raise ``ValueError`` otherwise."""
    if kind not in WEIGHTED_IPM_KINDS:
        expected = list(WEIGHTED_IPM_KINDS)
        raise ValueError(f"unknown differentiable IPM kind {kind!r}; expected one of {expected}")
    return kind


def weighted_ipm(
    rep_control: Tensor,
    rep_treated: Tensor,
    weights_control: Optional[Tensor] = None,
    weights_treated: Optional[Tensor] = None,
    kind: str = "mmd_linear",
    *,
    sigma: Optional[float] = None,
) -> Tensor:
    """Differentiable weighted IPM dispatch (the paper's L_B, Eq. 4).

    ``sigma`` is the RBF kernel's bandwidth (default 1.0, as in
    :func:`mmd_rbf_weighted`).  The linear MMD has no kernel, so passing
    one with ``kind="mmd_linear"`` raises ``ValueError``.
    """
    if check_weighted_ipm_kind(kind) == "mmd_linear":
        if sigma is not None:
            raise ValueError("sigma applies to kind='mmd_rbf' only; the linear MMD has no kernel")
        return mmd_linear_weighted(rep_control, rep_treated, weights_control, weights_treated)
    return mmd_rbf_weighted(
        rep_control, rep_treated, weights_control, weights_treated, 1.0 if sigma is None else sigma
    )
