"""Hilbert-Schmidt Independence Criterion and its Random-Fourier-Feature
approximation (HSIC-RFF), the core machinery of the Independence Regularizer.

The paper (Section IV.B) measures non-linear dependence between two feature
columns with HSIC, approximated by HSIC-RFF for tractability:

``HSIC_RFF(A, B) = || C_{u(A), v(B)} ||_F^2``

where ``u_i(x) = sqrt(2) * cos(w_i x + phi_i)`` with ``w_i ~ N(0, 1)`` and
``phi_i ~ U(0, 2*pi)`` are random Fourier features and ``C`` is the
cross-covariance matrix of the ``n_A x n_B`` feature pairs (both default to
5 features, as in the paper).

Two flavours are provided:

* NumPy implementations (`hsic`, `hsic_rff`) for evaluation, figures and
  tests;
* a differentiable, sample-weighted implementation
  (`weighted_hsic_rff`, `pairwise_decorrelation_loss`) used inside the
  Independence Regularizer and Hierarchical-Attention Paradigm losses,
  where the weighted covariance follows the StableNet construction
  ``Cov_w(f, g) = E_w[f g] - E_w[f] E_w[g]`` with ``E_w`` the
  weight-normalised expectation.  It is built from three pieces the
  regularizer also uses separately: `column_rff_features` (all columns of
  a layer in one node), `draw_pairs` and `weighted_pairs_hsic_rff` (every
  selected pair in one node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..nn import functional as F
from ..nn.tensor import Tensor, as_tensor, stack

__all__ = [
    "RandomFourierFeatures",
    "hsic",
    "hsic_rff",
    "column_rff_features",
    "draw_pairs",
    "weighted_pairs_hsic_rff",
    "weighted_hsic_rff",
    "pairwise_decorrelation_loss",
    "mean_pairwise_hsic_rff",
]

DEFAULT_NUM_FEATURES = 5


@dataclass
class RandomFourierFeatures:
    """A fixed draw of random Fourier feature parameters.

    Freezing the draw makes the regularizer deterministic given a seed, which
    keeps training reproducible and lets tests assert exact values.
    """

    frequencies: np.ndarray
    phases: np.ndarray

    @classmethod
    def draw(
        cls, num_features: int = DEFAULT_NUM_FEATURES, rng: Optional[np.random.Generator] = None
    ) -> "RandomFourierFeatures":
        """Sample ``num_features`` (frequency, phase) pairs."""
        rng = rng if rng is not None else np.random.default_rng()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        return cls(
            frequencies=rng.normal(0.0, 1.0, size=num_features),
            phases=rng.uniform(0.0, 2.0 * np.pi, size=num_features),
        )

    @property
    def num_features(self) -> int:
        """Number of random Fourier features."""
        return len(self.frequencies)

    def transform(self, values: np.ndarray) -> np.ndarray:
        """Map a 1-D array of n values to an (n, num_features) RFF matrix."""
        values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
        return np.sqrt(2.0) * np.cos(values * self.frequencies[None, :] + self.phases[None, :])

    def transform_tensor(self, values: Tensor) -> Tensor:
        """Differentiable version of :meth:`transform` (one fused node)."""
        return F.rff_features(values, self.frequencies, self.phases)


# --------------------------------------------------------------------------- #
# Exact HSIC (NumPy, evaluation only)
# --------------------------------------------------------------------------- #
def _rbf_kernel_matrix(values: np.ndarray, sigma: Optional[float] = None) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    sq = (values - values.T) ** 2
    if sigma is None:
        positive = sq[sq > 0]
        median = np.median(positive) if positive.size else 1.0
        sigma = np.sqrt(0.5 * median) if median > 0 else 1.0
    return np.exp(-sq / (2.0 * sigma ** 2))


def hsic(a: np.ndarray, b: np.ndarray, sigma: Optional[float] = None) -> float:
    """Biased empirical HSIC between two 1-D variables with RBF kernels.

    Returns a non-negative scalar that is (approximately) zero when ``a`` and
    ``b`` are statistically independent.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("inputs to hsic must have the same length")
    n = len(a)
    if n < 2:
        raise ValueError("hsic needs at least two samples")
    k = _rbf_kernel_matrix(a, sigma)
    l = _rbf_kernel_matrix(b, sigma)
    h = np.eye(n) - np.ones((n, n)) / n
    return float(np.trace(k @ h @ l @ h) / (n - 1) ** 2)


# --------------------------------------------------------------------------- #
# HSIC-RFF (NumPy, evaluation)
# --------------------------------------------------------------------------- #
def hsic_rff(
    a: np.ndarray,
    b: np.ndarray,
    features: Optional[Tuple[RandomFourierFeatures, RandomFourierFeatures]] = None,
    num_features: int = DEFAULT_NUM_FEATURES,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """HSIC approximated with random Fourier features (Eq. 7 of the paper)."""
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("inputs to hsic_rff must have the same length")
    if features is None:
        rng = rng if rng is not None else np.random.default_rng(0)
        features = (
            RandomFourierFeatures.draw(num_features, rng),
            RandomFourierFeatures.draw(num_features, rng),
        )
    feat_a, feat_b = features
    u = feat_a.transform(a)
    v = feat_b.transform(b)
    u_centred = u - u.mean(axis=0, keepdims=True)
    v_centred = v - v.mean(axis=0, keepdims=True)
    cross_cov = u_centred.T @ v_centred / len(a)
    return float(np.sum(cross_cov ** 2))


def mean_pairwise_hsic_rff(
    matrix: np.ndarray,
    num_features: int = DEFAULT_NUM_FEATURES,
    rng: Optional[np.random.Generator] = None,
    max_dims: Optional[int] = None,
) -> float:
    """Average HSIC-RFF over all feature pairs of a matrix.

    This reproduces the summary statistic used for Fig. 5 of the paper
    (average non-linear correlation among representation dimensions).
    ``max_dims`` optionally subsamples columns, mirroring the paper's random
    draw of 25 dimensions.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D (samples, features)")
    rng = rng if rng is not None else np.random.default_rng(0)
    n_cols = matrix.shape[1]
    if max_dims is not None and max_dims < n_cols:
        columns = rng.choice(n_cols, size=max_dims, replace=False)
        matrix = matrix[:, np.sort(columns)]
        n_cols = max_dims
    if n_cols < 2:
        raise ValueError("need at least two feature columns")
    total, count = 0.0, 0
    for i in range(n_cols):
        for j in range(i + 1, n_cols):
            total += hsic_rff(matrix[:, i], matrix[:, j], num_features=num_features, rng=rng)
            count += 1
    return total / count


# --------------------------------------------------------------------------- #
# Differentiable, sample-weighted HSIC-RFF (training)
# --------------------------------------------------------------------------- #
def column_rff_features(
    matrix: Tensor, draws: Sequence[RandomFourierFeatures], out: Optional[np.ndarray] = None
) -> Tensor:
    """``(c, k, n)`` RFF features of every column of ``matrix``, column ``j`` under ``draws[j]``.

    One fused node, or, into ``out``, a constant computed in place (see
    :func:`repro.nn.functional.rff_features`).  Every draw must have the
    same number of features.
    """
    matrix = as_tensor(matrix)
    draws = draws[: matrix.shape[1]]
    if len({draw.num_features for draw in draws}) > 1:
        raise ValueError("every column's RandomFourierFeatures draw must have the same size")
    frequencies = np.stack([draw.frequencies for draw in draws])
    phases = np.stack([draw.phases for draw in draws])
    return F.rff_features(matrix, frequencies, phases, out)


def draw_pairs(
    num_columns: int, max_pairs: Optional[int] = None, rng: Optional[np.random.Generator] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Left and right column indices of all pairs ``i < j``, or of ``max_pairs`` of them.

    Pairs run in row-major order; above ``max_pairs`` a draw without
    replacement from ``rng`` picks the subset (and its order).
    """
    left, right = np.triu_indices(num_columns, k=1)
    if max_pairs is not None and len(left) > max_pairs:
        rng = rng if rng is not None else np.random.default_rng(0)
        chosen = rng.choice(len(left), size=max_pairs, replace=False)
        left, right = left[chosen], right[chosen]
    return left, right


def weighted_pairs_hsic_rff(
    features: Tensor,
    weights: Tensor,
    left: np.ndarray,
    right: np.ndarray,
) -> Tensor:
    """Sum of weighted HSIC-RFF over the column pairs ``(left[p], right[p])``.

    ``features`` is a :func:`column_rff_features` block; the weights are
    normalised to a distribution and the whole sum is one fused node (see
    :func:`repro.nn.functional.weighted_pair_sq_cross_cov`).
    """
    weights = as_tensor(weights).reshape(-1)
    probs = weights / (weights.sum() + 1e-12)
    return F.weighted_pair_sq_cross_cov(features, probs, left, right)


def weighted_hsic_rff(
    col_a: Tensor,
    col_b: Tensor,
    weights: Tensor,
    features: Tuple[RandomFourierFeatures, RandomFourierFeatures],
) -> Tensor:
    """Weighted HSIC-RFF between two feature columns (Eq. 9 of the paper).

    The sample weights define a reweighted empirical distribution; the loss
    is the squared Frobenius norm of the weighted cross-covariance of the
    RFF-transformed columns, and is differentiable with respect to both the
    weights and the columns.  It is the one-pair case of
    :func:`weighted_pairs_hsic_rff`.
    """
    matrix = stack([as_tensor(col_a).reshape(-1), as_tensor(col_b).reshape(-1)], axis=1)
    return weighted_pairs_hsic_rff(
        column_rff_features(matrix, features), weights, np.array([0]), np.array([1])
    )


def pairwise_decorrelation_loss(
    matrix: Tensor,
    weights: Tensor,
    features_per_dim: Sequence[RandomFourierFeatures],
    max_pairs: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> Tensor:
    """Sum of weighted HSIC-RFF over all (or a subsample of) column pairs.

    This is the paper's ``L_D(X, w)`` (Eq. 10).  ``features_per_dim`` must be
    a sequence of :class:`RandomFourierFeatures`, one per column of
    ``matrix``; using a fixed draw per column keeps the loss deterministic
    across training iterations.  For wide layers the quadratic number of
    pairs can be subsampled via ``max_pairs`` (see :func:`draw_pairs`).
    """
    matrix = as_tensor(matrix)
    n_cols = matrix.shape[1]
    if len(features_per_dim) < n_cols:
        raise ValueError("need one RandomFourierFeatures draw per column")
    left, right = draw_pairs(n_cols, max_pairs, rng)
    if not len(left):
        return as_tensor(0.0, like=matrix)
    features = column_rff_features(matrix, features_per_dim)
    return weighted_pairs_hsic_rff(features, weights, left, right)
