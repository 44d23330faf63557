"""Independence Regularizer (Section IV.B of the paper).

Computes ``L_I = L_D(Z_p, w)``: the sum of weighted HSIC-RFF values over all
pairs of columns of the last predictive layer ``Z_p``.  Minimising ``L_I``
with respect to the sample weights decorrelates the features feeding the
outcome heads, so the heads can only exploit stable (causal) relationships —
the mechanism by which stable learning survives distribution shift.

The random Fourier feature draws are created lazily, one per column index,
and cached so that the loss is a deterministic function of (features,
weights) across training iterations.  The RFF features of a layer depend
only on its activations, so a caller that evaluates the loss of frozen
activations under changing weights computes them once (:meth:`features`)
and passes them back in.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from ...metrics.hsic import (
    RandomFourierFeatures,
    column_rff_features,
    draw_pairs,
    weighted_pairs_hsic_rff,
)
from ...metrics.subsampling import subsample_indices
from ...nn.kernels import Workspace
from ...nn.tensor import Tensor, as_tensor

__all__ = ["IndependenceRegularizer"]


class IndependenceRegularizer:
    """Weighted pairwise HSIC-RFF decorrelation loss for one layer family.

    Above ``subsample_threshold`` rows the loss is computed on a seeded
    draw of ``num_anchors`` rows (weights sliced identically), keeping the
    per-iteration cost bounded on large populations.
    """

    def __init__(
        self,
        num_rff_features: int = 5,
        max_pairs: Optional[int] = 64,
        seed: int = 0,
        subsample_threshold: Optional[int] = None,
        num_anchors: int = 256,
    ) -> None:
        if num_rff_features <= 0:
            raise ValueError("num_rff_features must be positive")
        if num_anchors <= 0:
            raise ValueError("num_anchors must be positive")
        if max_pairs is not None and max_pairs < 0:
            raise ValueError("max_pairs must be non-negative or None")
        self.num_rff_features = num_rff_features
        self.max_pairs = max_pairs
        self.seed = seed
        self.subsample_threshold = subsample_threshold
        self.num_anchors = num_anchors
        self._rng = np.random.default_rng(seed)
        self._pair_rng = np.random.default_rng(seed + 1)
        self._row_rng = np.random.default_rng(seed + 2)
        self._feature_cache: Dict[str, List[RandomFourierFeatures]] = {}

    def _draws_for(self, key: str, num_columns: int) -> List[RandomFourierFeatures]:
        """Return (and cache) one RFF draw per column of the named layer."""
        cached = self._feature_cache.get(key, [])
        while len(cached) < num_columns:
            cached.append(RandomFourierFeatures.draw(self.num_rff_features, self._rng))
        self._feature_cache[key] = cached
        return cached

    def features(self, layer: Tensor, key: str = "Zp", workspace: Optional[Workspace] = None) -> Tensor:
        """``(c, k, n)`` RFF features of every column of ``layer`` under the key's draws.

        With a workspace over a :class:`~repro.nn.kernels.Pool` the
        features are a constant written into its ``("rff", key)`` region,
        valid until another tenant claims the pool; ``layer`` must then take
        no gradient.  A workspace of its own would only keep the features'
        bytes from one weight step to the next, so it is not used for them.
        """
        layer = as_tensor(layer)
        draws = self._draws_for(key, layer.shape[1])
        out = None
        if workspace is not None and workspace.pool is not None:
            shape = (layer.shape[1], self.num_rff_features, layer.shape[0])
            out = workspace.take(("rff", key), shape, layer.data.dtype)
        return column_rff_features(layer, draws, out)

    def loss(
        self,
        layer: Tensor,
        sample_weights: Tensor,
        key: str = "Zp",
        features: Optional[Tensor] = None,
        workspace: Optional[Workspace] = None,
    ) -> Tensor:
        """Return ``L_D(layer, w)`` (Eq. 10) for one activation matrix.

        ``features`` is :meth:`features` of the same ``layer``; passing it
        skips both the RFF transform and the row subsampling, so it is only
        valid where no subsampling applies.  ``workspace`` lends the pair
        node its working blocks (see
        :func:`~repro.metrics.hsic.weighted_pairs_hsic_rff`); the value and
        gradients are the same with or without it.
        """
        layer = as_tensor(layer)
        if layer.ndim != 2:
            raise ValueError("layer must be a 2-D activation matrix")
        num_columns = layer.shape[1]
        if num_columns < 2:
            return as_tensor(0.0)
        weights = as_tensor(sample_weights).reshape(-1)
        if features is None:
            if self.subsample_threshold is not None and layer.shape[0] > self.subsample_threshold:
                keep = subsample_indices(layer.shape[0], self.num_anchors, self._row_rng)
                if keep is not None:
                    layer = layer[keep]
                    weights = weights[keep]
            features = self.features(layer, key)
        left, right = draw_pairs(num_columns, self.max_pairs, self._pair_rng)
        return weighted_pairs_hsic_rff(features, weights, left, right, workspace)

    def __call__(
        self,
        layer: Tensor,
        sample_weights: Tensor,
        key: str = "Zp",
        features: Optional[Tensor] = None,
        workspace: Optional[Workspace] = None,
    ) -> Tensor:
        return self.loss(layer, sample_weights, key=key, features=features, workspace=workspace)
