"""CFR backbone (Counterfactual Regression, Shalit et al., 2017).

CFR extends TARNet with a balance penalty on the representation: the IPM
distance between the treated and control representation distributions is
added to the training loss with weight ``alpha``.  When wrapped by SBRL /
SBRL-HAP the same IPM is computed on the *weighted* distributions, so the
sample weights — not only the network parameters — absorb the balancing
constraint (the paper's "model-free" Balancing Regularizer).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...metrics.ipm import weighted_ipm
from ...metrics.subsampling import subsample_indices
from ...nn.tape import dynamic as tape_dynamic
from ...nn.tensor import Tensor, as_tensor
from .base import BackboneForward
from .tarnet import TARNet

__all__ = ["CFR"]


class CFR(TARNet):
    """TARNet + IPM balance penalty on the shared representation."""

    name = "cfr"

    def regularization_loss(
        self,
        forward: BackboneForward,
        treatment: np.ndarray,
        sample_weights: Optional[Tensor] = None,
    ) -> Tensor:
        """IPM balance penalty between treated and control representations."""
        alpha = self.regularizers.alpha
        if alpha == 0.0:
            return as_tensor(0.0, like=forward.representation)
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        treated_mask = treatment == 1.0
        control_mask = ~treated_mask
        if treated_mask.sum() == 0 or control_mask.sum() == 0:
            # A batch with a single treatment arm carries no balance signal.
            return as_tensor(0.0, like=forward.representation)
        treated_idx = np.where(treated_mask)[0]
        control_idx = np.where(control_mask)[0]
        threshold = self.regularizers.subsample_threshold
        if threshold is not None and len(treatment) > threshold:
            # Kernel IPMs are O(n²); above the threshold estimate the
            # penalty on a seeded anchor draw from each arm instead.  Both
            # draws go through one tape provider so graph replay re-draws
            # them per step, advancing _balance_rng exactly as eager would.
            full_treated, full_control = treated_idx, control_idx
            treated_idx, control_idx = tape_dynamic(
                lambda: (
                    self._balance_anchors(full_treated),
                    self._balance_anchors(full_control),
                )
            )
        rep = forward.representation
        rep_treated = rep[treated_idx]
        rep_control = rep[control_idx]
        weights_treated = weights_control = None
        if sample_weights is not None:
            weights = as_tensor(sample_weights).reshape(-1)
            weights_treated = weights[treated_idx]
            weights_control = weights[control_idx]
        distance = weighted_ipm(
            rep_control,
            rep_treated,
            weights_control=weights_control,
            weights_treated=weights_treated,
            kind=self.regularizers.ipm_kind,
        )
        return distance * alpha

    def _balance_anchors(self, group_indices: np.ndarray) -> np.ndarray:
        """Seeded draw of at most ``num_anchors`` indices from one arm.

        The generator is created lazily with a fixed seed (deliberately not
        ``self.rng``, which must be consumed only by weight initialisation
        to keep parameter draws identical to the pre-engine code).  Training
        calls ``network_loss`` in a fixed per-iteration sequence, so the
        draws are reproducible run-to-run for a given call pattern.
        """
        rng = getattr(self, "_balance_rng", None)
        if rng is None:
            rng = self._balance_rng = np.random.default_rng(0)
        keep = subsample_indices(len(group_indices), self.regularizers.num_anchors, rng)
        return group_indices if keep is None else group_indices[keep]
