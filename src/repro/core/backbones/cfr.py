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

from ...nn.tensor import Tensor
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
        """``alpha * L_B`` between the treated and control representations."""
        return self.balancing(forward.representation, treatment, sample_weights)
