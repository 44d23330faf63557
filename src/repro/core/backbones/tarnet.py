"""TARNet backbone (Shalit et al., 2017).

A treatment-agnostic representation network: a shared representation MLP
``Φ(x)`` followed by two outcome heads ``h_0`` and ``h_1``.  TARNet does not
constrain the representation distributions of the treated and control groups
— that is what CFR adds on top.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...nn.modules import RepresentationNetwork
from ..config import BackboneConfig, RegularizerConfig
from .base import BackboneForward, BaseBackbone, TwoHeadPredictor, constant_factual_rows

__all__ = ["TARNet"]


class TARNet(BaseBackbone):
    """Shared representation + two-head outcome prediction, no balancing."""

    name = "tarnet"

    def __init__(
        self,
        num_features: int,
        config: Optional[BackboneConfig] = None,
        regularizers: Optional[RegularizerConfig] = None,
        binary_outcome: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_features, config, regularizers, binary_outcome, rng)
        cfg = self.config
        self.representation = RepresentationNetwork(
            num_features,
            cfg.rep_hidden_sizes,
            activation=cfg.activation,
            normalize=cfg.rep_normalization,
            rng=self.rng,
        )
        self.predictor = TwoHeadPredictor(
            self.representation.output_dim,
            cfg.head_hidden_sizes,
            activation=cfg.activation,
            binary_outcome=binary_outcome,
            rng=self.rng,
        )

    def forward(self, covariates, treatment: np.ndarray) -> BackboneForward:
        """Shared representation, then the per-arm outcome heads."""
        covariates = self._input(covariates)
        representation, rep_hidden = self.representation.forward_with_hidden(covariates)
        mu0, mu1, last0, last1, head_hidden = self.predictor(representation)
        last_layer = constant_factual_rows(last1, last0, treatment)
        return BackboneForward(
            mu0=mu0,
            mu1=mu1,
            representation=representation,
            last_layer=last_layer,
            other_layers=list(rep_hidden) + list(head_hidden),
        )
