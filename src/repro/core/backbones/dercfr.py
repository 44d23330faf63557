"""DeR-CFR backbone (Wu et al., "Learning Decomposed Representations for
Treatment Effect Estimation", TKDE 2022).

DeR-CFR decomposes the covariates into three representations —
instrumental ``I(x)``, confounding ``C(x)`` and adjustment ``A(x)`` — and
imposes decomposition constraints so that each block plays its causal role:

* ``A(x)`` must be independent of the treatment (balanced across arms),
* ``I(x)`` must be predictive of the treatment but, conditional on the
  treatment, carry no information about the outcome,
* ``C(x)`` captures the true confounders and is balanced with learned
  weights (here: with the SBRL sample weights when the framework provides
  them, or uniformly otherwise),
* the three blocks should be mutually orthogonal (non-redundant).

The outcome heads consume ``[C(x), A(x)]`` and a treatment classifier
consumes ``[I(x), C(x)]``.  The loss-term structure and the hyper-parameter
names ``{alpha, beta, gamma, mu}`` follow the DeR-CFR paper (and Table V of
the SBRL-HAP paper).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ...nn import functional as F
from ...nn.modules import MLP, RepresentationNetwork
from ...nn.tensor import Tensor, as_tensor, concatenate
from ..config import BackboneConfig, RegularizerConfig
from .base import BackboneForward, BaseBackbone, TwoHeadPredictor, constant_factual_rows

__all__ = ["DeRCFR", "DeRCFRPenalties"]


class DeRCFRPenalties:
    """Weights of the DeR-CFR decomposition losses (Table V notation)."""

    def __init__(
        self,
        adjustment_balance: float = 1.0,
        instrument_independence: float = 1e-3,
        confounder_balance: float = 1.0,
        orthogonality: float = 1.0,
        treatment_prediction: float = 1.0,
    ) -> None:
        for name, value in (
            ("adjustment_balance", adjustment_balance),
            ("instrument_independence", instrument_independence),
            ("confounder_balance", confounder_balance),
            ("orthogonality", orthogonality),
            ("treatment_prediction", treatment_prediction),
        ):
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        self.adjustment_balance = adjustment_balance
        self.instrument_independence = instrument_independence
        self.confounder_balance = confounder_balance
        self.orthogonality = orthogonality
        self.treatment_prediction = treatment_prediction


class DeRCFR(BaseBackbone):
    """Decomposed-representation counterfactual regression backbone."""

    name = "dercfr"

    def __init__(
        self,
        num_features: int,
        config: Optional[BackboneConfig] = None,
        regularizers: Optional[RegularizerConfig] = None,
        binary_outcome: bool = True,
        penalties: Optional[DeRCFRPenalties] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(num_features, config, regularizers, binary_outcome, rng)
        cfg = self.config
        self.penalties = penalties if penalties is not None else DeRCFRPenalties()

        def block() -> RepresentationNetwork:
            return RepresentationNetwork(
                num_features,
                cfg.rep_hidden_sizes,
                activation=cfg.activation,
                normalize=cfg.rep_normalization,
                rng=self.rng,
            )

        self.instrument_net = block()
        self.confounder_net = block()
        self.adjustment_net = block()

        outcome_in = self.confounder_net.output_dim + self.adjustment_net.output_dim
        self.predictor = TwoHeadPredictor(
            outcome_in,
            cfg.head_hidden_sizes,
            activation=cfg.activation,
            binary_outcome=binary_outcome,
            rng=self.rng,
        )
        treatment_in = self.instrument_net.output_dim + self.confounder_net.output_dim
        # The treatment head emits raw logits: the prediction loss runs
        # through the fused F.bce_with_logits (numerically stable, no
        # probability clipping), and the probability view is derived for
        # consumers of ``extra["propensity"]``.
        self.treatment_net = MLP(
            treatment_in,
            cfg.treatment_hidden_sizes,
            out_features=1,
            activation=cfg.activation,
            output_activation=None,
            rng=self.rng,
        )

    # ------------------------------------------------------------------ #
    def forward(self, covariates, treatment: np.ndarray) -> BackboneForward:
        """Three-stream forward: instrument, confounder and adjustment blocks."""
        covariates = self._input(covariates)
        rep_i, hidden_i = self.instrument_net.forward_with_hidden(covariates)
        rep_c, hidden_c = self.confounder_net.forward_with_hidden(covariates)
        rep_a, hidden_a = self.adjustment_net.forward_with_hidden(covariates)

        outcome_input = concatenate([rep_c, rep_a], axis=1)
        mu0, mu1, last0, last1, head_hidden = self.predictor(outcome_input)
        last_layer = constant_factual_rows(last1, last0, treatment)

        treatment_input = concatenate([rep_i, rep_c], axis=1)
        treatment_logits = self.treatment_net(treatment_input).reshape(-1)
        propensity = treatment_logits.sigmoid()

        # The "balanced representation" handed to the frameworks is the
        # confounder block — it is the block whose balance matters for
        # unbiased effect estimation.
        return BackboneForward(
            mu0=mu0,
            mu1=mu1,
            representation=rep_c,
            last_layer=last_layer,
            other_layers=list(hidden_i) + list(hidden_c) + list(hidden_a) + list(head_hidden),
            extra={
                "instrument": rep_i,
                "adjustment": rep_a,
                "propensity": propensity,
                "treatment_logits": treatment_logits,
            },
        )

    # ------------------------------------------------------------------ #
    def regularization_loss(
        self,
        forward: BackboneForward,
        treatment: np.ndarray,
        sample_weights: Optional[Tensor] = None,
    ) -> Tensor:
        """Decomposition penalties over the three representation blocks.

        Its three balance terms share one split of the treatment arms (one
        anchor draw above ``subsample_threshold`` rows).
        """
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        groups = self.balancing.split(treatment)
        penalties = self.penalties
        total = as_tensor(0.0, like=forward.representation)

        # Treatment prediction loss: I and C must explain the assignment.
        # Fused logits formulation — stable for saturated propensities where
        # the clipped probability-space BCE has a dead gradient zone.
        logits = forward.extra["treatment_logits"]
        total = total + penalties.treatment_prediction * F.bce_with_logits(logits, treatment)

        if groups is not None:
            # Adjustment block must be treatment-agnostic (A ⟂ T).
            adjustment = self.balancing.ipm(forward.extra["adjustment"], groups)
            total = total + penalties.adjustment_balance * adjustment
            # Confounder block is balanced through the (learned) sample weights.
            confounder = self.balancing.ipm(forward.representation, groups, sample_weights)
            total = total + penalties.confounder_balance * confounder

        # Instrument block should not predict the outcome directly: penalise
        # the correlation between the instrument representation mean response
        # and the predicted outcomes (a light-weight proxy for I ⟂ Y | T).
        instrument = forward.extra["instrument"]
        centred_i = instrument - instrument.mean(axis=0, keepdims=True)
        outcome_signal = (forward.mu1 - forward.mu0).reshape(-1, 1)
        centred_y = outcome_signal - outcome_signal.mean(axis=0, keepdims=True)
        covariance = (centred_i * centred_y).mean(axis=0)
        total = total + penalties.instrument_independence * (covariance * covariance).sum()

        # Mutual orthogonality of the three block means.
        total = total + penalties.orthogonality * self._orthogonality(forward)

        # CFR-style alpha penalty on the confounder block (uses the shared
        # alpha hyper-parameter so the frameworks can switch it off).
        if groups is not None and self.balancing.alpha > 0:
            total = total + self.balancing.loss(forward.representation, treatment, groups=groups)
        return total

    def _orthogonality(self, forward: BackboneForward) -> Tensor:
        """Squared cosine-like similarity between block mean activations."""
        blocks = [
            forward.extra["instrument"],
            forward.representation,
            forward.extra["adjustment"],
        ]
        means = [block.mean(axis=0) for block in blocks]
        total = as_tensor(0.0, like=forward.representation)
        for i in range(len(means)):
            for j in range(i + 1, len(means)):
                dot = (means[i] * means[j]).sum()
                total = total + dot * dot
        return total
