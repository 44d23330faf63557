"""Shared machinery of the representation-balancing backbones.

Every backbone (TARNet, CFR, DeR-CFR) follows the same contract so the SBRL /
SBRL-HAP frameworks can wrap any of them:

* :meth:`BaseBackbone.forward` maps a covariate matrix to a
  :class:`BackboneForward` carrying the predicted potential outcomes and the
  internal activations the Hierarchical-Attention Paradigm needs —
  the balanced representation ``Z_r``, the last predictive hidden layer
  ``Z_p`` (factual head, per unit) and the remaining hidden layers ``Z_o``;
* :meth:`BaseBackbone.network_loss` returns the backbone's own training loss
  given sample weights (weighted factual loss + backbone-specific
  regularisation such as CFR's IPM term).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional, Sequence

import numpy as np

from ...nn import functional as F
from ...nn.modules import MLP, Module
from ...nn.tensor import Tensor, as_tensor, no_grad
from ..config import BackboneConfig, RegularizerConfig

__all__ = ["BackboneForward", "BaseBackbone", "TwoHeadPredictor"]

_DATA = attrgetter("data")


@dataclass
class BackboneForward:
    """All tensors produced by one forward pass of a backbone.

    Attributes
    ----------
    mu0, mu1:
        Predicted potential outcomes, shape ``(n,)`` (probabilities for
        binary outcomes, raw values for continuous outcomes).
    representation:
        The balanced representation layer ``Z_r`` (``Φ(x)``), shape ``(n, d_r)``.
    last_layer:
        The last predictive hidden layer ``Z_p`` selected per unit from the
        factual head, shape ``(n, d_p)``.  A constant with no autodiff
        graph: only the sample-weight objective reads it.
    other_layers:
        Every other hidden activation ``Z_o`` (intermediate representation
        layers and intermediate head layers).
    extra:
        Backbone-specific tensors (e.g. DeR-CFR's treatment logits).
    """

    mu0: Tensor
    mu1: Tensor
    representation: Tensor
    last_layer: Tensor
    other_layers: List[Tensor] = field(default_factory=list)
    extra: Dict[str, Tensor] = field(default_factory=dict)


class TwoHeadPredictor(Module):
    """The two-head predictive network ``h_0`` / ``h_1`` shared by all backbones.

    Each head is an MLP from the representation to a single output; for
    binary outcomes a sigmoid is applied so the prediction is a probability.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        activation: str = "elu",
        binary_outcome: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.binary_outcome = binary_outcome
        self.head0 = MLP(in_features, hidden_sizes, out_features=1, activation=activation, rng=rng)
        self.head1 = MLP(in_features, hidden_sizes, out_features=1, activation=activation, rng=rng)

    def forward(self, representation: Tensor):
        """Return (mu0, mu1, last_hidden0, last_hidden1, other_hidden_layers)."""
        out0, hidden0 = self.head0.forward_with_hidden(representation)
        out1, hidden1 = self.head1.forward_with_hidden(representation)
        if self.binary_outcome:
            out0 = out0.sigmoid()
            out1 = out1.sigmoid()
        mu0 = out0.reshape(-1)
        mu1 = out1.reshape(-1)
        last0 = hidden0[-1]
        last1 = hidden1[-1]
        others = hidden0[:-1] + hidden1[:-1]
        return mu0, mu1, last0, last1, others

    def head_parameters(self):
        """Parameters of both outcome heads (targets of the l2 penalty)."""
        yield from self.head0.parameters()
        yield from self.head1.parameters()


def select_factual_rows(treated: Tensor, control: Tensor, treatment: np.ndarray) -> Tensor:
    """Select, per unit, the row of the head matching its factual treatment.

    Used to assemble the paper's ``Z_p`` (last predictive layer) from the two
    head-specific activations.  Implemented with a differentiable mask
    multiplication so gradients flow to the correct head only.
    """
    mask = as_tensor(np.reshape(treatment, (-1, 1)), like=treated)
    return treated * mask + control * (1.0 - mask)


def constant_factual_rows(treated: Tensor, control: Tensor, treatment: np.ndarray) -> Tensor:
    """:func:`select_factual_rows` on the values alone, as a graph-free constant.

    ``Z_p`` feeds only the sample-weight objective, which holds it
    constant.  Built from graph nodes it would leave nodes the network
    loss never reaches (closure/tensor reference cycles) behind every
    step, and replay would re-run them.  Same arithmetic, so the values
    are bitwise those of :func:`select_factual_rows`.
    """
    mask = np.asarray(treatment, dtype=treated.data.dtype).reshape(-1, 1)
    return Tensor(treated.data * mask + control.data * (1.0 - mask))


class BaseBackbone(Module):
    """Base class for all representation-balancing backbones."""

    name = "base"

    def __init__(
        self,
        num_features: int,
        config: Optional[BackboneConfig] = None,
        regularizers: Optional[RegularizerConfig] = None,
        binary_outcome: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.config = config if config is not None else BackboneConfig()
        self.regularizers = regularizers if regularizers is not None else RegularizerConfig()
        self.binary_outcome = binary_outcome
        self.rng = rng if rng is not None else np.random.default_rng()
        from ..regularizers.balancing import BalancingRegularizer  # a cycle at module level

        #: ``alpha * L_B`` for CFR and DeR-CFR; its anchors never draw from ``self.rng``.
        self.balancing = BalancingRegularizer.from_config(self.regularizers)

    # ------------------------------------------------------------------ #
    # Interface
    # ------------------------------------------------------------------ #
    def forward(self, covariates, treatment: np.ndarray) -> BackboneForward:  # pragma: no cover
        """Compute one forward pass (abstract; see TARNet for the contract)."""
        raise NotImplementedError

    def _input(self, covariates) -> Tensor:
        """Array ``covariates`` in the parameters' dtype, as the compiled forward casts them."""
        if isinstance(covariates, Tensor):
            return covariates
        return Tensor(np.asarray(covariates, dtype=self.parameter_dtype()))

    def network_loss(
        self,
        forward: BackboneForward,
        treatment: np.ndarray,
        outcome: np.ndarray,
        sample_weights: Optional[Tensor] = None,
    ) -> Tensor:
        """Weighted factual prediction loss plus backbone regularisation."""
        prediction_loss = self.factual_loss(forward, treatment, outcome, sample_weights)
        penalty = self.regularization_loss(forward, treatment, sample_weights)
        l2 = F.l2_penalty(self.head_parameters()) * self.regularizers.lambda_l2
        return prediction_loss + penalty + l2

    def regularization_loss(
        self,
        forward: BackboneForward,
        treatment: np.ndarray,
        sample_weights: Optional[Tensor] = None,
    ) -> Tensor:
        """Backbone-specific penalty (zero by default; CFR adds its IPM)."""
        return as_tensor(0.0, like=forward.representation)

    def head_parameters(self):
        """Parameters subject to the outcome-head l2 penalty."""
        return self.predictor.head_parameters()

    # ------------------------------------------------------------------ #
    # Shared helpers
    # ------------------------------------------------------------------ #
    def factual_loss(
        self,
        forward: BackboneForward,
        treatment: np.ndarray,
        outcome: np.ndarray,
        sample_weights: Optional[Tensor] = None,
    ) -> Tensor:
        """Weighted factual outcome loss (Eq. 13): MSE or cross-entropy."""
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        outcome = np.asarray(outcome, dtype=np.float64).ravel()
        factual = select_factual_rows(
            forward.mu1.reshape(-1, 1), forward.mu0.reshape(-1, 1), treatment
        ).reshape(-1)
        weights = sample_weights if sample_weights is not None else np.ones_like(outcome)
        if self.binary_outcome:
            return F.weighted_binary_cross_entropy(factual, outcome, weights)
        return F.weighted_mse_loss(factual, outcome, weights)

    def predict(self, covariates: np.ndarray) -> Dict[str, np.ndarray]:
        """Inference-mode prediction of both potential outcomes.

        Runs the compiled forward (:mod:`repro.core.backbones.compiled`), which
        equals the autodiff forward bit for bit; a backbone it refuses (a
        custom ``forward`` or component) runs the autodiff forward instead.
        """
        inference = self._compiled_inference()
        if inference is None:
            return self._predict_eager(covariates)
        mu0, mu1 = inference(covariates)
        return {"mu0": mu0, "mu1": mu1, "ite": mu1 - mu0}

    def _predict_eager(self, covariates: np.ndarray) -> Dict[str, np.ndarray]:
        """:meth:`predict` through the autodiff forward under ``no_grad``."""
        forward = self._forward_no_grad(covariates)
        mu0, mu1 = forward.mu0.numpy().copy(), forward.mu1.numpy().copy()
        return {"mu0": mu0, "mu1": mu1, "ite": mu1 - mu0}

    def _forward_no_grad(self, covariates: np.ndarray) -> BackboneForward:
        with no_grad():
            return self.forward(covariates, np.zeros(len(covariates)))

    def invalidate_compiled(self) -> None:
        """Drop the cached compiled-inference closure (if any).

        Needed only after writing a parameter buffer in place without
        bumping the tensor's ``_version`` (``param.data[...] = v``); see
        :mod:`repro.core.backbones.compiled`.
        """
        self._compiled_cache = None

    def _compiled_inference(self):
        """Return the compiled inference closure, re-compiling when stale.

        The cache is keyed on every parameter's ``(buffer identity,
        _version)``.  The keyed arrays are held alongside the key, so a
        freed buffer's id can never be recycled into a false cache hit.  An
        un-compilable backbone is remembered as such (``False``).
        """
        cached = getattr(self, "_compiled_cache", None)
        if cached is False:
            return None
        params = getattr(self, "_flat_params", None)
        if params is None:
            # A stock backbone's module tree is fixed after construction: flatten
            # it once, so the per-predict probe is a plain id/version sweep.
            params = self._flat_params = tuple(self.parameters())
        buffers = tuple(map(_DATA, params))
        key = (tuple(map(id, buffers)), tuple([getattr(param, "_version", 0) for param in params]))
        if cached is not None and cached[1] == key:
            return cached[0]
        from .compiled import compile_backbone

        inference = compile_backbone(self)
        if inference is None:
            self._compiled_cache = False
            return None
        # ``buffers`` pins the keyed arrays so their ids stay unambiguous.
        self._compiled_cache = (inference, key, buffers)
        return inference

    def representations(self, covariates: np.ndarray) -> np.ndarray:
        """Inference-mode balanced representation Φ(x) (used for Fig. 5)."""
        return self._forward_no_grad(covariates).representation.numpy().copy()
