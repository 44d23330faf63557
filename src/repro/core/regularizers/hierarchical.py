"""Hierarchical-Attention Paradigm (Section IV.C of the paper).

The HAP assigns three priorities to the layers of the backbone when
computing the feature-decorrelation loss used to learn the sample weights
(Eq. 11):

* priority 1 — the last predictive layer ``Z_p`` with weight ``gamma1``
  (this alone is the plain Independence Regularizer of SBRL),
* priority 2 — the balanced-representation layer ``Z_r`` with ``gamma2``,
* priority 3 — every other hidden layer ``Z_o`` with ``gamma3``.

Combined with the Balancing Regularizer ``alpha * L_B`` and the weight
anchor ``R_w = mean((w - 1)^2)``, this yields the full weight objective
``L_w`` of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from ...nn.tensor import Tensor, as_tensor
from ..backbones.base import BackboneForward
from ..config import RegularizerConfig
from .balancing import BalanceGroups, BalancingRegularizer
from .independence import IndependenceRegularizer

__all__ = ["HierarchicalAttentionLoss", "PreparedForward", "WeightLossBreakdown"]


@dataclass
class WeightLossBreakdown:
    """The individual terms of the weight objective, for logging/ablation."""

    balance: float
    independence_last: float
    independence_representation: float
    independence_other: float
    anchor: float

    @property
    def total(self) -> float:
        """Sum of every penalty component."""
        return (
            self.balance
            + self.independence_last
            + self.independence_representation
            + self.independence_other
            + self.anchor
        )


@dataclass
class PreparedForward:
    """A frozen forward pass plus the weight-independent parts of ``L_w``.

    Built by :meth:`HierarchicalAttentionLoss.prepare`.  ``groups`` (the
    treatment groups and their representation rows; no kernel blocks) and
    ``features`` (each decorrelated layer's RFF features, by layer key) are
    filled only when no subsampling applies; otherwise the rows change on
    every evaluation and each call computes them itself.
    """

    forward: BackboneForward
    groups: Optional[BalanceGroups] = None
    features: Dict[str, Tensor] = field(default_factory=dict)


class HierarchicalAttentionLoss:
    """Assembles ``L_w`` from a backbone forward pass and the sample weights.

    ``mode`` selects the framework variant:

    * ``"sbrl"``     — ``alpha * L_B + gamma1 * L_I + R_w`` (no HAP terms),
    * ``"sbrl-hap"`` — adds ``gamma2 * L_D(Z_r)`` and ``gamma3 * sum L_D(Z_o)``.

    Individual terms can also be disabled explicitly (``use_balance``,
    ``use_independence``, ``use_hierarchy``) to support the paper's Table II
    ablation study.

    The sample-weight step evaluates ``L_w`` several times on one frozen
    forward pass.  :meth:`prepare` computes what depends only on those
    activations once; the loss accepts its result or a raw
    :class:`BackboneForward`, which it prepares on the fly.
    """

    def __init__(
        self,
        config: Optional[RegularizerConfig] = None,
        mode: str = "sbrl-hap",
        use_balance: bool = True,
        use_independence: bool = True,
        use_hierarchy: bool = True,
        seed: int = 0,
    ) -> None:
        if mode not in ("sbrl", "sbrl-hap"):
            raise ValueError("mode must be 'sbrl' or 'sbrl-hap'")
        self.config = config if config is not None else RegularizerConfig()
        self.mode = mode
        self.use_balance = use_balance
        self.use_independence = use_independence
        self.use_hierarchy = use_hierarchy and mode == "sbrl-hap"
        self.balancing = BalancingRegularizer.from_config(self.config, seed=seed)
        self.independence = IndependenceRegularizer(
            num_rff_features=self.config.num_rff_features,
            max_pairs=self.config.max_pairs_per_layer,
            seed=seed,
            subsample_threshold=self.config.subsample_threshold,
            num_anchors=self.config.num_anchors,
        )
        self.last_breakdown: Optional[WeightLossBreakdown] = None

    def _decorrelated_layers(self, forward: BackboneForward) -> List[Tuple[str, Tensor]]:
        """``(key, activations)`` of every layer with an active ``L_D`` term, in order."""
        cfg = self.config
        layers: List[Tuple[str, Tensor]] = []
        if self.use_independence and cfg.gamma1 > 0:
            layers.append(("Zp", forward.last_layer))
        if self.use_hierarchy:
            if cfg.gamma2 > 0:
                layers.append(("Zr", forward.representation))
            if cfg.gamma3 > 0:
                layers.extend((f"Zo{i}", layer) for i, layer in enumerate(forward.other_layers))
        return layers

    def prepare(self, forward: BackboneForward, treatment: np.ndarray) -> PreparedForward:
        """Compute the parts of ``L_w`` that depend only on the activations.

        These are the treatment groups with their representation rows and
        every decorrelated layer's RFF features.  No RBF kernel block is
        built: each evaluation sweeps the kernel in tiles, which beats a
        hoisted block at one or two inner steps in both time and memory.
        Above ``subsample_threshold`` rows the anchors and rows are redrawn
        on every evaluation, so nothing is hoisted.  Fresh RFF draws happen
        here, in layer order, exactly as a first loss call would make them.
        In the turn of a pooled workspace the features live in the pool
        (see :meth:`IndependenceRegularizer.features`), so the result is
        valid until that turn ends.
        """
        prepared = PreparedForward(forward)
        threshold = self.config.subsample_threshold
        if threshold is not None and len(np.ravel(treatment)) > threshold:
            return prepared
        if self.use_balance and self.balancing.alpha > 0:
            prepared.groups = self.balancing.prepare(forward.representation, treatment)
        for key, layer in self._decorrelated_layers(forward):
            if layer.ndim == 2 and layer.shape[1] >= 2:
                prepared.features[key] = self.independence.features(layer, key)
        return prepared

    def loss(
        self,
        forward: Union[BackboneForward, PreparedForward],
        treatment: np.ndarray,
        sample_weights: Tensor,
    ) -> Tensor:
        """Return the full weight objective ``L_w`` minus the anchor term.

        The anchor ``R_w`` is added by the sample-weight model itself (it
        depends only on the weights), so this method returns the data-dependent
        part: ``alpha*L_B + gamma1*L_I + gamma2*L_D(Z_r) + gamma3*sum L_D(Z_o)``.
        ``forward`` may be :meth:`prepare`'s result for the same
        ``treatment``.
        """
        prepared = forward
        if not isinstance(prepared, PreparedForward):
            prepared = self.prepare(forward, treatment)
        forward = prepared.forward
        cfg = self.config
        weights = as_tensor(sample_weights).reshape(-1)
        total = as_tensor(0.0, like=weights)
        balance_value = 0.0

        if self.use_balance and self.balancing.alpha > 0:
            balance = self.balancing(forward.representation, treatment, weights, groups=prepared.groups)
            total = total + balance
            balance_value = balance.item()

        # L_D per priority: Zp (gamma1), Zr (gamma2) and the sum over Zo* (gamma3).
        sums: Dict[str, Tensor] = {}
        for key, layer in self._decorrelated_layers(forward):
            term = self.independence(layer, weights, key=key, features=prepared.features.get(key))
            priority = key[:2]
            sums[priority] = term if priority not in sums else sums[priority] + term
        values = {"Zp": 0.0, "Zr": 0.0, "Zo": 0.0}
        for priority, coefficient in (("Zp", cfg.gamma1), ("Zr", cfg.gamma2), ("Zo", cfg.gamma3)):
            if priority in sums:
                term = sums[priority] * coefficient
                total = total + term
                values[priority] = term.item()

        self.last_breakdown = WeightLossBreakdown(
            balance=balance_value,
            independence_last=values["Zp"],
            independence_representation=values["Zr"],
            independence_other=values["Zo"],
            anchor=0.0,
        )
        return total

    def __call__(
        self,
        forward: Union[BackboneForward, PreparedForward],
        treatment: np.ndarray,
        sample_weights: Tensor,
    ) -> Tensor:
        return self.loss(forward, treatment, sample_weights)
