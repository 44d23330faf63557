"""Balancing Regularizer (Section IV.A of the paper).

Computes ``L_B``: the IPM distance between the *weighted* treated and
control representation distributions (Eq. 4).  Minimising ``L_B`` with
respect to the sample weights removes selection bias without forcing the
representation network itself to discard predictive information (the
"model-free" property the paper emphasises).

This module is the only place ``L_B`` is computed: the SBRL / SBRL-HAP
weight objective, CFR's balance penalty and DeR-CFR's balance terms each
call a :class:`BalancingRegularizer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...metrics.ipm import check_weighted_ipm_kind, weighted_ipm
from ...metrics.subsampling import subsample_indices
from ...nn.tape import dynamic as tape_dynamic
from ...nn.tensor import Tensor, as_tensor
from ..config import RegularizerConfig

__all__ = ["BalancingRegularizer", "BalanceGroups"]


@dataclass
class BalanceGroups:
    """The treatment arms of one ``L_B`` evaluation.

    ``control`` / ``treated`` index each arm's rows (anchors when
    subsampling applies).  ``inputs``, when set, holds one
    representation's rows of the two arms, control first: what
    :meth:`BalancingRegularizer.prepare` gathers once for any number of
    weight vectors.
    """

    control: np.ndarray
    treated: np.ndarray
    inputs: Optional[Tuple[Tensor, Tensor]] = None


class BalancingRegularizer:
    """Weighted-IPM balance loss over a representation matrix.

    ``subsample_threshold`` / ``num_anchors`` enable seeded anchor
    subsampling of each treatment group once the population exceeds the
    threshold, bounding the O(n²) kernel IPMs at production sample sizes
    (the exact evaluation metrics in :mod:`repro.metrics` are unaffected).
    """

    def __init__(
        self,
        kind: str = "mmd_linear",
        alpha: float = 1.0,
        subsample_threshold: Optional[int] = None,
        num_anchors: int = 256,
        seed: int = 0,
    ) -> None:
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        if num_anchors <= 0:
            raise ValueError("num_anchors must be positive")
        self.kind = check_weighted_ipm_kind(kind)
        self.alpha = alpha
        self.subsample_threshold = subsample_threshold
        self.num_anchors = num_anchors
        self._rng = np.random.default_rng(seed)

    @classmethod
    def from_config(cls, config: RegularizerConfig, seed: int = 0) -> "BalancingRegularizer":
        """The regularizer ``config`` describes: ``config.alpha * L_B``."""
        return cls(config.ipm_kind, config.alpha, config.subsample_threshold, config.num_anchors, seed)

    def split(self, treatment: np.ndarray) -> Optional[BalanceGroups]:
        """The rows of each treatment arm, or ``None`` when an arm is empty.

        Above ``subsample_threshold`` rows each arm is a fresh seeded draw
        of at most ``num_anchors`` anchors, the treated arm's first.  One
        tape provider makes both draws, so a replayed step draws them again
        exactly as its eager step would (outside a recording the provider
        is a plain call).
        """
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        treated = np.where(treatment == 1.0)[0]
        control = np.where(treatment == 0.0)[0]
        if len(treated) == 0 or len(control) == 0:
            return None
        if self.subsample_threshold is not None and len(treatment) > self.subsample_threshold:
            arms = (treated, control)
            treated, control = tape_dynamic(lambda: tuple(self._anchors(arm) for arm in arms))
        return BalanceGroups(control, treated)

    def prepare(self, representation: Tensor, treatment: np.ndarray) -> Optional[BalanceGroups]:
        """:meth:`split`, with ``representation``'s rows of each arm gathered.

        No kernel block is built: the RBF-MMD sweeps its kernel in tiles on
        every loss evaluation.  Above ``subsample_threshold`` rows this
        draws a fresh set of anchors, so it runs once per loss evaluation
        there; otherwise the result can be reused for any number of weight
        vectors.
        """
        groups = self.split(treatment)
        if groups is not None:
            groups.inputs = self._rows(representation, groups)
        return groups

    def ipm(self, representation: Tensor, groups: BalanceGroups, sample_weights=None) -> Tensor:
        """The unscaled ``L_B`` of ``representation`` between the arms of ``groups``.

        ``sample_weights`` (one per row; uniform when ``None``) weight each
        arm's rows.  The representation rows are gathered treated first,
        as CFR's penalty gathered them, and the weight entries control
        first, as the weight objective did.
        """
        rep_control, rep_treated = groups.inputs or self._rows(representation, groups)
        weights_control = weights_treated = None
        if sample_weights is not None:
            weights = as_tensor(sample_weights).reshape(-1)
            weights_control = weights[groups.control]
            weights_treated = weights[groups.treated]
        return weighted_ipm(rep_control, rep_treated, weights_control, weights_treated, kind=self.kind)

    def loss(
        self,
        representation: Tensor,
        treatment: np.ndarray,
        sample_weights: Optional[Tensor] = None,
        groups: Optional[BalanceGroups] = None,
    ) -> Tensor:
        """Return ``alpha * L_B`` for the given representation and weights.

        ``groups`` is :meth:`split`'s or :meth:`prepare`'s result for the
        same treatment; without it the arms are split here.  A single-arm
        treatment carries no balance signal and gives zero.
        """
        groups = None if self.alpha == 0.0 else groups or self.split(treatment)
        if groups is None:
            return as_tensor(0.0, like=representation)
        return self.ipm(representation, groups, sample_weights) * self.alpha

    @staticmethod
    def _rows(representation: Tensor, groups: BalanceGroups) -> Tuple[Tensor, Tensor]:
        """``representation``'s rows of the control and treated arms, gathered treated first."""
        rep_treated = representation[groups.treated]
        return representation[groups.control], rep_treated

    def _anchors(self, group_indices: np.ndarray) -> np.ndarray:
        """Seeded draw of at most ``num_anchors`` indices from one group."""
        keep = subsample_indices(len(group_indices), self.num_anchors, self._rng)
        return group_indices if keep is None else group_indices[keep]

    __call__ = loss
