"""Balancing Regularizer (Section IV.A of the paper).

Computes ``L_B``: the IPM distance between the *weighted* treated and
control representation distributions (Eq. 4).  Minimising ``L_B`` with
respect to the sample weights removes selection bias without forcing the
representation network itself to discard predictive information (the
"model-free" property the paper emphasises).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ...metrics.ipm import check_weighted_ipm_kind, weighted_ipm
from ...metrics.subsampling import subsample_indices
from ...nn.kernels import Workspace
from ...nn.tensor import Tensor, as_tensor

__all__ = ["BalancingRegularizer", "BalanceGroups"]


@dataclass
class BalanceGroups:
    """The weight-independent half of ``L_B`` for one representation.

    ``control`` / ``treated`` index the rows of each group (anchors when
    subsampling applies); ``inputs`` holds the two groups' representation
    rows, for every IPM kind.  Both are ``None`` when a treatment arm is
    empty.
    """

    control: Optional[np.ndarray]
    treated: Optional[np.ndarray]
    inputs: Optional[Tuple[Tensor, ...]]


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

    def prepare(self, representation: Tensor, treatment: np.ndarray) -> BalanceGroups:
        """Index the treatment groups and gather their representation rows.

        No kernel block is built: the RBF-MMD sweeps its kernel in tiles on
        every loss evaluation.  Above ``subsample_threshold`` rows this
        draws a fresh set of anchors, so it runs once per loss evaluation
        there; otherwise the result can be reused for any number of weight
        vectors.
        """
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        treated_idx = np.where(treatment == 1.0)[0]
        control_idx = np.where(treatment == 0.0)[0]
        if len(treated_idx) == 0 or len(control_idx) == 0:
            return BalanceGroups(None, None, None)
        if (
            self.subsample_threshold is not None
            and len(treatment) > self.subsample_threshold
        ):
            treated_idx = self._anchors(treated_idx)
            control_idx = self._anchors(control_idx)
        inputs = (representation[control_idx], representation[treated_idx])
        return BalanceGroups(control_idx, treated_idx, inputs)

    def loss(
        self,
        representation: Tensor,
        treatment: np.ndarray,
        sample_weights: Tensor,
        groups: Optional[BalanceGroups] = None,
        workspace: Optional[Workspace] = None,
    ) -> Tensor:
        """Return ``alpha * L_B`` for the given representation and weights.

        ``groups`` is :meth:`prepare`'s result for the same representation
        and treatment; without it the groups are prepared here.
        ``workspace`` lends the RBF-MMD sweep its working blocks.
        """
        if self.alpha == 0.0:
            return as_tensor(0.0)
        if groups is None:
            groups = self.prepare(representation, treatment)
        if groups.inputs is None:
            return as_tensor(0.0)
        weights = as_tensor(sample_weights).reshape(-1)
        weights_control = weights[groups.control]
        weights_treated = weights[groups.treated]
        distance = weighted_ipm(
            *groups.inputs, weights_control, weights_treated, kind=self.kind, workspace=workspace
        )
        return distance * self.alpha

    def _anchors(self, group_indices: np.ndarray) -> np.ndarray:
        """Seeded draw of at most ``num_anchors`` indices from one group."""
        keep = subsample_indices(len(group_indices), self.num_anchors, self._rng)
        return group_indices if keep is None else group_indices[keep]

    def __call__(
        self,
        representation: Tensor,
        treatment: np.ndarray,
        sample_weights: Tensor,
        groups: Optional[BalanceGroups] = None,
        workspace: Optional[Workspace] = None,
    ) -> Tensor:
        return self.loss(representation, treatment, sample_weights, groups, workspace)
