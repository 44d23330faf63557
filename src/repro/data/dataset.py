"""Causal dataset container shared by every generator and estimator.

A :class:`CausalDataset` bundles covariates, treatments, observed outcomes
and — because every benchmark in the paper is (semi-)synthetic — both
potential outcomes, which are needed to compute PEHE and the ATE bias.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

__all__ = ["CausalDataset", "TrainValTestSplit", "covariate_matrix"]


def covariate_matrix(
    covariates, num_features: int, dtype=np.float64, model: str = "the model"
) -> np.ndarray:
    """Coerce covariates to a contiguous ``(n, num_features)`` matrix of ``dtype``.

    A 1-D array is one unit.  Any other rank, or a width other than
    ``num_features``, raises :class:`ValueError`; ``model`` names the
    fitted model in the width message.
    """
    matrix = np.asarray(covariates, dtype=dtype, order="C")
    if matrix.ndim == 1:
        matrix = matrix.reshape(1, -1)
    if matrix.ndim != 2:
        raise ValueError(f"covariates must be 1-D or 2-D, got shape {matrix.shape}")
    if matrix.shape[1] != num_features:
        raise ValueError(
            f"covariates have feature dimension {matrix.shape[1]} but {model} "
            f"was fitted with feature dimension {num_features}"
        )
    return matrix


@dataclass
class CausalDataset:
    """Observational dataset with ground-truth potential outcomes.

    Attributes
    ----------
    covariates:
        ``(n, d)`` array of pre-treatment covariates ``X``.
    treatment:
        ``(n,)`` binary array ``T``.
    outcome:
        ``(n,)`` observed (factual) outcome ``Y = T*Y1 + (1-T)*Y0``.
    mu0, mu1:
        ``(n,)`` noiseless potential outcomes (ground truth for evaluation).
    environment:
        Free-form label of the environment this population was drawn from
        (e.g. ``"rho=2.5"``).
    feature_roles:
        Optional mapping from role name (``"instrument"``, ``"confounder"``,
        ``"adjustment"``, ``"unstable"``) to the column indices playing that
        role; used by tests and the decomposition backbone.
    binary_outcome:
        Whether the outcome is binary (synthetic / Twins) or continuous
        (IHDP); selects the prediction loss and whether F1 is reported.
    """

    covariates: np.ndarray
    treatment: np.ndarray
    outcome: np.ndarray
    mu0: np.ndarray
    mu1: np.ndarray
    environment: str = "default"
    feature_roles: Dict[str, np.ndarray] = field(default_factory=dict)
    binary_outcome: bool = True

    def __post_init__(self) -> None:
        self.covariates = np.asarray(self.covariates, dtype=np.float64)
        self.treatment = np.asarray(self.treatment, dtype=np.float64).ravel()
        self.outcome = np.asarray(self.outcome, dtype=np.float64).ravel()
        self.mu0 = np.asarray(self.mu0, dtype=np.float64).ravel()
        self.mu1 = np.asarray(self.mu1, dtype=np.float64).ravel()
        if self.covariates.ndim != 2:
            raise ValueError("covariates must be a 2-D array")
        n = len(self.covariates)
        for name, array in (
            ("treatment", self.treatment),
            ("outcome", self.outcome),
            ("mu0", self.mu0),
            ("mu1", self.mu1),
        ):
            if len(array) != n:
                raise ValueError(f"{name} length {len(array)} does not match covariates ({n})")
        unique = np.unique(self.treatment)
        if not np.all(np.isin(unique, [0.0, 1.0])):
            raise ValueError("treatment must be binary (0/1)")
        self.feature_roles = {
            key: np.asarray(value, dtype=int) for key, value in self.feature_roles.items()
        }

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.covariates)

    @property
    def num_features(self) -> int:
        """Number of covariate columns."""
        return self.covariates.shape[1]

    @property
    def num_treated(self) -> int:
        """Number of treated units."""
        return int(self.treatment.sum())

    @property
    def num_control(self) -> int:
        """Number of control units."""
        return len(self) - self.num_treated

    @property
    def true_ite(self) -> np.ndarray:
        """Ground-truth individual treatment effect ``mu1 - mu0``."""
        return self.mu1 - self.mu0

    @property
    def true_ate(self) -> float:
        """Ground-truth average treatment effect."""
        return float(np.mean(self.true_ite))

    @property
    def treated_mask(self) -> np.ndarray:
        """Boolean mask of treated rows."""
        return self.treatment == 1.0

    @property
    def control_mask(self) -> np.ndarray:
        """Boolean mask of control rows."""
        return self.treatment == 0.0

    # ------------------------------------------------------------------ #
    # Manipulation
    # ------------------------------------------------------------------ #
    def subset(self, indices: np.ndarray, environment: Optional[str] = None) -> "CausalDataset":
        """Return a new dataset restricted to ``indices``."""
        indices = np.asarray(indices)
        return CausalDataset(
            covariates=self.covariates[indices],
            treatment=self.treatment[indices],
            outcome=self.outcome[indices],
            mu0=self.mu0[indices],
            mu1=self.mu1[indices],
            environment=environment if environment is not None else self.environment,
            feature_roles=dict(self.feature_roles),
            binary_outcome=self.binary_outcome,
        )

    def shuffled(self, rng: np.random.Generator) -> "CausalDataset":
        """Return a copy with rows in random order."""
        permutation = rng.permutation(len(self))
        return self.subset(permutation)

    def split(
        self, fractions: Tuple[float, float, float], rng: np.random.Generator
    ) -> "TrainValTestSplit":
        """Randomly split into train/validation/test with the given fractions."""
        if len(fractions) != 3 or not np.isclose(sum(fractions), 1.0):
            raise ValueError("fractions must be three values summing to 1")
        n = len(self)
        permutation = rng.permutation(n)
        n_train = int(round(fractions[0] * n))
        n_val = int(round(fractions[1] * n))
        train_idx = permutation[:n_train]
        val_idx = permutation[n_train : n_train + n_val]
        test_idx = permutation[n_train + n_val :]
        return TrainValTestSplit(
            train=self.subset(train_idx),
            validation=self.subset(val_idx),
            test=self.subset(test_idx),
        )

    def train_validation_split(
        self, train_fraction: float, rng: np.random.Generator
    ) -> Tuple["CausalDataset", "CausalDataset"]:
        """Split into train/validation only (the paper's 70/30 split)."""
        if not 0 < train_fraction < 1:
            raise ValueError("train_fraction must be in (0, 1)")
        n = len(self)
        permutation = rng.permutation(n)
        n_train = int(round(train_fraction * n))
        return self.subset(permutation[:n_train]), self.subset(permutation[n_train:])

    def standardize(
        self, mean: Optional[np.ndarray] = None, std: Optional[np.ndarray] = None
    ) -> Tuple["CausalDataset", np.ndarray, np.ndarray]:
        """Return a covariate-standardised copy plus the (mean, std) used.

        Statistics default to this dataset's own; pass the training
        statistics to transform validation/test populations consistently.
        """
        if mean is None:
            mean = self.covariates.mean(axis=0)
        if std is None:
            std = self.covariates.std(axis=0)
        std = np.where(std < 1e-12, 1.0, std)
        transformed = replace(self, covariates=(self.covariates - mean) / std)
        return transformed, mean, std

    def summary(self) -> Dict[str, float]:
        """Small numeric summary used in logging and examples."""
        return {
            "n": float(len(self)),
            "num_features": float(self.num_features),
            "treated_fraction": float(self.treatment.mean()),
            "true_ate": self.true_ate,
            "outcome_mean": float(self.outcome.mean()),
        }


@dataclass
class TrainValTestSplit:
    """A train/validation/test triple of :class:`CausalDataset`."""

    train: CausalDataset
    validation: CausalDataset
    test: CausalDataset

    def __iter__(self) -> Iterator[CausalDataset]:
        return iter((self.train, self.validation, self.test))

    def sizes(self) -> Tuple[int, int, int]:
        """Row counts as ``(train, validation, test)``."""
        return len(self.train), len(self.validation), len(self.test)
