"""Distribution-distance and treatment-effect evaluation metrics."""

from .evaluation import (
    EffectEstimates,
    EnvironmentReport,
    StabilityReport,
    accuracy,
    aggregate_across_environments,
    ate,
    ate_error,
    evaluate_effect_predictions,
    f1_score,
    pehe,
)
from .hsic import (
    RandomFourierFeatures,
    hsic,
    hsic_rff,
    mean_pairwise_hsic_rff,
    pairwise_decorrelation_loss,
    weighted_hsic_rff,
)
from .ipm import (
    ipm_distance,
    mmd_linear,
    mmd_linear_weighted,
    mmd_rbf,
    mmd_rbf_anchored,
    mmd_rbf_weighted,
    wasserstein,
    weighted_ipm,
)
from .subsampling import subsample_indices

__all__ = [
    "pehe",
    "ate",
    "ate_error",
    "f1_score",
    "accuracy",
    "EffectEstimates",
    "evaluate_effect_predictions",
    "EnvironmentReport",
    "StabilityReport",
    "aggregate_across_environments",
    "RandomFourierFeatures",
    "hsic",
    "hsic_rff",
    "mean_pairwise_hsic_rff",
    "weighted_hsic_rff",
    "pairwise_decorrelation_loss",
    "mmd_linear",
    "mmd_rbf",
    "mmd_rbf_anchored",
    "wasserstein",
    "subsample_indices",
    "ipm_distance",
    "mmd_linear_weighted",
    "mmd_rbf_weighted",
    "weighted_ipm",
]
