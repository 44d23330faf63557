"""SBRL-HAP: Stable Heterogeneous Treatment Effect Estimation across
Out-of-Distribution Populations — a full reproduction of the ICDE 2024 paper.

Top-level convenience imports::

    from repro import HTEEstimator, SyntheticGenerator

See ``README.md`` for a quickstart, the registry extension points and the
save/load/serve workflow.
"""

__version__ = "1.2.0"

from . import registry
from . import scenarios
from .core import (
    CFR,
    FRAMEWORKS,
    BackboneConfig,
    DeRCFR,
    HTEEstimator,
    RegularizerConfig,
    SBRLConfig,
    SBRLTrainer,
    TARNet,
    TrainingConfig,
    paper_preset,
)
from .core.sbrl import FrameworkSpec
from .data import (
    CausalDataset,
    IHDPSimulator,
    SyntheticConfig,
    SyntheticGenerator,
    TwinsSimulator,
    load_benchmark,
)
from .metrics import ate_error, f1_score, pehe
from .persistence import load_estimator, save_estimator
from .serve import ModelRegistry

__all__ = [
    "__version__",
    "registry",
    "scenarios",
    "HTEEstimator",
    "SBRLTrainer",
    "SBRLConfig",
    "BackboneConfig",
    "RegularizerConfig",
    "TrainingConfig",
    "paper_preset",
    "FRAMEWORKS",
    "FrameworkSpec",
    "TARNet",
    "CFR",
    "DeRCFR",
    "CausalDataset",
    "SyntheticGenerator",
    "SyntheticConfig",
    "TwinsSimulator",
    "IHDPSimulator",
    "load_benchmark",
    "save_estimator",
    "load_estimator",
    "ModelRegistry",
    "pehe",
    "ate_error",
    "f1_score",
]
