"""Configuration dataclasses and the paper's published hyper-parameters.

Tables IV and V of the paper list the optimal hyper-parameters of
CFR+SBRL-HAP and DeR-CFR+SBRL-HAP on each dataset.  They are encoded here as
presets so that experiments can be reproduced at the published operating
points, and so the defaults of the public API are sensible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from ..metrics.ipm import check_weighted_ipm_kind
from ..nn import optim as _optim
from ..nn.tensor import Tensor

__all__ = [
    "BackboneConfig",
    "RegularizerConfig",
    "TrainingConfig",
    "SBRLConfig",
    "build_training_optimizer",
    "paper_preset",
    "PAPER_PRESETS",
]


@dataclass
class BackboneConfig:
    """Architecture of the representation network and outcome heads.

    ``rep_hidden`` / ``head_hidden`` are (depth, width) expanded into equal
    width layers — the paper parameterises architectures as
    ``{d_r, d_y}`` (number of layers) and ``{h_r, h_y}`` (layer width).
    """

    rep_layers: int = 3
    rep_units: int = 128
    head_layers: int = 3
    head_units: int = 64
    activation: str = "elu"
    rep_normalization: bool = False
    treatment_layers: int = 2
    treatment_units: int = 64

    def __post_init__(self) -> None:
        for name in ("rep_layers", "rep_units", "head_layers", "head_units"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def rep_hidden_sizes(self) -> Tuple[int, ...]:
        """Representation MLP widths (``rep_units`` repeated ``rep_layers`` times)."""
        return tuple([self.rep_units] * self.rep_layers)

    @property
    def head_hidden_sizes(self) -> Tuple[int, ...]:
        """Outcome-head MLP widths (``head_units`` repeated ``head_layers`` times)."""
        return tuple([self.head_units] * self.head_layers)

    @property
    def treatment_hidden_sizes(self) -> Tuple[int, ...]:
        """Treatment-head MLP widths."""
        return tuple([self.treatment_units] * self.treatment_layers)


@dataclass
class RegularizerConfig:
    """Weights of the SBRL-HAP regularizers.

    ``alpha`` scales the Balancing Regularizer (L_B), ``gamma1`` the
    Independence Regularizer on the last layer (L_I), ``gamma2`` the
    decorrelation of the balanced-representation layer and ``gamma3`` the
    decorrelation of every other hidden layer (Eq. 11).  ``lambda_l2`` is the
    outcome-head weight decay of Eq. 12.
    """

    alpha: float = 1e-3
    gamma1: float = 1.0
    gamma2: float = 1e-3
    gamma3: float = 1e-3
    lambda_l2: float = 1e-4
    ipm_kind: str = "mmd_linear"
    num_rff_features: int = 5
    max_pairs_per_layer: Optional[int] = 64
    #: Above this many samples the training-time IPM / HSIC losses switch to
    #: seeded anchor subsampling: CFR's balance penalty, DeR-CFR's three
    #: balance terms and the weight objective's ``L_B`` and ``L_D`` terms
    #: (``None`` disables; evaluation metrics always use the exact
    #: estimators).
    subsample_threshold: Optional[int] = 2048
    #: Number of anchor rows the subsampled regularizers keep per group.
    num_anchors: int = 256

    def __post_init__(self) -> None:
        for name in ("alpha", "gamma1", "gamma2", "gamma3", "lambda_l2"):
            _optim._check_finite(name, getattr(self, name))
        check_weighted_ipm_kind(self.ipm_kind)
        if self.num_rff_features <= 0:
            raise ValueError("num_rff_features must be positive")
        if self.max_pairs_per_layer is not None and self.max_pairs_per_layer < 0:
            raise ValueError("max_pairs_per_layer must be non-negative or None")
        if self.num_anchors <= 0:
            raise ValueError("num_anchors must be positive")
        if self.subsample_threshold is not None and self.subsample_threshold <= 0:
            raise ValueError("subsample_threshold must be positive or None")


@dataclass
class TrainingConfig:
    """Optimisation settings for the alternating training of Algorithm 1."""

    iterations: int = 300
    learning_rate: float = 1e-3
    lr_decay_rate: float = 0.97
    lr_decay_steps: int = 100
    weight_learning_rate: float = 1e-2
    weight_steps_per_iteration: int = 1
    weight_update_every: int = 5
    weight_clip: Tuple[float, float] = (1e-3, 10.0)
    early_stopping_patience: Optional[int] = 50
    evaluation_interval: int = 10
    verbose: bool = False
    seed: int = 2024
    #: ``None`` keeps the historical full-batch behaviour; a finite value
    #: switches each iteration to one seeded, treatment-stratified minibatch.
    batch_size: Optional[int] = None
    #: Floating-point precision of the training graph.  ``"float64"`` (the
    #: default) is bit-compatible with the golden-regression suite and the
    #: finite-difference gradient checks; ``"float32"`` halves memory
    #: traffic for an opt-in speedup at the cost of ~1e-7-level numeric
    #: drift.  The trainer casts the backbone's parameters and the sample
    #: weights to it; every other tensor of the fit takes its dtype from
    #: them, so the setting holds for this fit alone.  Evaluation metrics
    #: are always computed in float64.
    dtype: str = "float64"
    #: Graph-replay mode.  ``"auto"`` (the default) records a full-batch
    #: fit's network step forward/backward as a replayable kernel program
    #: on first execution and replays it — bit-identically — on subsequent
    #: steps, re-recording whenever the batch identity, shapes, dtype or
    #: config change and falling back to eager (with a one-time warning)
    #: for ops without a replay kernel; minibatch fits run eagerly.
    #: ``"off"`` always executes eagerly.
    graph_replay: str = "auto"
    #: Network optimiser, resolved through :data:`repro.registry.optimizers`
    #: (``"adam"``, ``"adamw"``, ``"rmsprop"``, ``"sgd"``).  All registered
    #: optimisers update strictly in place and are graph-replay compatible.
    optimizer: str = "adam"
    #: Extra keyword arguments for the optimiser class (e.g.
    #: ``{"weight_decay": 1e-4}`` for Adam/AdamW, ``{"momentum": 0.9}`` for
    #: SGD).  ``lr`` / ``schedule`` are supplied by the training loop and
    #: may not appear here.
    optimizer_params: Dict[str, Any] = field(default_factory=dict)
    #: Learning-rate schedule, resolved through
    #: :data:`repro.registry.schedules` (``"constant"``, ``"exponential"``,
    #: ``"step"``, ``"cosine"``).  The historical default — exponential decay
    #: parameterised by ``lr_decay_rate`` / ``lr_decay_steps`` — is preserved.
    lr_schedule: str = "exponential"
    #: Extra keyword arguments for the schedule class, overriding the
    #: defaults derived from ``learning_rate`` / ``lr_decay_rate`` /
    #: ``lr_decay_steps`` / ``iterations``.
    lr_schedule_params: Dict[str, Any] = field(default_factory=dict)
    #: When positive, wrap the schedule in a linear warmup over this many
    #: initial steps (ramp reaches the wrapped schedule exactly at the end).
    lr_warmup_steps: int = 0
    #: When set (in ``(0, 1)``), maintain an exponential moving average of
    #: the network parameters during training and use it as the eval /
    #: serving snapshot (``EMACallback``); ``None`` disables EMA.
    ema_decay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("iterations must be positive")
        for name in ("learning_rate", "weight_learning_rate"):
            _optim._check_finite(name, getattr(self, name), positive=True)
        if self.weight_update_every <= 0:
            raise ValueError("weight_update_every must be positive")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")
        low, high = self.weight_clip
        _optim._check_finite("weight_clip's lower bound", low)
        if not low < high:  # also rejects a NaN upper bound; +inf is allowed
            raise ValueError(f"weight_clip must be an increasing pair, got {self.weight_clip!r}")
        if self.batch_size is not None and self.batch_size < 2:
            raise ValueError("batch_size must be at least 2 (or None for full batch)")
        if self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32' or 'float64'")
        if self.graph_replay not in ("off", "auto"):
            raise ValueError("graph_replay must be 'off' or 'auto'")
        # Resolve optimiser/schedule names eagerly so typos fail at config
        # construction with the registry's did-you-mean message, not deep
        # inside a fit.  Importing repro.nn.optim populates both registries.
        _optim.OPTIMIZER_REGISTRY.resolve(self.optimizer)
        _optim.SCHEDULE_REGISTRY.resolve(self.lr_schedule)
        for forbidden in ("lr", "schedule", "learning_rate", "parameters"):
            if forbidden in self.optimizer_params:
                raise ValueError(
                    f"optimizer_params may not set {forbidden!r}; use the "
                    "learning_rate / lr_schedule fields instead"
                )
        if self.lr_warmup_steps < 0:
            raise ValueError("lr_warmup_steps must be non-negative")
        if self.ema_decay is not None and not 0.0 < self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in (0, 1) or None")
        # Build what a fit builds, over one empty placeholder parameter, so
        # an unknown key or a bad value in optimizer_params or
        # lr_schedule_params fails here, and a loaded artifact holding one
        # fails at load, not at its first refit.
        build_training_optimizer([Tensor([], requires_grad=True)], self)


def build_training_optimizer(parameters, cfg: TrainingConfig) -> _optim.Optimizer:
    """Build the network optimiser a :class:`TrainingConfig` describes.

    The schedule's defaults are derived from the legacy fields so existing
    configs keep their exact behaviour: ``exponential`` (the historical
    default) reads ``lr_decay_rate`` / ``lr_decay_steps``, ``step`` reuses
    them as drop rate / step size, ``cosine`` anneals over ``iterations``.
    ``lr_schedule_params`` overrides any of these; ``lr_warmup_steps`` wraps
    the result in a linear warmup.  The optimiser class comes from
    :data:`repro.registry.optimizers` with ``optimizer_params`` forwarded.
    An unknown key or an invalid value raises ``ValueError``.
    """
    name = _optim.SCHEDULE_REGISTRY.resolve(cfg.lr_schedule)
    if name == "exponential":
        defaults = {"decay_rate": cfg.lr_decay_rate, "decay_steps": cfg.lr_decay_steps}
    elif name == "step":
        defaults = {"drop_rate": cfg.lr_decay_rate, "step_size": cfg.lr_decay_steps}
    elif name == "cosine":
        defaults = {"total_steps": cfg.iterations}
    else:  # constant (and any user-registered schedule): no derived defaults
        defaults = {}
    defaults.update(cfg.lr_schedule_params)
    schedule = _optim.build_schedule(
        cfg.lr_schedule, cfg.learning_rate, defaults, warmup_steps=cfg.lr_warmup_steps
    )
    return _optim.build_optimizer(cfg.optimizer, parameters, schedule, cfg.optimizer_params)


@dataclass
class SBRLConfig:
    """Full configuration of one estimator: backbone + regularizers + training."""

    backbone: BackboneConfig = field(default_factory=BackboneConfig)
    regularizers: RegularizerConfig = field(default_factory=RegularizerConfig)
    training: TrainingConfig = field(default_factory=TrainingConfig)

    def with_overrides(self, **kwargs) -> "SBRLConfig":
        """Return a copy with top-level sections replaced."""
        return replace(self, **kwargs)

    # ------------------------------------------------------------------ #
    # (De)serialisation — used by the persistence layer (JSON manifests)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Dict[str, Any]]:
        """Plain nested dict representation (JSON-serialisable)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Mapping[str, Any]]) -> "SBRLConfig":
        """Rebuild a config from :meth:`to_dict` output (tuples restored)."""

        def _section(section_cls, values):
            known = {f.name for f in fields(section_cls)}
            unknown = set(values) - known
            if unknown:
                raise ValueError(
                    f"unknown {section_cls.__name__} fields: {sorted(unknown)}"
                )
            kwargs = dict(values)
            for key, value in kwargs.items():
                # JSON has no tuples; restore list-valued tuple fields.
                if isinstance(value, list):
                    kwargs[key] = tuple(value)
            return section_cls(**kwargs)

        return cls(
            backbone=_section(BackboneConfig, payload.get("backbone", {})),
            regularizers=_section(RegularizerConfig, payload.get("regularizers", {})),
            training=_section(TrainingConfig, payload.get("training", {})),
        )


def _preset(
    learning_rate: float,
    rep_normalization: bool,
    rep_units: int,
    head_units: int,
    alpha: float,
    lambda_l2: float,
    gammas: Tuple[float, float, float],
) -> SBRLConfig:
    gamma1, gamma2, gamma3 = gammas
    return SBRLConfig(
        backbone=BackboneConfig(
            rep_layers=3,
            rep_units=rep_units,
            head_layers=3,
            head_units=head_units,
            rep_normalization=rep_normalization,
        ),
        regularizers=RegularizerConfig(
            alpha=alpha, gamma1=gamma1, gamma2=gamma2, gamma3=gamma3, lambda_l2=lambda_l2
        ),
        training=TrainingConfig(learning_rate=learning_rate),
    )


#: Published optimal hyper-parameters (Table IV, CFR+SBRL-HAP backbone family).
PAPER_PRESETS: Dict[str, SBRLConfig] = {
    "twins": _preset(
        learning_rate=1e-5,
        rep_normalization=True,
        rep_units=128,
        head_units=64,
        alpha=1e-4,
        lambda_l2=1e-4,
        gammas=(1.0, 1.0, 1e-1),
    ),
    "ihdp": _preset(
        learning_rate=1e-3,
        rep_normalization=True,
        rep_units=256,
        head_units=128,
        alpha=1.0,
        lambda_l2=1e-4,
        gammas=(1e-1, 1e-4, 1e-4),
    ),
    "syn_8_8_8_2": _preset(
        learning_rate=1e-5,
        rep_normalization=False,
        rep_units=128,
        head_units=64,
        alpha=5e-2,
        lambda_l2=1e-4,
        gammas=(1.0, 1.0, 1e-1),
    ),
    "syn_16_16_16_2": _preset(
        learning_rate=1e-4,
        rep_normalization=False,
        rep_units=128,
        head_units=64,
        alpha=1e-3,
        lambda_l2=1e-4,
        gammas=(1.0, 1e-3, 1e-3),
    ),
}

#: The hyper-parameter grid the paper searches for {gamma1, gamma2, gamma3}.
PAPER_GAMMA_GRID: Sequence[float] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0)


def paper_preset(dataset: str) -> SBRLConfig:
    """Return the published hyper-parameter preset for a dataset name."""
    key = dataset.lower()
    if key not in PAPER_PRESETS:
        raise ValueError(f"no paper preset for {dataset!r}; available: {sorted(PAPER_PRESETS)}")
    preset = PAPER_PRESETS[key]
    # Return a defensive copy so callers can mutate their instance freely.
    return SBRLConfig(
        backbone=replace(preset.backbone),
        regularizers=replace(preset.regularizers),
        training=replace(preset.training),
    )
