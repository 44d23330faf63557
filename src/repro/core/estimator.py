"""Public facade: :class:`HTEEstimator`.

A scikit-learn-style estimator tying together a backbone (TARNet, CFR,
DeR-CFR), a framework variant (vanilla, SBRL, SBRL-HAP) and the training
procedure.  This is the main entry point of the library:

>>> from repro import HTEEstimator
>>> from repro.data import SyntheticGenerator
>>> protocol = SyntheticGenerator().generate_train_test_protocol(2000)
>>> estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap")
>>> estimator.fit(protocol["train"])                        # doctest: +SKIP
>>> metrics = estimator.evaluate(protocol["test_environments"][-3.0])  # doctest: +SKIP

Fitted estimators can be persisted and served without retraining:

>>> estimator.save("artifacts/cfr-sbrl-hap")                # doctest: +SKIP
>>> reloaded = HTEEstimator.load("artifacts/cfr-sbrl-hap")  # doctest: +SKIP
"""

from __future__ import annotations

import copy
import dataclasses
from typing import Any, Dict, Optional

import numpy as np

from ..data.dataset import CausalDataset
from ..registry import backbones as BACKBONE_REGISTRY
from ..registry import frameworks as FRAMEWORK_REGISTRY
from .backbones import build_backbone
from .config import SBRLConfig
from .sbrl import SBRLTrainer, TrainingHistory

__all__ = ["HTEEstimator"]


class HTEEstimator:
    """Heterogeneous treatment effect estimator with OOD-stable training.

    Parameters
    ----------
    backbone:
        Name of a registered backbone (``"tarnet"``, ``"cfr"``, ``"dercfr"``
        or any custom backbone added to :data:`repro.registry.backbones`).
    framework:
        Name of a registered framework: ``"vanilla"`` (no reweighting),
        ``"sbrl"`` or ``"sbrl-hap"``.
    config:
        Full :class:`SBRLConfig`; defaults to laptop-scale settings.
    binary_outcome:
        Force binary / continuous outcome handling; inferred from the
        training dataset when ``None``.
    use_balance / use_independence / use_hierarchy:
        Ablation switches for the three regularizers (Table II).
    seed:
        Seed for the backbone's weight initialisation.
    """

    #: Constructor parameters, in signature order — the single source of
    #: truth for :meth:`get_params` / :meth:`set_params` / :meth:`clone`.
    _PARAM_NAMES = (
        "backbone",
        "framework",
        "config",
        "binary_outcome",
        "use_balance",
        "use_independence",
        "use_hierarchy",
        "seed",
    )

    def __init__(
        self,
        backbone: str = "cfr",
        framework: str = "sbrl-hap",
        config: Optional[SBRLConfig] = None,
        binary_outcome: Optional[bool] = None,
        use_balance: bool = True,
        use_independence: bool = True,
        use_hierarchy: bool = True,
        seed: int = 2024,
    ) -> None:
        # Registry resolution validates both names up front, so typos fail
        # fast at construction instead of at first use.
        self.backbone_name = BACKBONE_REGISTRY.resolve(backbone)
        self.framework = FRAMEWORK_REGISTRY.resolve(framework)
        self.config = config if config is not None else SBRLConfig()
        self.binary_outcome = binary_outcome
        self.use_balance = use_balance
        self.use_independence = use_independence
        self.use_hierarchy = use_hierarchy
        self.seed = seed
        self.trainer: Optional[SBRLTrainer] = None

    # ------------------------------------------------------------------ #
    # Estimator protocol (sklearn-compatible)
    # ------------------------------------------------------------------ #
    @property
    def name(self) -> str:
        """Readable method name, e.g. ``"CFR+SBRL-HAP"``, from the registry."""
        backbone = BACKBONE_REGISTRY.display_name(self.backbone_name)
        spec = FRAMEWORK_REGISTRY.get(self.framework)
        if not spec.uses_weights:
            return backbone
        return f"{backbone}+{spec.display_name}"

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed and the estimator can predict."""
        return self.trainer is not None and self.trainer.is_fitted

    def get_params(self, deep: bool = True) -> Dict[str, Any]:
        """Constructor parameters as a dict (sklearn convention).

        With ``deep=True`` the config is deep-copied (so mutating the result
        cannot corrupt this estimator) and its sections are additionally
        exposed as sklearn-style double-underscore keys
        (``config__training__learning_rate``, ...), so grid-search tooling
        written against the sklearn protocol can enumerate and set them.
        """
        config = copy.deepcopy(self.config) if deep else self.config
        params: Dict[str, Any] = {
            "backbone": self.backbone_name,
            "framework": self.framework,
            "config": config,
            "binary_outcome": self.binary_outcome,
            "use_balance": self.use_balance,
            "use_independence": self.use_independence,
            "use_hierarchy": self.use_hierarchy,
            "seed": self.seed,
        }
        if deep:
            for section_name in ("backbone", "regularizers", "training"):
                section = getattr(config, section_name)
                params[f"config__{section_name}"] = section
                for field in dataclasses.fields(section):
                    params[f"config__{section_name}__{field.name}"] = getattr(
                        section, field.name
                    )
        return params

    def set_params(self, **params) -> "HTEEstimator":
        """Update constructor parameters in place; returns ``self``.

        Accepts both top-level names and sklearn-style nested keys such as
        ``config__training__learning_rate``.  Unknown names raise
        ``ValueError``; backbone / framework values are validated against
        the registries just like in ``__init__``.
        """
        nested = {key: value for key, value in params.items() if "__" in key}
        flat = {key: value for key, value in params.items() if "__" not in key}
        unknown = set(flat) - set(self._PARAM_NAMES)
        if unknown:
            raise ValueError(
                f"invalid parameters {sorted(unknown)}; valid: {list(self._PARAM_NAMES)}"
            )
        if "backbone" in flat:
            self.backbone_name = BACKBONE_REGISTRY.resolve(flat.pop("backbone"))
        if "framework" in flat:
            self.framework = FRAMEWORK_REGISTRY.resolve(flat.pop("framework"))
        if "config" in flat:
            config = flat.pop("config")
            self.config = config if config is not None else SBRLConfig()
        for key, value in flat.items():
            setattr(self, key, value)
        for key, value in nested.items():
            self._set_nested_param(key, value)
        return self

    def _set_nested_param(self, key: str, value: Any) -> None:
        head, _, rest = key.partition("__")
        if head != "config" or not rest:
            raise ValueError(
                f"invalid parameter {key!r}; nested parameters must start with 'config__'"
            )
        target = self.config
        path = rest.split("__")
        for attr in path[:-1]:
            if not hasattr(target, attr):
                raise ValueError(f"invalid parameter {key!r}: no attribute {attr!r}")
            target = getattr(target, attr)
        if not hasattr(target, path[-1]):
            raise ValueError(f"invalid parameter {key!r}: no attribute {path[-1]!r}")
        setattr(target, path[-1], value)

    def clone(self) -> "HTEEstimator":
        """A fresh unfitted estimator with identical parameters."""
        params = self.get_params(deep=False)
        params["config"] = copy.deepcopy(params["config"])
        return type(self)(**params)

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def build_trainer(self, train: CausalDataset) -> SBRLTrainer:
        """Construct (and attach) the trainer for ``train`` without fitting it.

        This is the first half of :meth:`fit`: the backbone is initialised
        from ``self.seed`` and the trainer casts its parameters to
        ``config.training.dtype``, so the parameters are identical to what a
        full ``fit`` would start from.  Callers that drive training
        themselves use this to obtain an untrained trainer.
        """
        binary = self.binary_outcome if self.binary_outcome is not None else train.binary_outcome
        rng = np.random.default_rng(self.seed)
        backbone = build_backbone(
            self.backbone_name,
            num_features=train.num_features,
            config=self.config.backbone,
            regularizers=self.config.regularizers,
            binary_outcome=binary,
            rng=rng,
        )
        self.trainer = SBRLTrainer(
            backbone,
            framework=self.framework,
            config=self.config,
            use_balance=self.use_balance,
            use_independence=self.use_independence,
            use_hierarchy=self.use_hierarchy,
        )
        return self.trainer

    def fit(
        self, train: CausalDataset, validation: Optional[CausalDataset] = None
    ) -> "HTEEstimator":
        """Fit the estimator on one training population.

        ``config.training.dtype`` selects the precision of the whole
        training graph: the parameters are drawn in float64 and cast to it
        once, and every tensor the fit builds takes its dtype from them, so
        float32 training runs float32 end to end rather than up-casting on
        every op.  The setting belongs to this fit alone: estimators in
        different dtypes can fit side by side on threads.
        """
        self.build_trainer(train).fit(train, validation)
        return self

    def refit(
        self,
        train: CausalDataset,
        validation: Optional[CausalDataset] = None,
        *,
        init: str = "fitted",
        epochs: Optional[int] = None,
    ) -> "HTEEstimator":
        """Refit on a new window, optionally warm-starting from fitted params.

        The incremental-refit path of the online serving loop: when a drift
        monitor decides the live model has gone stale, a full retrain is
        rarely affordable inside the serving window — but the drifted
        population is usually *near* the one the model was trained on, so a
        few epochs from the already-fitted parameters recover most of the
        accuracy at a fraction of the cost (the refit-latency / PEHE-recovery
        tradeoff is measured by ``benchmarks/bench_online.py``).

        Parameters
        ----------
        train / validation:
            The new window (typically recent, labelled traffic).
        init:
            ``"fitted"`` (default) keeps the current backbone parameters as
            the initialisation — the warm start; requires a fitted
            estimator.  ``"fresh"`` re-initialises from ``self.seed`` — a
            cold refit, identical to :meth:`fit`.
        epochs:
            Override ``config.training.iterations`` for this refit only
            (``self.config`` is left untouched).  ``None`` keeps the
            configured budget.

        Covariate standardisation statistics and, for weighted frameworks,
        the sample-weight vector are recomputed from the new window in both
        modes; only the network parameters carry over on a warm start.
        """
        if init not in ("fitted", "fresh"):
            raise ValueError(f"init must be 'fitted' or 'fresh', got {init!r}")
        config = self.config
        if epochs is not None:
            epochs = int(epochs)
            if epochs <= 0:
                raise ValueError("epochs must be positive")
            config = copy.deepcopy(self.config)
            config.training.iterations = epochs
        if init == "fresh":
            original = self.config
            self.config = config
            try:
                return self.fit(train, validation)
            finally:
                self.config = original
        backbone = self._require_fitted().backbone
        if int(backbone.num_features) != train.num_features:
            raise ValueError(
                f"cannot warm-start refit: window has {train.num_features} "
                f"features but the fitted backbone expects {int(backbone.num_features)}"
            )
        self.trainer = SBRLTrainer(
            backbone,
            framework=self.framework,
            config=config,
            use_balance=self.use_balance,
            use_independence=self.use_independence,
            use_hierarchy=self.use_hierarchy,
        )
        self.trainer.fit(train, validation)
        return self

    def _require_fitted(self) -> SBRLTrainer:
        if self.trainer is None:
            raise RuntimeError("the estimator must be fit before use")
        return self.trainer

    @property
    def num_features(self) -> int:
        """Covariate width the fitted backbone expects (requires a fit)."""
        return int(self._require_fitted().backbone.num_features)

    @property
    def fitted_dtype(self) -> np.dtype:
        """Dtype of the fitted backbone parameters (float32 or float64).

        Predictions come back in this dtype: covariates are standardised in
        float64 and the forward casts them to the parameters' dtype, as
        training does.  Serving layers answer in it too, and coerce request
        covariates to float64 first, so a served float32 model equals
        :meth:`predict_potential_outcomes` bit for bit.
        """
        return self._require_fitted().backbone.parameter_dtype()

    @property
    def weights_kind(self) -> str:
        """Which weights the fitted backbone holds: ``"live"`` or ``"ema"``.

        ``"ema"`` means :class:`~repro.core.loop.EMACallback` was active
        (``TrainingConfig.ema_decay`` set) and the backbone serves the best
        exponential-moving-average snapshot; persisted artifacts record this
        in their manifest.
        """
        return getattr(self._require_fitted(), "weights_kind", "live")

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> str:
        """Persist the fitted estimator as a versioned artifact directory.

        The artifact holds a JSON manifest (configuration, names, format
        version) plus an ``.npz`` file with the backbone parameters,
        standardisation statistics and learned sample weights.  Reload with
        :meth:`HTEEstimator.load`.
        """
        from ..persistence import save_estimator

        return save_estimator(self, path)

    @classmethod
    def load(cls, path) -> "HTEEstimator":
        """Reload an estimator saved with :meth:`save`; ready to predict.

        Called on a subclass, the artifact is rebuilt as that subclass.
        """
        from ..persistence import load_estimator

        return load_estimator(path, estimator_cls=cls)

    # ------------------------------------------------------------------ #
    # Inference / evaluation
    # ------------------------------------------------------------------ #
    def predict_potential_outcomes(self, covariates: np.ndarray) -> Dict[str, np.ndarray]:
        """Return ``{"mu0", "mu1", "ite"}`` arrays for new units."""
        return self._require_fitted().predict(covariates)

    def predict_ite(self, covariates: np.ndarray) -> np.ndarray:
        """Predicted individual treatment effects."""
        return self.predict_potential_outcomes(covariates)["ite"]

    def predict_ate(self, covariates: np.ndarray) -> float:
        """Predicted average treatment effect over the given population."""
        return float(np.mean(self.predict_ite(covariates)))

    def representations(self, covariates: np.ndarray) -> np.ndarray:
        """Balanced representation Φ(x) of new units."""
        return self._require_fitted().representations(covariates)

    def evaluate(self, dataset: CausalDataset) -> Dict[str, float]:
        """PEHE, ATE bias (and F1 scores for binary outcomes) on a dataset."""
        return self._require_fitted().evaluate(dataset)

    def sample_weights(self) -> Optional[np.ndarray]:
        """Learned sample weights (``None`` for the vanilla framework)."""
        trainer = self._require_fitted()
        if trainer.sample_weights is None:
            return None
        return trainer.sample_weights.numpy()

    def training_history(self) -> TrainingHistory:
        """Scalar loss traces recorded during fitting."""
        return self._require_fitted().history
