"""Alternating training of SBRL / SBRL-HAP (Algorithm 1 of the paper).

The trainer wraps any backbone and optimises, in alternation:

1. the network parameters with the weighted factual loss ``L_Y^w``
   (Eq. 13) plus the backbone's own regularisation, holding the sample
   weights fixed;
2. the sample weights with the weight objective ``L_w`` (Eq. 11) —
   ``alpha * L_B + gamma1 * L_I + gamma2 * L_D(Z_r) + gamma3 * sum L_D(Z_o)
   + R_w`` — holding the network parameters fixed.

Three framework variants are supported:

* ``"vanilla"``   — no sample weights, plain backbone training;
* ``"sbrl"``      — weights learned from ``L_B`` and ``L_I`` only;
* ``"sbrl-hap"``  — weights learned with the full hierarchical objective.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..data.batching import DataLoader
from ..data.dataset import CausalDataset, covariate_matrix
from ..metrics.evaluation import EffectEstimates, evaluate_effect_predictions
from ..nn.kernels import Pool, Workspace
from ..nn.optim import Optimizer
from ..nn.tensor import Tensor, as_tensor, no_grad
from ..registry import frameworks as FRAMEWORK_REGISTRY
from .backbones.base import BackboneForward, BaseBackbone
from .config import SBRLConfig, build_training_optimizer
from .loop import (
    BestStateCheckpoint,
    Callback,
    EarlyStopping,
    EMACallback,
    HistoryRecorder,
    TrainingLoop,
    VerboseLogger,
)
from .regularizers.hierarchical import HierarchicalAttentionLoss
from .replay import NetworkStepReplay
from .weights import SampleWeights

__all__ = [
    "SBRLTrainer",
    "TrainingHistory",
    "FrameworkSpec",
    "FRAMEWORKS",
    "FRAMEWORK_REGISTRY",
    "build_training_optimizer",
]

logger = logging.getLogger(__name__)

#: One-time process-level flag for the "early stopping tracks the training
#: loss" warning, so long experiment grids are not flooded with repeats.
_WARNED_TRAINING_LOSS_EARLY_STOP = False


@dataclass(frozen=True)
class FrameworkSpec:
    """Description of one framework variant.

    ``weight_objective_factory`` builds the objective optimised over the
    sample weights; it receives the trainer's :class:`SBRLConfig` and the
    three ablation switches and returns a callable
    ``(forward, treatment, weights) -> Tensor`` (or ``None`` for frameworks
    without learned weights).  Custom frameworks can be plugged in by
    registering a spec into :data:`repro.registry.frameworks`.
    """

    name: str
    display_name: str
    uses_weights: bool
    weight_objective_factory: Optional[
        Callable[[SBRLConfig, bool, bool, bool], object]
    ] = None

    def build_weight_objective(
        self,
        config: SBRLConfig,
        use_balance: bool = True,
        use_independence: bool = True,
        use_hierarchy: bool = True,
    ):
        """Build the framework's weight objective (``None`` for unweighted)."""
        if not self.uses_weights or self.weight_objective_factory is None:
            return None
        return self.weight_objective_factory(config, use_balance, use_independence, use_hierarchy)


def _hap_objective_factory(mode: str):
    def factory(config: SBRLConfig, use_balance: bool, use_independence: bool, use_hierarchy: bool):
        return HierarchicalAttentionLoss(
            config=config.regularizers,
            mode=mode,
            use_balance=use_balance,
            use_independence=use_independence,
            use_hierarchy=use_hierarchy,
            seed=config.training.seed,
        )

    return factory


if "vanilla" not in FRAMEWORK_REGISTRY:  # guard against double registration on re-import
    FRAMEWORK_REGISTRY.register(
        "vanilla",
        FrameworkSpec(name="vanilla", display_name="vanilla", uses_weights=False),
        display_name="vanilla",
    )
    FRAMEWORK_REGISTRY.register(
        "sbrl",
        FrameworkSpec(
            name="sbrl",
            display_name="SBRL",
            uses_weights=True,
            weight_objective_factory=_hap_objective_factory("sbrl"),
        ),
        display_name="SBRL",
    )
    FRAMEWORK_REGISTRY.register(
        "sbrl-hap",
        FrameworkSpec(
            name="sbrl-hap",
            display_name="SBRL-HAP",
            uses_weights=True,
            weight_objective_factory=_hap_objective_factory("sbrl-hap"),
        ),
        display_name="SBRL-HAP",
    )

#: Built-in framework names, in registration order (kept as a tuple for
#: backwards compatibility; the registry is the source of truth).
FRAMEWORKS = tuple(FRAMEWORK_REGISTRY.names())


@dataclass
class TrainingHistory:
    """Scalar traces recorded during training (for tests, plots and debugging)."""

    iterations: List[int] = field(default_factory=list)
    network_loss: List[float] = field(default_factory=list)
    weight_loss: List[float] = field(default_factory=list)
    validation_loss: List[float] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    best_iteration: int = 0

    def as_dict(self) -> Dict[str, list]:
        """JSON-friendly view of the history."""
        return {
            "iterations": list(self.iterations),
            "network_loss": list(self.network_loss),
            "weight_loss": list(self.weight_loss),
            "validation_loss": list(self.validation_loss),
        }


class SBRLTrainer:
    """Trains a backbone under one of the three framework variants."""

    def __init__(
        self,
        backbone: BaseBackbone,
        framework: str = "sbrl-hap",
        config: Optional[SBRLConfig] = None,
        use_balance: bool = True,
        use_independence: bool = True,
        use_hierarchy: bool = True,
    ) -> None:
        spec: FrameworkSpec = FRAMEWORK_REGISTRY.get(framework)
        self.backbone = backbone
        self.framework = spec.name
        self.framework_spec = spec
        self.config = config if config is not None else SBRLConfig()
        self.history = TrainingHistory()
        self.sample_weights: Optional[SampleWeights] = None
        self._standardize_mean: Optional[np.ndarray] = None
        self._standardize_std: Optional[np.ndarray] = None

        self.weight_objective = spec.build_weight_objective(
            self.config,
            use_balance=use_balance,
            use_independence=use_independence,
            use_hierarchy=use_hierarchy,
        )
        self.uses_weights = spec.uses_weights and self.weight_objective is not None
        self._optimizer: Optional[Optimizer] = None
        self._replay: Optional[NetworkStepReplay] = None
        #: A replaying :meth:`fit`'s scratch bytes, shared by the replay
        #: program's runs and the weight steps (see :class:`~repro.nn.kernels.Pool`).
        self._pool: Optional[Pool] = None
        #: The weight step's blocks for one :meth:`fit`: its layout in
        #: :attr:`_pool`, or buffers of its own in a fit that does not replay.
        self._workspace: Optional[Workspace] = None
        #: Which weights the backbone currently holds: ``"live"`` (the
        #: checkpointed raw parameters) or ``"ema"`` (the exponential moving
        #: average snapshot selected because ``TrainingConfig.ema_decay`` was
        #: set).  Recorded by persisted artifacts.
        self.weights_kind: str = "live"
        #: Metrics of the most recent network step (set by the replay engine
        #: or the eager path): ``{"replay_hit": bool, "graph_nodes": int|None}``.
        self.last_step_stats: Optional[Dict[str, object]] = None
        self._cast_to_training_dtype()

    def _cast_to_training_dtype(self) -> None:
        """Cast the parameters and sample weights to ``TrainingConfig.dtype``.

        The one place that setting is applied: every other tensor of a fit
        takes its dtype from these.
        """
        dtype = np.dtype(self.config.training.dtype)
        weights = [] if self.sample_weights is None else [self.sample_weights.tensor]
        for tensor in [*self.backbone.parameters(), *weights]:
            if tensor.data.dtype != dtype:
                tensor.data = tensor.data.astype(dtype)

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def fit(
        self,
        train: CausalDataset,
        validation: Optional[CausalDataset] = None,
        callbacks: Sequence[Callback] = (),
    ) -> TrainingHistory:
        """Run the alternating optimisation on ``train``.

        Covariates are standardised with the training statistics (also applied
        to validation and at prediction time).  When ``validation`` is given,
        the best network state according to the validation factual loss is
        restored at the end (the paper's early-stopping protocol).

        .. warning::
           When ``validation`` is ``None``, best-state selection and early
           stopping fall back to the *training* loss of the current
           iteration (the current batch's loss in minibatch mode).  Training
           loss decreases almost monotonically, so early stopping rarely
           triggers and the "best" state is usually the last one — pass a
           validation set for a meaningful stopping signal.  A one-time
           warning is logged when this fallback is active.

        ``config.training.batch_size`` selects the execution mode:
        ``None`` (default) iterates on the full population exactly as the
        original Algorithm 1 implementation did (bit-for-bit below
        ``config.regularizers.subsample_threshold`` samples; above it the
        kernel regularizers switch to seeded anchor subsampling unless the
        threshold is disabled); a finite value draws seeded,
        treatment-stratified minibatches and each iteration becomes one
        minibatch step, with the sample-weight vector sliced by the
        batch's index array.  ``callbacks`` are appended after the default
        stack (history recording, optional verbose logging, best-state
        checkpointing, early stopping).
        """
        cfg = self.config.training
        start = time.perf_counter()
        train_std, mean, std = train.standardize()
        self._standardize_mean, self._standardize_std = mean, std
        val_std = validation.standardize(mean, std)[0] if validation is not None else None

        if val_std is None and cfg.early_stopping_patience is not None:
            global _WARNED_TRAINING_LOSS_EARLY_STOP
            if not _WARNED_TRAINING_LOSS_EARLY_STOP:
                _WARNED_TRAINING_LOSS_EARLY_STOP = True
                logger.warning(
                    "no validation set given: early stopping and best-state "
                    "selection will track the training loss, which rarely "
                    "plateaus; pass a validation dataset for a meaningful "
                    "stopping signal (warning shown once per process)"
                )

        if self.uses_weights:
            self.sample_weights = SampleWeights(
                num_samples=len(train_std),
                learning_rate=cfg.weight_learning_rate,
                clip=cfg.weight_clip,
            )
        self._cast_to_training_dtype()
        self._optimizer = build_training_optimizer(self.backbone.parameters(), cfg)
        # Only full-batch fits can reuse a recorded step: a minibatch loader
        # hands every step fresh arrays.
        replays = cfg.graph_replay == "auto" and cfg.batch_size is None
        self._replay = NetworkStepReplay() if replays else None

        loader = DataLoader(train_std, batch_size=cfg.batch_size, seed=cfg.seed)
        stack: List[Callback] = [HistoryRecorder()]
        if cfg.verbose:
            stack.append(VerboseLogger(label=self.framework))
        if cfg.ema_decay is not None:
            # The EMA updates each iteration; the checkpoint snapshots the
            # averaged weights (deferred to after the EMA's update — see
            # BestStateCheckpoint) and restores the best EMA state at the
            # end, so the fitted backbone serves averaged weights.
            ema = EMACallback(cfg.ema_decay)
            stack.append(ema)
            stack.append(BestStateCheckpoint(state_provider=ema.state_dict))
        else:
            stack.append(BestStateCheckpoint())
        stack.append(EarlyStopping(cfg.early_stopping_patience, cfg.evaluation_interval))
        stack.extend(callbacks)

        loop = TrainingLoop(self, loader, validation=val_std, callbacks=stack)
        # A replaying fit owns one pool: the replay program and the weight
        # step take turns in it, so the fit holds the larger phase's blocks,
        # not both.  (An eager network step's arrays come from malloc's heap,
        # where the weight step's freed blocks are reused, so a fit that does
        # not replay keeps only a workspace for the pair blocks.)  The pool,
        # the workspace, the replay program and the parameters' gradients go
        # with the fit, so a fitted trainer, its deep copies and deployed
        # versions hold none of them.
        self._pool = Pool() if replays else None
        self._workspace = Workspace(self._pool)
        try:
            loop.run()
        finally:
            self._workspace = self._pool = None
            if self._replay is not None:
                self._replay.release()
            self.backbone.zero_grad()
        self.weights_kind = "ema" if cfg.ema_decay is not None else "live"
        self.history.elapsed_seconds = time.perf_counter() - start
        return self.history

    def _network_forward_backward(
        self,
        covariates: np.ndarray,
        treatment: np.ndarray,
        outcome: np.ndarray,
        indices: Optional[np.ndarray] = None,
    ) -> Tensor:
        """Eager forward + backward of the network objective (no optimizer step).

        The factual loss reads the sample weights' own array, not a copy, so
        a program recorded from this step reads the values each weight step
        writes there in place.
        """
        weights_constant = None
        if self.uses_weights:
            values = self.sample_weights.tensor.data
            weights_constant = as_tensor(values if indices is None else values[indices])
        forward = self.backbone.forward(covariates, treatment)
        loss = self.backbone.network_loss(forward, treatment, outcome, weights_constant)
        self.backbone.zero_grad()
        loss.backward()
        return loss

    def _network_step(
        self,
        covariates: np.ndarray,
        treatment: np.ndarray,
        outcome: np.ndarray,
        indices: Optional[np.ndarray] = None,
    ) -> float:
        """One gradient step on the network parameters, weights held fixed.

        A full-batch fit's replay engine runs the forward and backward when
        it can; otherwise they run eagerly here.  Either way this makes the
        step's one optimizer step.
        """
        loss = None
        if self._replay is not None and indices is None:
            loss = self._replay.step(self, covariates, treatment, outcome)
        if loss is None:
            loss = self._network_forward_backward(covariates, treatment, outcome, indices).item()
            self.last_step_stats = {"replay_hit": False, "graph_nodes": None}
        self._optimizer.step()
        return loss

    def _update_weights(
        self,
        covariates: np.ndarray,
        treatment: np.ndarray,
        cfg,
        indices: Optional[np.ndarray] = None,
    ) -> float:
        """One (or more) gradient steps on the sample weights, network fixed.

        In minibatch mode ``indices`` addresses the rows of the global
        weight vector participating in this batch; gradients scatter back
        into the full vector through the differentiable gather.
        """
        assert self.sample_weights is not None and self.weight_objective is not None
        # The weight objective depends on the *values* of the activations but
        # not on the network parameters' gradients, so the forward pass can be
        # done in inference mode and wrapped as constants — considerably
        # cheaper than backpropagating through the whole network.
        with no_grad():
            forward = self.backbone.forward(covariates, treatment)
        constant_forward = BackboneForward(
            mu0=forward.mu0.detach(),
            mu1=forward.mu1.detach(),
            representation=forward.representation.detach(),
            last_layer=forward.last_layer.detach(),
            other_layers=[layer.detach() for layer in forward.other_layers],
            extra={key: value.detach() for key, value in forward.extra.items()},
        )
        # Everything that depends only on the frozen activations (treatment
        # groups, RFF features) is computed once for all inner steps.  The
        # weight step is a turn of the fit's workspace: in a fit that
        # replays, its features and the inner steps' working blocks lie in
        # the fit's pool, over the replay program's dead bytes.
        prepare = getattr(self.weight_objective, "prepare", None)
        last_value = float("nan")
        with self._workspace.turn():
            objective_input = (
                constant_forward if prepare is None else prepare(constant_forward, treatment)
            )
            for _ in range(cfg.weight_steps_per_iteration):
                weights = (
                    self.sample_weights.tensor
                    if indices is None
                    else self.sample_weights.tensor[indices]
                )
                weight_loss = (
                    self.weight_objective(objective_input, treatment, weights)
                    + self.sample_weights.anchor_penalty(indices)
                )
                self.sample_weights.zero_grad()
                weight_loss.backward()
                self.sample_weights.step()
                last_value = weight_loss.item()
        return last_value

    def _evaluation_loss(self, dataset: CausalDataset) -> float:
        """Unweighted factual loss on a held-out (standardised) dataset."""
        with no_grad():
            forward = self.backbone.forward(dataset.covariates, dataset.treatment)
            loss = self.backbone.factual_loss(forward, dataset.treatment, dataset.outcome)
        return loss.item()

    # ------------------------------------------------------------------ #
    # Inference / evaluation
    # ------------------------------------------------------------------ #
    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has run (or state has been restored)."""
        return self._standardize_mean is not None and self._standardize_std is not None

    def inference_state(self) -> Dict[str, Optional[np.ndarray]]:
        """Everything beyond the backbone parameters needed to predict.

        Returns the covariate standardisation statistics and the learned
        sample weights (``None`` for weight-free frameworks).  Used by the
        persistence layer; the inverse is :meth:`restore_inference_state`.
        """
        if not self.is_fitted:
            raise RuntimeError("the trainer must be fit before exporting inference state")
        return {
            "standardize_mean": self._standardize_mean.copy(),
            "standardize_std": self._standardize_std.copy(),
            "sample_weights": (
                self.sample_weights.numpy() if self.sample_weights is not None else None
            ),
        }

    def restore_inference_state(
        self,
        standardize_mean: np.ndarray,
        standardize_std: np.ndarray,
        sample_weights: Optional[np.ndarray] = None,
    ) -> None:
        """Restore the state exported by :meth:`inference_state`.

        After this call :attr:`is_fitted` is true and :meth:`predict` /
        :meth:`evaluate` work without retraining (the backbone parameters
        must be restored separately via ``backbone.load_state_dict``).
        """
        self._standardize_mean = np.asarray(standardize_mean, dtype=np.float64).copy()
        self._standardize_std = np.asarray(standardize_std, dtype=np.float64).copy()
        if sample_weights is not None:
            cfg = self.config.training
            self.sample_weights = SampleWeights(
                num_samples=len(sample_weights),
                learning_rate=cfg.weight_learning_rate,
                clip=cfg.weight_clip,
            )
            self.sample_weights.values.data = np.array(sample_weights)
            self._cast_to_training_dtype()  # the dtype the fit trained them in

    def _transform(self, covariates: np.ndarray) -> np.ndarray:
        if self._standardize_mean is None or self._standardize_std is None:
            raise RuntimeError("the trainer must be fit before prediction")
        matrix = covariate_matrix(covariates, int(self.backbone.num_features))
        return (matrix - self._standardize_mean) / self._standardize_std

    def predict(self, covariates: np.ndarray) -> Dict[str, np.ndarray]:
        """Predict both potential outcomes and the ITE for new units."""
        return self.backbone.predict(self._transform(covariates))

    def representations(self, covariates: np.ndarray) -> np.ndarray:
        """Balanced representation Φ(x) of new units (used for Fig. 5)."""
        return self.backbone.representations(self._transform(covariates))

    def evaluate(self, dataset: CausalDataset) -> Dict[str, float]:
        """Compute PEHE, ATE bias (and F1 for binary outcomes) on a dataset."""
        predictions = self.predict(dataset.covariates)
        estimates = EffectEstimates(
            mu0_true=dataset.mu0,
            mu1_true=dataset.mu1,
            mu0_pred=predictions["mu0"],
            mu1_pred=predictions["mu1"],
        )
        return evaluate_effect_predictions(
            estimates, treatment=dataset.treatment, binary_outcome=dataset.binary_outcome
        )
