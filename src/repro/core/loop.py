"""Callback-driven minibatch training loop behind :class:`SBRLTrainer`.

The loop owns the *mechanics* of Algorithm 1 — iterate, alternate the
network and weight updates, evaluate on a cadence — while everything that
used to be inlined in ``SBRLTrainer.fit`` (history recording, verbose
logging, best-state checkpointing, early stopping) is a pluggable
:class:`Callback`.  Users can pass extra callbacks to ``fit`` to observe or
steer training without subclassing the trainer.

Batching is delegated to a :class:`~repro.data.batching.DataLoader`: with
``batch_size=None`` the loader yields the whole population once per
iteration and the loop reproduces the historical full-batch behaviour
exactly; with a finite batch size each iteration consumes one stratified
minibatch and per-unit state (the sample-weight vector) is addressed
through the batch's index array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..nn.tensor import tensor_alloc_count

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..data.batching import DataLoader
    from ..data.dataset import CausalDataset
    from .sbrl import SBRLTrainer

__all__ = [
    "IterationRecord",
    "Callback",
    "HistoryRecorder",
    "VerboseLogger",
    "BestStateCheckpoint",
    "EarlyStopping",
    "EMACallback",
    "TrainingLoop",
]


@dataclass
class IterationRecord:
    """Everything callbacks may need to know about one loop iteration."""

    iteration: int
    network_loss: float
    weight_loss: float
    batch_size: int
    validation_loss: Optional[float] = None
    improved: bool = False
    #: Whether the network step was served by a replayed kernel program
    #: (``TrainingConfig.graph_replay``) instead of eager graph construction.
    replay_hit: bool = False
    #: Gradient-graph size of the network step (``None`` on eager steps
    #: without a recorded program).
    graph_nodes: Optional[int] = None
    #: Tensors the fit's thread allocated during this iteration
    #: (``tensor_alloc_count`` delta over the network + weight updates);
    #: replayed steps drive this to ~0.
    tensor_allocs: Optional[int] = None
    #: Learning rate the network optimiser used for this iteration (the
    #: schedule evaluated at this step; ``None`` when no optimiser is wired).
    lr: Optional[float] = None


class Callback:
    """Base class for training-loop observers; all hooks default to no-ops."""

    def on_train_begin(self, loop: "TrainingLoop") -> None:
        """Hook called once before the first iteration."""
        pass

    def on_evaluation(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Called on the evaluation cadence, after ``validation_loss`` is set."""

    def on_iteration_end(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Hook called after every iteration."""
        pass

    def on_train_end(self, loop: "TrainingLoop") -> None:
        """Hook called once after training finishes."""
        pass


class HistoryRecorder(Callback):
    """Appends the scalar traces to the trainer's :class:`TrainingHistory`."""

    def on_evaluation(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Append the evaluation record to the loop history."""
        history = loop.history
        history.iterations.append(record.iteration)
        history.network_loss.append(record.network_loss)
        history.weight_loss.append(record.weight_loss)
        history.validation_loss.append(record.validation_loss)


class VerboseLogger(Callback):
    """Prints one progress line per evaluation (the ``verbose=True`` output)."""

    def __init__(self, label: str) -> None:
        self.label = label

    def on_evaluation(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Print one progress line for this evaluation."""
        replay_state = "replay" if record.replay_hit else "eager"
        lr_part = f"lr={record.lr:.2e} " if record.lr is not None else ""
        print(
            f"[{self.label}] iter={record.iteration:5d} "
            f"loss={record.network_loss:.4f} val={record.validation_loss:.4f} "
            f"{lr_part}[{replay_state}]"
        )


class BestStateCheckpoint(Callback):
    """Tracks the best validation loss and restores that state at the end.

    Marks ``record.improved`` so a downstream :class:`EarlyStopping` can
    reset its patience; callback order therefore matters (checkpoint before
    early stopping, which is how the default stack is assembled).

    ``state_provider`` substitutes an alternative weight source for the
    snapshots — e.g. :meth:`EMACallback.state_dict` so the checkpoint holds
    averaged weights.  Because evaluation hooks fire *before* the iteration's
    ``on_iteration_end`` (where the EMA updates), a provider-backed snapshot
    is deferred to this callback's own ``on_iteration_end``; place the
    provider callback earlier in the stack so its update has run by then.
    """

    def __init__(
        self,
        margin: float = 1e-9,
        state_provider: Optional[Callable[[], Dict[str, np.ndarray]]] = None,
    ) -> None:
        self.margin = margin
        self.best_loss = np.inf
        self.best_state = None
        self.state_provider = state_provider
        self._pending = False

    def on_evaluation(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Snapshot (or schedule) the best state when validation improves."""
        if record.validation_loss is not None and record.validation_loss < self.best_loss - self.margin:
            self.best_loss = record.validation_loss
            if self.state_provider is None:
                self.best_state = loop.trainer.backbone.state_dict()
            else:
                self._pending = True
            loop.history.best_iteration = record.iteration
            record.improved = True

    def on_iteration_end(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Take a deferred provider snapshot after the iteration's updates."""
        if self._pending:
            self.best_state = self.state_provider()
            self._pending = False

    def on_train_end(self, loop: "TrainingLoop") -> None:
        """Restore the best recorded state into the backbone."""
        if self._pending:  # stopped before the deferred snapshot ran
            self.best_state = self.state_provider()
            self._pending = False
        if self.best_state is not None:
            loop.trainer.backbone.load_state_dict(self.best_state)


class EMACallback(Callback):
    """Maintains an exponential moving average of the backbone parameters.

    After every iteration the shadow weights move toward the live weights:
    ``ema += (1 - decay) * (param - ema)``.  The delta form is used (rather
    than ``decay * ema + (1 - decay) * param``) because it is exact when the
    parameter equals the shadow — the EMA of constant parameters is the
    identity, bit for bit — and it updates in place through preallocated
    scratch buffers (no per-iteration allocations).

    The shadow state is exposed via :meth:`state_dict` in the same format as
    ``Module.state_dict`` so it can back a
    :class:`BestStateCheckpoint(state_provider=...) <BestStateCheckpoint>`
    snapshot or be loaded into a module directly with :meth:`apply_to`.
    """

    def __init__(self, decay: float = 0.99) -> None:
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must be in (0, 1)")
        self.decay = decay
        self._params: List = []
        self._shadow: Dict[str, np.ndarray] = {}
        self._scratch: Dict[str, np.ndarray] = {}

    def attach(self, module) -> None:
        """Initialise the shadow from a module's current parameters."""
        self._params = list(module.named_parameters())
        self._shadow = {name: param.data.copy() for name, param in self._params}
        self._scratch = {name: np.empty_like(param.data) for name, param in self._params}

    def on_train_begin(self, loop: "TrainingLoop") -> None:
        """Attach the shadow parameters to the loop's backbone."""
        self.attach(loop.trainer.backbone)

    def update(self) -> None:
        """Move every shadow toward its live parameter (in place)."""
        one_minus_decay = 1.0 - self.decay
        for name, param in self._params:
            shadow = self._shadow[name]
            scratch = self._scratch[name]
            # param.data is read by attribute each step: load_state_dict
            # replaces the buffer but keeps the Tensor object.
            np.subtract(param.data, shadow, out=scratch)
            np.multiply(scratch, one_minus_decay, out=scratch)
            np.add(shadow, scratch, out=shadow)

    def on_iteration_end(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Advance the moving average after the optimiser step."""
        self.update()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copies of the shadow (EMA) weights, keyed like ``Module.state_dict``."""
        if not self._shadow:
            raise RuntimeError("EMACallback has not been attached to a module yet")
        return {name: values.copy() for name, values in self._shadow.items()}

    def apply_to(self, module) -> None:
        """Load the EMA weights into ``module`` (replacing its live weights)."""
        module.load_state_dict(self.state_dict())


class EarlyStopping(Callback):
    """Stops training after ``patience`` evaluation-covered iterations without improvement.

    Patience is counted in *iterations* (decremented by the evaluation
    interval at each non-improving evaluation), matching the historical
    semantics of ``TrainingConfig.early_stopping_patience``.
    """

    def __init__(self, patience: Optional[int], evaluation_interval: int) -> None:
        self.patience = patience
        self.evaluation_interval = evaluation_interval
        self.patience_left = patience

    def on_train_begin(self, loop: "TrainingLoop") -> None:
        """Reset the patience counter."""
        self.patience_left = self.patience

    def on_evaluation(self, loop: "TrainingLoop", record: IterationRecord) -> None:
        """Count down patience; request a stop when it is exhausted."""
        if record.improved:
            self.patience_left = self.patience
        elif self.patience is not None:
            self.patience_left = (self.patience_left or 0) - self.evaluation_interval
            if self.patience_left <= 0:
                loop.request_stop()


class TrainingLoop:
    """Drives the alternating optimisation over batches from a loader."""

    def __init__(
        self,
        trainer: "SBRLTrainer",
        loader: "DataLoader",
        validation: Optional["CausalDataset"] = None,
        callbacks: Sequence[Callback] = (),
    ) -> None:
        self.trainer = trainer
        self.config = trainer.config.training
        self.loader = loader
        self.validation = validation
        self.callbacks: List[Callback] = list(callbacks)
        self.history = trainer.history
        self._stop = False

    def request_stop(self) -> None:
        """Ask the loop to stop after the current iteration (for callbacks)."""
        self._stop = True

    @property
    def full_batch(self) -> bool:
        """Whether the loader yields the full dataset every iteration."""
        return self.loader.sampler is None

    def run(self):
        """Execute the configured number of iterations; returns the history."""
        cfg = self.config
        trainer = self.trainer
        batches = self.loader.cycle()
        for callback in self.callbacks:
            callback.on_train_begin(self)
        for iteration in range(cfg.iterations):
            batch = next(batches)
            # In full-batch mode per-unit state is addressed globally (no
            # index array), preserving the historical code path exactly.
            indices = None if self.full_batch else batch.indices

            optimizer = getattr(trainer, "_optimizer", None)
            # Read before the step: current_lr is the rate the coming
            # step() evaluates (the schedule at the pre-increment count).
            iteration_lr = optimizer.current_lr if optimizer is not None else None

            allocs_before = tensor_alloc_count()
            network_loss = trainer._network_step(
                batch.covariates, batch.treatment, batch.outcome, indices
            )
            weight_loss = float("nan")
            if trainer.uses_weights and iteration % cfg.weight_update_every == 0:
                weight_loss = trainer._update_weights(
                    batch.covariates, batch.treatment, cfg, indices
                )

            step_stats = getattr(trainer, "last_step_stats", None) or {}
            record = IterationRecord(
                iteration=iteration,
                network_loss=network_loss,
                weight_loss=weight_loss,
                batch_size=len(batch),
                replay_hit=bool(step_stats.get("replay_hit", False)),
                graph_nodes=step_stats.get("graph_nodes"),
                tensor_allocs=tensor_alloc_count() - allocs_before,
                lr=iteration_lr,
            )
            if iteration % cfg.evaluation_interval == 0 or iteration == cfg.iterations - 1:
                record.validation_loss = (
                    trainer._evaluation_loss(self.validation)
                    if self.validation is not None
                    else network_loss
                )
                for callback in self.callbacks:
                    callback.on_evaluation(self, record)
            for callback in self.callbacks:
                callback.on_iteration_end(self, record)
            if self._stop:
                break
        for callback in self.callbacks:
            callback.on_train_end(self)
        return self.history
