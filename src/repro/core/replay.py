"""Graph-replay engine for the full-batch network training step.

:class:`NetworkStepReplay` runs the forward and backward of
:meth:`SBRLTrainer._network_step`.  When it holds no program for the
step's signature it records the trainer's own eager step under a
:class:`~repro.nn.tape.TapeRecorder` (so the step costs the same as plain
eager plus a small recording overhead) and keeps the resulting
:class:`~repro.nn.tape.ReplayProgram`; on a hit it replays the program
with zero Python graph construction — bit-identical to the eager step.
The program reads the sample weights from the trainer's live array, which
the weight step updates in place, and the trainer makes every step's
optimizer step.

Only full-batch fits build one: they pass the same arrays every step, so
one program serves the whole fit.  A minibatch loader materialises fresh
arrays every step, so a program could never be reused there, and the
trainer runs those steps eagerly.

Invalidation is signature-based: the signature pins the batch arrays and
the sample-weight array by identity (and the engine holds references so
ids cannot be recycled), plus shapes, dtypes, the parameters' dtype (the
fit's precision) and the full config repr.  A different signature, or a
program gone stale (:class:`TapeStale`), records again in its place.
Unsupported ops abort the recording and permanently fall back to eager
with a one-time warning.

The program lives for one fit: the trainer calls
:meth:`NetworkStepReplay.release` when the fit ends, and turning taping
off releases it at once, so a fitted estimator, its deep copies and its
deployed versions hold none.
"""

from __future__ import annotations

import logging
from typing import Optional

import numpy as np

from ..nn.tape import TapeRecorder, TapeStale
from ..nn.tensor import _TAPE

__all__ = ["NetworkStepReplay"]

logger = logging.getLogger(__name__)


class NetworkStepReplay:
    """Record-once / replay-many execution of the trainer's full-batch network step."""

    def __init__(self) -> None:
        self.enabled = True
        #: The recorded program, or ``None`` before the first recording and
        #: after :meth:`release`.
        self.program = None
        self._signature = None
        #: The step arrays the signature names by ``id``, kept alive.
        self._pins = None
        self._warned = False
        self.stats = {
            "records": 0,
            "hits": 0,
            "misses": 0,
            "invalidations": 0,
            "fallbacks": 0,
        }

    # ------------------------------------------------------------------ #
    def step(
        self,
        trainer,
        covariates: np.ndarray,
        treatment: np.ndarray,
        outcome: np.ndarray,
    ) -> Optional[float]:
        """Run the forward and backward of one full-batch step of ``trainer``.

        Replays the program on a hit, else records the trainer's eager step.
        Returns the loss, or ``None`` having run nothing when replay is off
        or a recording is already active: the trainer then runs the step
        eagerly.  The trainer makes the step's optimizer step either way.

        The trainer is passed per call, not stored: the trainer owns this
        engine, and a back-reference would make the pair a cycle that only
        the cyclic garbage collector frees.
        """
        if not self.enabled or _TAPE.recorder is not None:
            return None

        # The factual loss reads the weight step's own array, which the
        # program reads in place on every run.
        weights = trainer.sample_weights.tensor.data if trainer.uses_weights else None
        signature = self._step_signature(trainer, covariates, treatment, outcome, weights)
        if self.program is not None and signature == self._signature:
            try:
                loss = self.program.run()
            except TapeStale:
                # A parameter or dynamic-input assumption broke (e.g. a
                # load_state_dict swapped buffers): record again below.
                self.release()
                self.stats["invalidations"] += 1
            else:
                self.stats["hits"] += 1
                trainer.last_step_stats = {
                    "replay_hit": True,
                    "graph_nodes": self.program.graph_nodes,
                }
                return loss

        self.stats["misses"] += 1
        self.release()
        recorder = TapeRecorder(inputs=() if weights is None else (weights,))
        with recorder:
            loss_tensor = trainer._network_forward_backward(covariates, treatment, outcome)
        program = recorder.finalize(loss_tensor, pool=trainer._pool)
        if program is None:
            self._disable(recorder.aborted or "recording aborted")
            trainer.last_step_stats = {"replay_hit": False, "graph_nodes": None}
            return loss_tensor.item()

        program.set_optimizer_params(trainer._optimizer.parameters)
        self.program = program
        self._signature = signature
        self._pins = (covariates, treatment, outcome, weights)
        self.stats["records"] += 1
        trainer.last_step_stats = {
            "replay_hit": False,
            "graph_nodes": program.graph_nodes,
        }
        return loss_tensor.item()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _step_signature(trainer, covariates, treatment, outcome, weights) -> tuple:
        # The treatment bytes are cheap insurance against an aliased buffer
        # being rewritten in place between steps (ids alone would match).
        return (
            id(covariates),
            id(treatment),
            id(outcome),
            id(weights),
            covariates.shape,
            str(covariates.dtype),
            treatment.shape,
            outcome.shape,
            hash(treatment.tobytes()),
            str(trainer.backbone.parameter_dtype()),
            repr(trainer.config),
        )

    def release(self) -> None:
        """Drop the program and the arrays it pins; ``stats`` stay."""
        self.program = None
        self._signature = None
        self._pins = None

    def _disable(self, reason: str) -> None:
        self.enabled = False
        self.release()
        self.stats["fallbacks"] += 1
        if not self._warned:
            self._warned = True
            logger.warning(
                "graph_replay: falling back to eager execution — %s "
                "(set TrainingConfig.graph_replay='off' to silence; "
                "warning shown once per trainer)",
                reason,
            )
