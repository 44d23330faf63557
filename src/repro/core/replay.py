"""Graph-replay engine for the full-batch network training step.

:class:`NetworkStepReplay` sits between :meth:`SBRLTrainer._network_step`
and the eager forward/backward.  When it holds no program for the step's
signature it executes the step eagerly under a
:class:`~repro.nn.tape.TapeRecorder` (so the step costs the same as plain
eager plus a small recording overhead) and keeps the resulting
:class:`~repro.nn.tape.ReplayProgram`; on a hit it refreshes the per-step
sample-weight buffer and replays the program with zero Python graph
construction — bit-identical to the eager step.

Only full-batch fits build one: they pass the same arrays every step, so
one program serves the whole fit.  A minibatch loader materialises fresh
arrays every step, so a program could never be reused there, and the
trainer runs those steps eagerly.

Invalidation is signature-based: the signature pins the batch arrays by
identity (and the engine holds references so ids cannot be recycled),
plus shapes, dtypes, the training dtype policy and the full config repr.
A different signature, or a program gone stale (:class:`TapeStale`),
records again in its place.  Unsupported ops abort the recording and
permanently fall back to eager with a one-time warning.

The program lives for one fit: the trainer calls
:meth:`NetworkStepReplay.release` when the fit ends, and turning taping
off releases it at once, so a fitted estimator, its deep copies and its
deployed versions hold none.
"""

from __future__ import annotations

import logging

import numpy as np

from ..nn.tape import TapeRecorder, TapeStale
from ..nn.tensor import _TAPE, get_default_dtype

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
        self._weight_buffer = None
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
    ) -> float:
        """Execute one full-batch training step of ``trainer`` through its program.

        The trainer is passed per call, not stored: the trainer owns this
        engine, and a back-reference would make the pair a cycle that only
        the cyclic garbage collector frees.
        """
        if not self.enabled or _TAPE.recorder is not None:
            return self._eager_step(trainer, covariates, treatment, outcome)

        signature = self._step_signature(trainer, covariates, treatment, outcome)
        if self.program is not None and signature == self._signature:
            try:
                self._refresh_weights(trainer, self._weight_buffer)
                loss = self.program.run()
            except TapeStale:
                # A parameter or dynamic-input assumption broke (e.g. a
                # load_state_dict swapped buffers): record again below.
                self.release()
                self.stats["invalidations"] += 1
            else:
                self.stats["hits"] += 1
                trainer._optimizer.step()
                trainer.last_step_stats = {
                    "replay_hit": True,
                    "graph_nodes": self.program.graph_nodes,
                }
                return loss

        self.stats["misses"] += 1
        self.release()
        weight_buffer = None
        recorder_inputs = ()
        if trainer.uses_weights:
            weight_buffer = np.empty(len(trainer.sample_weights.numpy()), dtype=get_default_dtype())
            self._refresh_weights(trainer, weight_buffer)
            recorder_inputs = (weight_buffer,)

        recorder = TapeRecorder(inputs=recorder_inputs)
        with recorder:
            loss_tensor = trainer._network_forward_backward(
                covariates, treatment, outcome, weights_override=weight_buffer
            )
        trainer._optimizer.step()
        program = recorder.finalize(loss_tensor, pool=trainer._pool)
        if program is None:
            self._disable(recorder.aborted or "recording aborted")
            trainer.last_step_stats = {"replay_hit": False, "graph_nodes": None}
            return loss_tensor.item()

        program.set_optimizer_params(trainer._optimizer.parameters)
        self.program = program
        self._signature = signature
        self._weight_buffer = weight_buffer
        self._pins = (covariates, treatment, outcome)
        self.stats["records"] += 1
        trainer.last_step_stats = {
            "replay_hit": False,
            "graph_nodes": program.graph_nodes,
        }
        return loss_tensor.item()

    # ------------------------------------------------------------------ #
    def _eager_step(self, trainer, covariates, treatment, outcome) -> float:
        loss = trainer._network_forward_backward(covariates, treatment, outcome)
        trainer._optimizer.step()
        trainer.last_step_stats = {"replay_hit": False, "graph_nodes": None}
        return loss.item()

    @staticmethod
    def _refresh_weights(trainer, weight_buffer) -> None:
        if weight_buffer is not None:
            np.copyto(weight_buffer, trainer.sample_weights.numpy())

    @staticmethod
    def _step_signature(trainer, covariates, treatment, outcome) -> tuple:
        # The treatment bytes are cheap insurance against an aliased buffer
        # being rewritten in place between steps (ids alone would match).
        return (
            id(covariates),
            id(treatment),
            id(outcome),
            covariates.shape,
            str(covariates.dtype),
            treatment.shape,
            outcome.shape,
            hash(treatment.tobytes()),
            str(get_default_dtype()),
            repr(trainer.config),
        )

    def release(self) -> None:
        """Drop the program and the arrays it pins; ``stats`` stay."""
        self.program = None
        self._signature = None
        self._weight_buffer = None
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
