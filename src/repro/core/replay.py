"""Graph-replay engine for the network training step.

:class:`NetworkStepReplay` sits between :meth:`SBRLTrainer._network_step`
and the eager forward/backward.  On a cache miss it executes the step
eagerly under a :class:`~repro.nn.tape.TapeRecorder` (so the step costs the
same as plain eager plus a small recording overhead) and keeps the resulting
:class:`~repro.nn.tape.ReplayProgram`; on a hit it refreshes the per-step
sample-weight buffer and replays the program with zero Python graph
construction — bit-identical to the eager step.

Invalidation is signature-based: the cache key pins the batch arrays by
identity (and the entry holds references so ids cannot be recycled), plus
shapes, dtypes, the training dtype policy and the full config repr.  Any
change misses and re-records.  Minibatch loaders materialise fresh arrays
every step, so signatures never repeat; a thrash guard notices the
consecutive misses and turns taping off after a few steps (minibatch replay
would be correct but no faster).  Unsupported ops abort the recording and
permanently fall back to eager with a one-time warning.

Programs live for one fit: the trainer calls :meth:`NetworkStepReplay.release`
when the fit ends, and turning taping off releases them at once, so a
fitted estimator, its deep copies and its deployed versions hold none.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from typing import Optional

import numpy as np

from ..nn.tape import TapeRecorder, TapeStale
from ..nn.tensor import _TAPE, get_default_dtype

__all__ = ["NetworkStepReplay"]

logger = logging.getLogger(__name__)

#: Cached programs per trainer: full-batch training needs one; shape or
#: config toggles during a fit are rare, so a tiny LRU suffices.
_CACHE_CAPACITY = 4

#: Consecutive record-misses (without a single hit) before taping is turned
#: off — the signal that batch identities never repeat (minibatch mode).
_THRASH_LIMIT = 4


class NetworkStepReplay:
    """Record-once / replay-many execution of the trainer's network step."""

    def __init__(self) -> None:
        self.enabled = True
        self._cache: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._consecutive_misses = 0
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
        indices: Optional[np.ndarray],
    ) -> float:
        """Execute one training step of ``trainer`` through the record/replay cache.

        The trainer is passed per call, not stored: the trainer owns this
        engine, and a back-reference would make the pair a cycle that only
        the cyclic garbage collector frees.
        """
        if not self.enabled or _TAPE.recorder is not None:
            return self._eager_step(trainer, covariates, treatment, outcome, indices)

        signature = self._signature(trainer, covariates, treatment, outcome, indices)
        entry = self._cache.get(signature)
        if entry is not None:
            program, weight_buffer, _pins = entry
            try:
                self._refresh_weights(trainer, weight_buffer, indices)
                loss = program.run()
            except TapeStale:
                # A parameter or dynamic-input assumption broke (e.g. a
                # load_state_dict swapped buffers): drop and re-record below.
                self._cache.pop(signature, None)
                self.stats["invalidations"] += 1
            else:
                self._cache.move_to_end(signature)
                self.stats["hits"] += 1
                self._consecutive_misses = 0
                trainer._optimizer.step()
                trainer.last_step_stats = {
                    "replay_hit": True,
                    "graph_nodes": program.graph_nodes,
                }
                return loss

        self.stats["misses"] += 1
        self._consecutive_misses += 1
        if self._consecutive_misses > _THRASH_LIMIT:
            self._disable(
                "batch identities never repeat (minibatch mode); replay "
                "cannot amortise the recording"
            )
            return self._eager_step(trainer, covariates, treatment, outcome, indices)

        weight_buffer = None
        recorder_inputs = ()
        if trainer.uses_weights:
            values = trainer.sample_weights.numpy()
            size = len(values) if indices is None else len(indices)
            weight_buffer = np.empty(size, dtype=get_default_dtype())
            self._refresh_weights(trainer, weight_buffer, indices)
            recorder_inputs = (weight_buffer,)

        recorder = TapeRecorder(inputs=recorder_inputs)
        with recorder:
            loss_tensor = trainer._network_forward_backward(
                covariates, treatment, outcome, indices, weights_override=weight_buffer
            )
        trainer._optimizer.step()
        program = recorder.finalize(loss_tensor)
        if program is None:
            self._disable(recorder.aborted or "recording aborted")
            trainer.last_step_stats = {"replay_hit": False, "graph_nodes": None}
            return loss_tensor.item()

        program.set_optimizer_params(trainer._optimizer.parameters)
        self._cache[signature] = (program, weight_buffer, (covariates, treatment, outcome, indices))
        while len(self._cache) > _CACHE_CAPACITY:
            self._cache.popitem(last=False)
        self.stats["records"] += 1
        trainer.last_step_stats = {
            "replay_hit": False,
            "graph_nodes": program.graph_nodes,
        }
        return loss_tensor.item()

    # ------------------------------------------------------------------ #
    def _eager_step(self, trainer, covariates, treatment, outcome, indices) -> float:
        loss = trainer._network_forward_backward(covariates, treatment, outcome, indices)
        trainer._optimizer.step()
        trainer.last_step_stats = {"replay_hit": False, "graph_nodes": None}
        return loss.item()

    @staticmethod
    def _refresh_weights(trainer, weight_buffer, indices) -> None:
        if weight_buffer is None:
            return
        values = trainer.sample_weights.numpy()
        if indices is None:
            np.copyto(weight_buffer, values)
        else:
            # Same float64 -> policy-dtype cast as the eager as_tensor path.
            weight_buffer[...] = values[indices]

    @staticmethod
    def _signature(trainer, covariates, treatment, outcome, indices) -> tuple:
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
            indices is None,
            id(indices),
            str(get_default_dtype()),
            repr(trainer.config),
        )

    def release(self) -> None:
        """Drop every cached program and the arrays it pins; ``stats`` stay."""
        self._cache.clear()

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
