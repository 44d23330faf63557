"""Optimisers and learning-rate schedules for the NN substrate.

The paper trains with Adam and an exponentially decaying learning rate; both
are provided here, alongside AdamW, RMSprop and momentum SGD plus step /
cosine / warmup schedules, all registered in :data:`repro.registry.optimizers`
and :data:`repro.registry.schedules` so training configs can select them by
name (``TrainingConfig.optimizer`` / ``TrainingConfig.lr_schedule``).

Every optimiser's ``step()`` is strictly in place: each state and scratch
buffer is one flat array over all parameters, allocated once (on the first
step), and every step runs pure ``out=``-form ufunc sequences, once per run
of consecutive parameters that have a gradient.  No array is allocated per
step — the property the graph-replay engine's zero-alloc guarantee rests on
— and each parameter buffer keeps its identity (replay pins it;
``_version`` is bumped for the compiled-inference cache).

Two contracts worth knowing:

* **State follows the parameter object, not its memory address.**  State is
  kept per parameter *slot* and guarded by object identity, so a tensor that
  happens to be allocated at a freed parameter's ``id()`` can never inherit
  stale moments, and replacing a slot's parameter resets that slot's state.
* **Schedule symmetry.**  The base class evaluates the schedule exactly once
  per step at the *pre-increment* ``step_count`` and bumps the counter after
  the update, for every optimiser.  Swapping optimisers under the same
  schedule therefore yields the same learning-rate sequence
  ``schedule(0), schedule(1), ...`` — there is no per-optimiser off-by-one.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..registry import optimizers as OPTIMIZER_REGISTRY
from ..registry import schedules as SCHEDULE_REGISTRY
from .tensor import Tensor

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "AdamW",
    "RMSprop",
    "ConstantSchedule",
    "ExponentialDecay",
    "StepDecay",
    "CosineDecay",
    "WarmupSchedule",
    "build_schedule",
    "build_optimizer",
    "OPTIMIZER_REGISTRY",
    "SCHEDULE_REGISTRY",
]


def _check_finite(name: str, value: float, positive: bool = False) -> None:
    """Reject a NaN, infinite or negative hyperparameter (zero too, with
    ``positive``).

    A plain sign check lets NaN through (``nan < 0`` is False): a NaN
    learning rate poisons every update, and a NaN weight decay acts as
    none.  A negative eps can turn a denominator negative and step uphill.
    """
    if not (math.isfinite(value) and (value > 0 if positive else value >= 0)):
        sign = "positive" if positive else "non-negative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


# --------------------------------------------------------------------------- #
# Learning-rate schedules: callables ``step -> lr``
# --------------------------------------------------------------------------- #
class ConstantSchedule:
    """A learning-rate schedule that never changes."""

    def __init__(self, learning_rate: float) -> None:
        _check_finite("learning rate", learning_rate, positive=True)
        self.learning_rate = float(learning_rate)

    def __call__(self, step: int) -> float:
        return self.learning_rate


class ExponentialDecay:
    """Exponentially decaying learning rate, ``lr * decay^(step / decay_steps)``.

    The exponent is continuous in ``step`` (not floored), so the sequence has
    no jumps at ``decay_steps`` boundaries.
    """

    def __init__(self, learning_rate: float, decay_rate: float = 0.97, decay_steps: int = 100) -> None:
        _check_finite("learning rate", learning_rate, positive=True)
        if not 0 < decay_rate <= 1:
            raise ValueError("decay rate must be in (0, 1]")
        if decay_steps <= 0:
            raise ValueError("decay steps must be positive")
        self.learning_rate = float(learning_rate)
        self.decay_rate = float(decay_rate)
        self.decay_steps = int(decay_steps)

    def __call__(self, step: int) -> float:
        return self.learning_rate * self.decay_rate ** (step / self.decay_steps)


class StepDecay:
    """Piecewise-constant decay: ``lr * drop_rate^floor(step / step_size)``."""

    def __init__(self, learning_rate: float, drop_rate: float = 0.5, step_size: int = 100) -> None:
        _check_finite("learning rate", learning_rate, positive=True)
        if not 0 < drop_rate <= 1:
            raise ValueError("drop rate must be in (0, 1]")
        if step_size <= 0:
            raise ValueError("step size must be positive")
        self.learning_rate = float(learning_rate)
        self.drop_rate = float(drop_rate)
        self.step_size = int(step_size)

    def __call__(self, step: int) -> float:
        return self.learning_rate * self.drop_rate ** (step // self.step_size)


class CosineDecay:
    """Cosine annealing from ``learning_rate`` at step 0 to ``min_lr``.

    ``schedule(0) == learning_rate`` and ``schedule(step) == min_lr`` exactly
    for every ``step >= total_steps``.
    """

    def __init__(self, learning_rate: float, total_steps: int = 1000, min_lr: float = 0.0) -> None:
        _check_finite("learning rate", learning_rate, positive=True)
        if total_steps <= 0:
            raise ValueError("total steps must be positive")
        if not 0 <= min_lr < learning_rate:
            raise ValueError("min_lr must be in [0, learning_rate)")
        self.learning_rate = float(learning_rate)
        self.total_steps = int(total_steps)
        self.min_lr = float(min_lr)

    def __call__(self, step: int) -> float:
        progress = min(step, self.total_steps) / self.total_steps
        return self.min_lr + 0.5 * (self.learning_rate - self.min_lr) * (
            1.0 + math.cos(math.pi * progress)
        )


class WarmupSchedule:
    """Linear-warmup wrapper around any schedule.

    During the first ``warmup_steps`` steps the wrapped schedule's value is
    scaled by ``(step + 1) / warmup_steps``; the ramp reaches exactly 1.0 on
    the last warmup step, so the handoff at ``step >= warmup_steps`` is
    continuous and bitwise equal to the wrapped schedule.
    """

    def __init__(self, schedule, warmup_steps: int) -> None:
        if warmup_steps <= 0:
            raise ValueError("warmup_steps must be positive")
        if isinstance(schedule, (int, float)):
            schedule = ConstantSchedule(float(schedule))
        self.schedule = schedule
        self.warmup_steps = int(warmup_steps)

    def __call__(self, step: int) -> float:
        if step < self.warmup_steps:
            return self.schedule(step) * (step + 1) / self.warmup_steps
        return self.schedule(step)


# --------------------------------------------------------------------------- #
# Optimisers
# --------------------------------------------------------------------------- #
#: Most elements one gathered update covers.  Past this the per-call cost
#: is small beside the arithmetic, and the gather and copy-back only add
#: memory traffic: CFR at 128/64 units (69 762 values) stepped ~8% slower
#: as one gathered run than one parameter at a time.
_RUN_SIZE = 16384


class _Gathered:
    """The ``param`` that :meth:`Optimizer._update` sees for a run of several
    parameters: ``data`` is the run's gathered flat parameter buffer."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = data


class Optimizer:
    """Base optimiser: holds parameters, flat slot-keyed state and a schedule.

    Subclasses implement :meth:`_update` (one in-place update of a
    parameter buffer) and declare ``state_names`` — the persistent buffers
    that survive between steps (moments, velocities) — and
    ``scratch_names`` — preallocated temporaries whose content is
    irrelevant across steps.  Each name is one flat buffer over all
    parameters of a dtype, laid out in parameter order and created on the
    first step; a slot's buffers are views of those.  Every registered
    update is elementwise, so :meth:`step` runs ``_update`` once over each
    maximal run of consecutive parameters that have a gradient, on gathered
    copies of their gradients and values, with results bitwise equal to one
    ``_update`` per parameter.

    State is keyed by slot index *and* guarded by parameter object identity:
    if the tensor occupying a slot is replaced, that slot's state restarts
    from zero.  This replaces the historical ``id(param)``-keyed dicts,
    under which a freed parameter whose ``id`` was recycled by a new tensor
    silently inherited its predecessor's moments.
    """

    #: Persistent per-parameter state buffers (zero-initialised).
    state_names: Tuple[str, ...] = ()
    #: Per-parameter scratch buffers (uninitialised, rewritten every step).
    scratch_names: Tuple[str, ...] = ()

    def __init__(self, parameters: Iterable[Tensor], schedule) -> None:
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        first: Dict[int, int] = {}
        for index, param in enumerate(self.parameters):
            earlier = first.setdefault(id(param), index)
            if earlier != index:
                raise ValueError(
                    f"optimizer received one tensor twice, at positions {earlier} and {index}"
                )
        if isinstance(schedule, (int, float)):
            schedule = ConstantSchedule(float(schedule))
        self.schedule = schedule
        self.step_count = 0
        #: ``(param, shape, dtype, offset)`` per slot, laid out by :meth:`_sync`.
        self._slots: List[Tuple[Tensor, Tuple[int, ...], np.dtype, int]] = []
        #: dtype -> state and scratch name -> flat buffer.
        self._state: Dict[np.dtype, Dict[str, np.ndarray]] = {}
        #: dtype -> flat (gradient, value) buffers that runs gather into.
        self._gather: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}

    @property
    def current_lr(self) -> float:
        """The learning rate the *next* ``step()`` will use."""
        return self.schedule(self.step_count)

    def zero_grad(self) -> None:
        """Clear every parameter's gradient."""
        for param in self.parameters:
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # Slot-keyed flat state
    # ------------------------------------------------------------------ #
    def _slot_buffers(self, index: int) -> Dict[str, np.ndarray]:
        """Views of slot ``index``'s state and scratch, in its parameter's shape."""
        _, shape, dtype, offset = self._slots[index]
        end = offset + math.prod(shape)
        return {name: flat[offset:end].reshape(shape) for name, flat in self._state[dtype].items()}

    def _sync(self) -> None:
        """Guard every slot by its parameter's identity, shape and dtype.

        On any change every slot is laid out again: a slot whose tensor is
        unchanged keeps its state, any other starts from zero.
        """
        params, slots = self.parameters, self._slots
        unchanged = [
            index
            for index, (param, (owner, shape, dtype, _)) in enumerate(zip(params, slots))
            if owner is param and param.data.shape == shape and param.data.dtype == dtype
        ]
        if len(unchanged) == len(slots) == len(params):
            return
        kept = {index: self._slot_buffers(index) for index in unchanged}
        sizes: Dict[np.dtype, int] = {}
        self._slots = []
        for param in params:
            data = param.data
            offset = sizes.get(data.dtype, 0)
            sizes[data.dtype] = offset + data.size
            self._slots.append((param, data.shape, data.dtype, offset))
        self._state = {
            dtype: {
                **{name: np.zeros(size, dtype=dtype) for name in self.state_names},
                **{name: np.empty(size, dtype=dtype) for name in self.scratch_names},
            }
            for dtype, size in sizes.items()
        }
        self._gather = {
            dtype: (np.empty(size, dtype=dtype), np.empty(size, dtype=dtype))
            for dtype, size in sizes.items()
        }
        for index, old in kept.items():
            buffers = self._slot_buffers(index)
            for name in self.state_names:
                buffers[name][...] = old[name]

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(self) -> None:
        """Apply one in-place update to every parameter with a gradient.

        The schedule is evaluated exactly once, at the pre-increment
        ``step_count`` (so every optimiser sees the sequence
        ``schedule(0), schedule(1), ...``), and ``t`` — the 1-based step
        number used by bias corrections — is ``step_count + 1``.

        ``_update`` runs once per run (see :meth:`_runs`).  A run of several
        parameters gathers their gradients and values into preallocated
        flat buffers, updates those and copies the values back; a run of
        one is updated in place.  Either way no array is allocated per
        step, every parameter buffer keeps its identity (graph replay pins
        it) and no ``param.grad`` is written (replay owns that buffer).
        """
        lr = self.schedule(self.step_count)
        t = self.step_count + 1
        self._sync()
        params = self.parameters
        for start, stop in self._runs():
            if stop - start == 1:
                param = params[start]
                self._update(param, param.grad, lr, t, self._slot_buffers(start))
            else:
                self._update_run(start, stop, lr, t)
        for param in params:
            if param.grad is not None:
                param._version = getattr(param, "_version", 0) + 1
        self.step_count += 1

    def _runs(self) -> List[Tuple[int, int]]:
        """``(start, stop)`` of the slot runs that one ``_update`` each steps.

        A run is a maximal sequence of consecutive parameters whose
        gradients match their values in shape and dtype, of one dtype and
        at most ``_RUN_SIZE`` elements in all.  Any other parameter with a
        gradient runs alone.
        """
        params, slots = self.parameters, self._slots
        runs: List[Tuple[int, int]] = []
        start, count = 0, len(params)
        while start < count:
            if params[start].grad is None:
                start += 1
                continue
            stop = start + 1
            if _gatherable(params[start]):
                dtype, size = slots[start][2], params[start].data.size
                while (
                    stop < count
                    and _gatherable(params[stop])
                    and slots[stop][2] == dtype
                    and size + params[stop].data.size <= _RUN_SIZE
                ):
                    size += params[stop].data.size
                    stop += 1
            runs.append((start, stop))
            start = stop
        return runs

    def _update_run(self, start: int, stop: int, lr: float, t: int) -> None:
        members = self.parameters[start:stop]
        slots = self._slots[start:stop]
        dtype, low = slots[0][2], slots[0][3]
        high = slots[-1][3] + members[-1].data.size
        grad_flat, value_flat = self._gather[dtype]
        grads, values = grad_flat[low:high], value_flat[low:high]
        np.concatenate([param.grad.reshape(-1) for param in members], out=grads)
        np.concatenate([param.data.reshape(-1) for param in members], out=values)
        buffers = {name: flat[low:high] for name, flat in self._state[dtype].items()}
        self._update(_Gathered(values), grads, lr, t, buffers)
        for param, (_, shape, _, offset) in zip(members, slots):
            begin = offset - low
            np.copyto(param.data, values[begin : begin + param.data.size].reshape(shape))

    def _update(
        self,
        param: Tensor,
        grad: np.ndarray,
        lr: float,
        t: int,
        buffers: Dict[str, np.ndarray],
    ) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


def _gatherable(param: Tensor) -> bool:
    """Whether ``param``'s gradient can join a gathered run."""
    grad, data = param.grad, param.data
    return grad is not None and grad.shape == data.shape and grad.dtype == data.dtype


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    scratch_names = ("scratch",)

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-2,
        momentum: float = 0.0,
        schedule=None,
    ) -> None:
        super().__init__(parameters, schedule if schedule is not None else lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = momentum
        if momentum > 0:
            self.state_names = ("velocity",)

    def _update(self, param, grad, lr, t, buffers) -> None:
        if self.momentum > 0:
            velocity = buffers["velocity"]
            np.multiply(velocity, self.momentum, out=velocity)
            np.add(velocity, grad, out=velocity)
            update = velocity
        else:
            update = grad
        scratch = buffers["scratch"]
        np.multiply(update, lr, out=scratch)
        np.subtract(param.data, scratch, out=param.data)


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015), the optimiser used in the paper.

    ``weight_decay`` adds classic (coupled) L2 decay — the gradient becomes
    ``grad + weight_decay * param`` — folded into the in-place scratch
    sequence, so the zero-alloc guarantee holds with decay active too.  For
    decoupled decay use :class:`AdamW`.
    """

    state_names = ("m", "v")
    scratch_names = ("s1", "s2")

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        schedule=None,
    ) -> None:
        super().__init__(parameters, schedule if schedule is not None else lr)
        beta1, beta2 = betas
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must be in [0, 1)")
        _check_finite("weight_decay", weight_decay)
        _check_finite("eps", eps)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        if weight_decay > 0 and self._couples_decay():
            self.scratch_names = self.scratch_names + ("decayed",)

    def _couples_decay(self) -> bool:
        """Whether decay is folded into the gradient (AdamW overrides)."""
        return True

    def _update(self, param, grad, lr, t, buffers) -> None:
        if self.weight_decay > 0 and self._couples_decay():
            # Bitwise equal to the historical allocating expression
            # ``grad + weight_decay * param`` (IEEE addition commutes),
            # computed into a preallocated scratch buffer.
            decayed = buffers["decayed"]
            np.multiply(param.data, self.weight_decay, out=decayed)
            np.add(decayed, grad, out=decayed)
            grad = decayed
        beta1, beta2 = self.beta1, self.beta2
        m, v = buffers["m"], buffers["v"]
        s1, s2 = buffers["s1"], buffers["s2"]
        # In-place ufunc sequences, elementwise-bitwise equal to the
        # historical allocating expressions (scalar multiplies commute
        # in IEEE arithmetic).
        np.multiply(m, beta1, out=m)
        np.multiply(grad, 1 - beta1, out=s1)
        np.add(m, s1, out=m)
        np.multiply(v, beta2, out=v)
        np.multiply(grad, 1 - beta2, out=s2)
        np.multiply(s2, grad, out=s2)
        np.add(v, s2, out=v)
        np.divide(m, 1 - beta1 ** t, out=s1)
        np.divide(v, 1 - beta2 ** t, out=s2)
        np.multiply(s1, lr, out=s1)
        np.sqrt(s2, out=s2)
        np.add(s2, self.eps, out=s2)
        np.divide(s1, s2, out=s1)
        np.subtract(param.data, s1, out=param.data)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019).

    The decay multiplies the parameter directly — ``param *= 1 - lr * wd``
    before the adaptive update — instead of entering the moment estimates.
    """

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
        schedule=None,
    ) -> None:
        super().__init__(
            parameters, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay, schedule=schedule
        )

    def _couples_decay(self) -> bool:
        return False

    def _update(self, param, grad, lr, t, buffers) -> None:
        if self.weight_decay > 0:
            np.multiply(param.data, 1.0 - lr * self.weight_decay, out=param.data)
        super()._update(param, grad, lr, t, buffers)


class RMSprop(Optimizer):
    """RMSprop (Tieleman & Hinton, 2012) with optional momentum and L2 decay."""

    state_names = ("square_avg",)
    scratch_names = ("s1", "s2")

    def __init__(
        self,
        parameters: Iterable[Tensor],
        lr: float = 1e-3,
        alpha: float = 0.99,
        eps: float = 1e-8,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        schedule=None,
    ) -> None:
        super().__init__(parameters, schedule if schedule is not None else lr)
        if not 0 < alpha < 1:
            raise ValueError("alpha must be in (0, 1)")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        _check_finite("weight_decay", weight_decay)
        _check_finite("eps", eps)
        self.alpha = alpha
        self.eps = eps
        self.momentum = momentum
        self.weight_decay = weight_decay
        if momentum > 0:
            self.state_names = self.state_names + ("velocity",)
        if weight_decay > 0:
            self.scratch_names = self.scratch_names + ("decayed",)

    def _update(self, param, grad, lr, t, buffers) -> None:
        if self.weight_decay > 0:
            decayed = buffers["decayed"]
            np.multiply(param.data, self.weight_decay, out=decayed)
            np.add(decayed, grad, out=decayed)
            grad = decayed
        square_avg = buffers["square_avg"]
        s1, s2 = buffers["s1"], buffers["s2"]
        np.multiply(square_avg, self.alpha, out=square_avg)
        np.multiply(grad, grad, out=s1)
        np.multiply(s1, 1 - self.alpha, out=s1)
        np.add(square_avg, s1, out=square_avg)
        np.sqrt(square_avg, out=s1)
        np.add(s1, self.eps, out=s1)
        np.divide(grad, s1, out=s2)
        np.multiply(s2, lr, out=s2)
        if self.momentum > 0:
            velocity = buffers["velocity"]
            np.multiply(velocity, self.momentum, out=velocity)
            np.add(velocity, s2, out=velocity)
            np.subtract(param.data, velocity, out=param.data)
        else:
            np.subtract(param.data, s2, out=param.data)


# --------------------------------------------------------------------------- #
# Registry entries and config-driven builders
# --------------------------------------------------------------------------- #
if "adam" not in OPTIMIZER_REGISTRY:  # guard against double registration on re-import
    OPTIMIZER_REGISTRY.register("adam", Adam, display_name="Adam")
    OPTIMIZER_REGISTRY.register("adamw", AdamW, aliases=("adam-w",), display_name="AdamW")
    OPTIMIZER_REGISTRY.register(
        "rmsprop", RMSprop, aliases=("rms-prop",), display_name="RMSprop"
    )
    OPTIMIZER_REGISTRY.register(
        "sgd", SGD, aliases=("momentum-sgd", "momentum"), display_name="SGD"
    )

if "constant" not in SCHEDULE_REGISTRY:
    SCHEDULE_REGISTRY.register("constant", ConstantSchedule, display_name="constant")
    SCHEDULE_REGISTRY.register(
        "exponential", ExponentialDecay, aliases=("exponential-decay",), display_name="exponential decay"
    )
    SCHEDULE_REGISTRY.register(
        "step", StepDecay, aliases=("step-decay",), display_name="step decay"
    )
    SCHEDULE_REGISTRY.register(
        "cosine", CosineDecay, aliases=("cosine-decay", "cosine-annealing"), display_name="cosine decay"
    )


def build_schedule(
    name: str,
    learning_rate: float,
    params: Optional[dict] = None,
    warmup_steps: int = 0,
):
    """Instantiate a registered schedule by name, optionally warmup-wrapped.

    ``params`` may override ``learning_rate``; unknown names raise the
    registry's did-you-mean :class:`~repro.registry.UnknownComponentError`,
    and a parameter the schedule does not take raises ``ValueError``.
    """
    kwargs = dict(params or {})
    kwargs.setdefault("learning_rate", learning_rate)
    try:
        schedule = SCHEDULE_REGISTRY.create(name, **kwargs)
    except TypeError as exc:  # an unknown or mistyped parameter
        raise ValueError(f"schedule {name!r}: {exc}") from exc
    if warmup_steps:
        schedule = WarmupSchedule(schedule, warmup_steps)
    return schedule


def build_optimizer(
    name: str,
    parameters: Iterable[Tensor],
    schedule,
    params: Optional[dict] = None,
) -> Optimizer:
    """Instantiate a registered optimiser by name over ``parameters``.

    A parameter in ``params`` the optimiser does not take raises ``ValueError``.
    """
    cls = OPTIMIZER_REGISTRY.get(name)
    try:
        return cls(parameters, schedule=schedule, **(params or {}))
    except TypeError as exc:  # an unknown or mistyped parameter
        raise ValueError(f"optimizer {name!r}: {exc}") from exc
