"""Unit tests for optimisers and learning-rate schedules."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.nn.modules import Linear
from repro.nn.optim import (
    OPTIMIZER_REGISTRY,
    SCHEDULE_REGISTRY,
    SGD,
    Adam,
    AdamW,
    ConstantSchedule,
    CosineDecay,
    ExponentialDecay,
    RMSprop,
    StepDecay,
    WarmupSchedule,
    build_optimizer,
    build_schedule,
)
from repro.nn.tensor import Tensor
from repro.registry import UnknownComponentError


class TestSchedules:
    def test_constant_schedule(self):
        schedule = ConstantSchedule(0.1)
        assert schedule(0) == schedule(100) == 0.1

    def test_constant_schedule_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantSchedule(0.0)

    def test_exponential_decay_decreases(self):
        schedule = ExponentialDecay(0.1, decay_rate=0.9, decay_steps=10)
        values = [schedule(step) for step in (0, 10, 20, 100)]
        assert values[0] == pytest.approx(0.1)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_exponential_decay_validation(self):
        with pytest.raises(ValueError):
            ExponentialDecay(0.1, decay_rate=1.5)
        with pytest.raises(ValueError):
            ExponentialDecay(0.1, decay_steps=0)

    def test_exponential_decay_is_continuous_at_boundaries(self):
        """The exponent is step/decay_steps, not floored: no jumps at 100."""
        schedule = ExponentialDecay(0.1, decay_rate=0.9, decay_steps=100)
        deltas = [schedule(step) - schedule(step + 1) for step in range(98, 103)]
        assert all(delta > 0 for delta in deltas)
        # A floored exponent would make the drop at the boundary ~100x the
        # within-interval drop; the continuous form keeps them comparable.
        assert max(deltas) < 2 * min(deltas)

    def test_step_decay_piecewise_constant(self):
        schedule = StepDecay(0.1, drop_rate=0.5, step_size=10)
        assert schedule(0) == schedule(9) == 0.1
        assert schedule(10) == schedule(19) == pytest.approx(0.05)
        assert schedule(20) == pytest.approx(0.025)

    def test_step_decay_validation(self):
        with pytest.raises(ValueError):
            StepDecay(0.1, drop_rate=0.0)
        with pytest.raises(ValueError):
            StepDecay(0.1, step_size=0)

    def test_cosine_endpoints_are_exact(self):
        schedule = CosineDecay(0.1, total_steps=100, min_lr=0.01)
        assert schedule(0) == 0.1  # exactly lr at step 0
        assert schedule(100) == 0.01  # exactly min_lr at total_steps
        assert schedule(500) == 0.01  # clamped beyond the horizon
        assert schedule(50) == pytest.approx(0.055)  # midpoint: the mean

    def test_cosine_monotone_decreasing(self):
        schedule = CosineDecay(0.1, total_steps=50)
        values = [schedule(step) for step in range(51)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_cosine_validation(self):
        with pytest.raises(ValueError):
            CosineDecay(0.1, total_steps=0)
        with pytest.raises(ValueError):
            CosineDecay(0.1, min_lr=0.2)

    def test_warmup_ramps_then_hands_off_exactly(self):
        wrapped = ExponentialDecay(0.1, decay_rate=0.9, decay_steps=10)
        schedule = WarmupSchedule(wrapped, warmup_steps=4)
        # Linear ramp over the wrapped value during warmup ...
        assert schedule(0) == wrapped(0) * 1 / 4
        assert schedule(1) == wrapped(1) * 2 / 4
        assert schedule(3) == wrapped(3)  # ramp reaches 1.0 on the last step
        # ... and bitwise equality with the wrapped schedule afterwards.
        for step in (4, 5, 17, 100):
            assert schedule(step) == wrapped(step)

    def test_warmup_accepts_plain_learning_rate(self):
        schedule = WarmupSchedule(0.1, warmup_steps=2)
        assert schedule(0) == pytest.approx(0.05)
        assert schedule(5) == 0.1

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            WarmupSchedule(ConstantSchedule(0.1), warmup_steps=0)


def quadratic_loss(param: Tensor) -> Tensor:
    target = np.array([3.0, -2.0])
    diff = param - target
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = SGD([param], lr=0.1)
        for _ in range(200):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-3)

    def test_momentum_accepted(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = SGD([param], lr=0.01, momentum=0.9)
        for _ in range(300):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_invalid_momentum(self):
        with pytest.raises(ValueError):
            SGD([Tensor([0.0], requires_grad=True)], momentum=1.5)

    def test_skips_parameters_without_grad(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = SGD([param], lr=0.1)
        optimizer.step()
        np.testing.assert_allclose(param.data, np.zeros(2))


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = Adam([param], lr=0.1)
        for _ in range(400):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(200, 3))
        true_weights = np.array([[1.0], [-2.0], [0.5]])
        targets = features @ true_weights
        layer = Linear(3, 1, rng=rng)
        optimizer = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            prediction = layer(features)
            diff = prediction - targets
            loss = (diff * diff).mean()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(layer.weight.data, true_weights, atol=0.05)

    def test_weight_decay_shrinks_parameters(self):
        param = Tensor(np.array([10.0]), requires_grad=True)
        optimizer = Adam([param], lr=0.1, weight_decay=1.0)
        for _ in range(50):
            loss = (param * 0.0).sum()
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        assert abs(param.data[0]) < 10.0

    def test_schedule_integration(self):
        param = Tensor(np.zeros(1), requires_grad=True)
        optimizer = Adam([param], schedule=ExponentialDecay(0.1, 0.5, 1))
        assert optimizer.current_lr == pytest.approx(0.1)
        loss = quadratic_loss(Tensor(np.zeros(2), requires_grad=True))
        optimizer.step_count = 2
        assert optimizer.current_lr == pytest.approx(0.025)

    def test_invalid_betas(self):
        with pytest.raises(ValueError):
            Adam([Tensor([0.0], requires_grad=True)], betas=(1.0, 0.999))

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            Adam([])

    def test_weight_decay_matches_allocating_reference_bitwise(self):
        """The in-place decay scratch sequence reproduces the historical
        allocating expression ``grad + weight_decay * param`` bit for bit."""
        rng = np.random.default_rng(7)
        values = rng.normal(size=12)
        grads = [rng.normal(size=12) for _ in range(8)]
        wd = 3e-2

        param = Tensor(values.copy(), requires_grad=True)
        optimizer = Adam([param], lr=0.05, weight_decay=wd)
        for grad in grads:
            param.grad = grad.copy()
            optimizer.step()

        # Reference: textbook allocating Adam with coupled L2 decay.
        ref = values.copy()
        m = np.zeros_like(ref)
        v = np.zeros_like(ref)
        for t, grad in enumerate(grads, start=1):
            g = grad + wd * ref
            m = m * 0.9 + g * (1 - 0.9)
            v = v * 0.999 + (g * (1 - 0.999)) * g
            update = (m / (1 - 0.9 ** t)) * 0.05
            denom = np.sqrt(v / (1 - 0.999 ** t)) + 1e-8
            ref = ref - update / denom
        np.testing.assert_array_equal(param.data, ref)


class TestAdamW:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = AdamW([param], lr=0.1, weight_decay=1e-3)
        for _ in range(400):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=2e-2)

    def test_decay_is_decoupled_and_exact(self):
        """With zero gradients the update is exactly ``param *= 1 - lr*wd``
        per step — the decay never enters the moment estimates."""
        param = Tensor(np.array([10.0, -4.0]), requires_grad=True)
        optimizer = AdamW([param], lr=0.1, weight_decay=0.5)
        expected = np.array([10.0, -4.0])
        for _ in range(5):
            param.grad = np.zeros(2)
            optimizer.step()
            expected = expected * (1.0 - 0.1 * 0.5)
        np.testing.assert_array_equal(param.data, expected)
        # Coupled Adam with the same settings decays differently (through
        # the adaptive denominator), so the two must not coincide.
        coupled = Tensor(np.array([10.0, -4.0]), requires_grad=True)
        coupled_optimizer = Adam([coupled], lr=0.1, weight_decay=0.5)
        for _ in range(5):
            coupled.grad = np.zeros(2)
            coupled_optimizer.step()
        assert not np.array_equal(coupled.data, param.data)


class TestRMSprop:
    def test_converges_on_quadratic(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = RMSprop([param], lr=0.05)
        for _ in range(500):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_momentum_converges(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = RMSprop([param], lr=0.02, momentum=0.9)
        for _ in range(500):
            loss = quadratic_loss(param)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3.0, -2.0], atol=1e-2)

    def test_validation(self):
        param = Tensor([0.0], requires_grad=True)
        with pytest.raises(ValueError):
            RMSprop([param], alpha=1.0)
        with pytest.raises(ValueError):
            RMSprop([param], momentum=-0.1)
        with pytest.raises(ValueError):
            RMSprop([param], weight_decay=-1.0)


class TestSlotKeyedState:
    """Optimizer state must follow the parameter object, never its id()."""

    def test_freed_tensor_ids_are_recycled(self):
        """CPython reuses object addresses — the collision the historical
        ``id(param)``-keyed state dicts were vulnerable to."""
        probe = Tensor(np.zeros(3), requires_grad=True)
        freed = id(probe)
        del probe
        reused = any(
            id(Tensor(np.zeros(3), requires_grad=True)) == freed for _ in range(100)
        )
        if not reused:  # pragma: no cover - allocator-dependent
            pytest.skip("allocator did not recycle ids on this platform")

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: SGD([p], lr=0.1, momentum=0.9),
            lambda p: Adam([p], lr=0.1),
            lambda p: RMSprop([p], lr=0.1, momentum=0.9),
        ],
        ids=["sgd-momentum", "adam", "rmsprop-momentum"],
    )
    def test_replaced_parameter_gets_fresh_state(self, make):
        """A new tensor occupying an old parameter's slot (and possibly its
        recycled id) must start from zeroed moments, not inherit stale ones."""
        original = Tensor(np.zeros(4), requires_grad=True)
        optimizer = make(original)
        for _ in range(3):  # accumulate non-trivial moments
            original.grad = np.ones(4)
            optimizer.step()

        replacement = Tensor(np.zeros(4), requires_grad=True)
        optimizer.parameters[0] = replacement
        replacement.grad = np.ones(4)
        optimizer.step()

        fresh = Tensor(np.zeros(4), requires_grad=True)
        fresh_optimizer = make(fresh)
        # Align the step counter: bias corrections depend on it, and only
        # the per-parameter *state* must have been reset, not the clock.
        fresh_optimizer.step_count = optimizer.step_count - 1
        fresh.grad = np.ones(4)
        fresh_optimizer.step()
        np.testing.assert_array_equal(replacement.data, fresh.data)


class _RecordingSchedule:
    """Constant schedule that records the step index of every evaluation."""

    def __init__(self, lr: float) -> None:
        self.lr = lr
        self.calls: list = []

    def __call__(self, step: int) -> float:
        self.calls.append(step)
        return self.lr


_ALL_OPTIMIZERS = [
    ("adam", lambda p, s: Adam([p], schedule=s)),
    ("adamw", lambda p, s: AdamW([p], schedule=s, weight_decay=1e-2)),
    ("rmsprop", lambda p, s: RMSprop([p], schedule=s)),
    ("sgd", lambda p, s: SGD([p], schedule=s)),
    ("sgd-momentum", lambda p, s: SGD([p], schedule=s, momentum=0.9)),
]


class TestScheduleSymmetry:
    """Every optimiser sees schedule(0), schedule(1), ... — no off-by-one."""

    @pytest.mark.parametrize("make", [m for _, m in _ALL_OPTIMIZERS], ids=[n for n, _ in _ALL_OPTIMIZERS])
    def test_schedule_evaluated_at_pre_increment_step(self, make):
        schedule = _RecordingSchedule(0.01)
        param = Tensor(np.zeros(3), requires_grad=True)
        optimizer = make(param, schedule)
        for _ in range(5):
            param.grad = np.ones(3)
            optimizer.step()
        assert schedule.calls == [0, 1, 2, 3, 4]

    def test_swapping_optimizers_yields_identical_lr_sequence(self):
        """Under one ExponentialDecay, SGD and Adam consume the exact same
        learning-rate sequence (the documented schedule contract)."""
        sequences = {}
        for name, make in _ALL_OPTIMIZERS:
            schedule = _RecordingSchedule(0.01)
            param = Tensor(np.zeros(3), requires_grad=True)
            optimizer = make(param, schedule)
            for _ in range(4):
                param.grad = np.ones(3)
                optimizer.step()
            sequences[name] = list(schedule.calls)
        reference = sequences["adam"]
        decay = ExponentialDecay(0.1, decay_rate=0.9, decay_steps=2)
        expected_lrs = [decay(step) for step in reference]
        for name, calls in sequences.items():
            assert calls == reference, name
            assert [decay(step) for step in calls] == expected_lrs, name


class TestZeroAllocationSteps:
    """tracemalloc-level regression: steps allocate no numpy arrays.

    ``tensor_alloc_count`` (used by the tape tests) counts Tensor objects
    only; this guards the *array* level, where the historical Adam
    ``weight_decay`` path allocated ``grad + wd * param`` every step.
    """

    _MAKERS = pytest.mark.parametrize(
        "make",
        [
            lambda ps: Adam(ps, lr=1e-3),
            lambda ps: Adam(ps, lr=1e-3, weight_decay=1e-2),
            lambda ps: AdamW(ps, lr=1e-3, weight_decay=1e-2),
            lambda ps: RMSprop(ps, lr=1e-3, momentum=0.9, weight_decay=1e-2),
            lambda ps: SGD(ps, lr=1e-3, momentum=0.9),
        ],
        ids=["adam", "adam-weight-decay", "adamw", "rmsprop", "sgd-momentum"],
    )

    @staticmethod
    def _peak_growth(optimizer) -> int:
        optimizer.step()  # lazily creates state/scratch before tracing
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            baseline = tracemalloc.get_traced_memory()[0]
            for _ in range(3):
                optimizer.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - baseline

    @_MAKERS
    def test_steps_allocate_no_arrays(self, make):
        param = Tensor(np.zeros(50_000), requires_grad=True)
        param.grad = np.full(50_000, 0.25)
        growth = self._peak_growth(make([param]))
        # One 50k-float64 temporary would show up as ~400 KB of peak growth;
        # the in-place sequences stay under bookkeeping noise.
        assert growth < 50_000, f"step allocated {growth} bytes"

    @_MAKERS
    def test_gathered_runs_allocate_no_arrays(self, make):
        """A CFR-shaped list steps as gathered runs; a temporary of one run
        (10802 float64, ~86 KB) would exceed the bound."""
        params = [Tensor(np.zeros(shape), requires_grad=True) for shape in _CFR_SHAPES]
        for param in params:
            param.grad = np.full(param.data.shape, 0.25)
        growth = self._peak_growth(make(params))
        assert growth < 50_000, f"step allocated {growth} bytes"


#: CFR at 48 representation / 24 head units: the 22 parameters a grid
#: cell's fit steps, in ``Module.parameters()`` order.
_CFR_SHAPES = [
    (26, 48), (48,), (48, 48), (48,), (48, 48), (48,),
    (48, 24), (24,), (24, 24), (24,), (24, 24), (24,), (24, 1), (1,),
    (48, 24), (24,), (24, 24), (24,), (24, 24), (24,), (24, 1), (1,),
]

#: Every registered optimizer, with and without momentum or decay.
_FLAT_CASES = {
    "adam": lambda ps: Adam(ps, lr=1e-2),
    "adam-weight-decay": lambda ps: Adam(ps, lr=1e-2, weight_decay=1e-2),
    "adamw": lambda ps: AdamW(ps, lr=1e-2, weight_decay=1e-2),
    "adamw-no-decay": lambda ps: AdamW(ps, lr=1e-2, weight_decay=0.0),
    "rmsprop": lambda ps: RMSprop(ps, lr=1e-2),
    "rmsprop-momentum-decay": lambda ps: RMSprop(ps, lr=1e-2, momentum=0.9, weight_decay=1e-2),
    "sgd": lambda ps: SGD(ps, lr=1e-2),
    "sgd-momentum": lambda ps: SGD(ps, lr=1e-2, momentum=0.9),
}


def _per_slot_step(optimizer, slots) -> None:
    """The per-parameter step the flat step replaced: one ``_update`` per
    parameter with a gradient, on buffers of its own, created zeroed on its
    first step and again whenever a new tensor takes its slot."""
    lr = optimizer.schedule(optimizer.step_count)
    t = optimizer.step_count + 1
    for index, param in enumerate(optimizer.parameters):
        if param.grad is None:
            continue
        entry = slots.get(index)
        if entry is None or entry[0] is not param:
            buffers = {name: np.zeros_like(param.data) for name in optimizer.state_names}
            buffers.update((name, np.empty_like(param.data)) for name in optimizer.scratch_names)
            entry = slots[index] = (param, buffers)
        optimizer._update(param, param.grad, lr, t, entry[1])
    optimizer.step_count += 1


class _FlatAndReference:
    """One optimizer stepping flat and one stepping per slot, on equal copies."""

    def __init__(self, make, shapes, seed=11):
        self.rng = np.random.default_rng(seed)
        values = [self.rng.normal(size=shape) for shape in shapes]
        self.flat = make([Tensor(v.copy(), requires_grad=True) for v in values])
        self.reference = make([Tensor(v.copy(), requires_grad=True) for v in values])
        self.slots = {}

    def replace(self, index, shape):
        values = self.rng.normal(size=shape)
        for optimizer in (self.flat, self.reference):
            optimizer.parameters[index] = Tensor(values.copy(), requires_grad=True)

    def step(self, missing=(), float32=()):
        for index, (a, b) in enumerate(zip(self.flat.parameters, self.reference.parameters)):
            grad = self.rng.normal(size=a.data.shape)
            if index in float32:
                grad = grad.astype(np.float32)
            a.grad = None if index in missing else grad.copy()
            b.grad = None if index in missing else grad.copy()
        self.flat.step()
        _per_slot_step(self.reference, self.slots)
        for a, b in zip(self.flat.parameters, self.reference.parameters):
            np.testing.assert_array_equal(a.data.view(np.uint64), b.data.view(np.uint64))


class TestFlatStep:
    """The flat, per-run step equals one ``_update`` per parameter, bit for bit."""

    def test_cases_cover_every_registered_optimizer(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        covered = {type(make([param])) for make in _FLAT_CASES.values()}
        assert covered == {OPTIMIZER_REGISTRY.get(name) for name in OPTIMIZER_REGISTRY.names()}

    @pytest.mark.parametrize("name", sorted(_FLAT_CASES))
    def test_equals_per_slot_reference_with_missing_grads(self, name):
        pair = _FlatAndReference(_FLAT_CASES[name], _CFR_SHAPES)
        for missing in [(), (3, 4, 10), (0, 21), (), (1, 3, 5, 7, 9, 11, 13), ()]:
            pair.step(missing)

    @pytest.mark.parametrize("name", sorted(_FLAT_CASES))
    def test_replaced_parameters_restart_from_zero_state(self, name):
        pair = _FlatAndReference(_FLAT_CASES[name], _CFR_SHAPES)
        for _ in range(3):
            pair.step()
        pair.replace(5, (48,))  # same shape: its state is zeroed in place
        pair.step()
        pair.replace(8, (30, 24))  # another shape: every slot is laid out again
        for missing in [(), (7,), ()]:
            pair.step(missing)

    @pytest.mark.parametrize("name", sorted(_FLAT_CASES))
    def test_lone_parameters_update_in_place(self, name):
        """A parameter past the run size, and one whose gradient has another
        dtype, step alone between gathered runs."""
        shapes = _CFR_SHAPES[:6] + [(130, 130)] + _CFR_SHAPES[6:]
        pair = _FlatAndReference(_FLAT_CASES[name], shapes)
        for _ in range(3):
            pair.step(float32=(12,))


class TestParameterChecks:
    @pytest.mark.parametrize("name", ["adam", "adamw", "rmsprop", "sgd"])
    def test_one_tensor_twice_is_rejected(self, name):
        """At the parent this stepped the tensor twice, with two moment sets."""
        p, q, r = (Tensor(np.ones(2), requires_grad=True) for _ in range(3))
        with pytest.raises(ValueError, match="positions 1 and 3"):
            OPTIMIZER_REGISTRY.get(name)([q, p, r, p], lr=0.1)

    @pytest.mark.parametrize("cls", [Adam, AdamW, RMSprop])
    def test_negative_or_non_finite_eps_is_rejected(self, cls):
        """A negative eps can make the denominator negative: an uphill step."""
        for eps in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps"):
                cls([Tensor(np.ones(1), requires_grad=True)], lr=0.1, eps=eps)
        param = Tensor(np.ones(1), requires_grad=True)
        optimizer = cls([param], lr=0.1, eps=0.0)
        param.grad = np.array([0.5])
        optimizer.step()
        assert param.data[0] < 1.0

    @pytest.mark.parametrize("cls", [Adam, AdamW, RMSprop])
    def test_non_finite_weight_decay_is_rejected(self, cls):
        """A NaN decay used to pass and act as no decay at all."""
        for weight_decay in (float("nan"), float("inf"), -1.0):
            with pytest.raises(ValueError, match="weight_decay"):
                cls([Tensor(np.ones(1), requires_grad=True)], lr=0.1, weight_decay=weight_decay)

    @pytest.mark.parametrize("name", ["constant", "exponential", "step", "cosine"])
    def test_non_finite_learning_rate_is_rejected(self, name):
        """``lr_schedule_params`` may override the config's checked rate."""
        for learning_rate in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="learning rate"):
                build_schedule(name, 1e-3, {"learning_rate": learning_rate})
        with pytest.raises(ValueError, match="learning rate"):
            SGD([Tensor(np.ones(1), requires_grad=True)], lr=float("nan"))


class TestRegistries:
    def test_all_optimizers_registered(self):
        for name in ("adam", "adamw", "rmsprop", "sgd"):
            assert name in OPTIMIZER_REGISTRY
        assert OPTIMIZER_REGISTRY.get("momentum") is SGD  # alias

    def test_all_schedules_registered(self):
        for name in ("constant", "exponential", "step", "cosine"):
            assert name in SCHEDULE_REGISTRY
        assert SCHEDULE_REGISTRY.get("cosine-annealing") is CosineDecay

    def test_unknown_optimizer_suggests_near_miss(self):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            OPTIMIZER_REGISTRY.get("adamm")

    def test_unknown_schedule_suggests_near_miss(self):
        with pytest.raises(UnknownComponentError, match="did you mean"):
            SCHEDULE_REGISTRY.get("cosin")

    def test_build_schedule_with_warmup(self):
        schedule = build_schedule(
            "cosine", 0.1, {"total_steps": 10}, warmup_steps=2
        )
        assert isinstance(schedule, WarmupSchedule)
        assert isinstance(schedule.schedule, CosineDecay)
        assert schedule(0) == pytest.approx(0.05)
        assert schedule(10) == 0.0

    def test_build_optimizer_forwards_params(self):
        param = Tensor(np.zeros(2), requires_grad=True)
        optimizer = build_optimizer(
            "sgd", [param], ConstantSchedule(0.1), {"momentum": 0.9}
        )
        assert isinstance(optimizer, SGD)
        assert optimizer.momentum == 0.9
