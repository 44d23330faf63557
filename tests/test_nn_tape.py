"""Graph-replay (tape-reuse) engine tests.

Covers the contract of ``TrainingConfig.graph_replay``:

* replayed training is *bit-identical* to eager training on the seed-11
  golden protocol, and a minibatch fit builds no replay engine;
* the tape invalidates (re-records) on shape, dtype and config changes and
  survives parameter-buffer replacement via re-recording;
* unsupported ops abort recording and fall back to eager, once, loudly;
* ``retain_graph`` / double-``backward()`` inside a recorded step raise
  :class:`GraphReplayError` naming ``graph_replay``;
* the in-place optimisers allocate zero tensors per step and keep parameter
  buffer identity (the property replay pins);
* the fused regularizer kernels (the batched HSIC pair node, also on
  constant features with or without a workspace lent by a turn, matrix
  ``rff_features``, ``weighted_rbf_mmd`` with constant or differentiable
  weights or representations, also at a tile of 4 rows), ELU,
  one-sided ``clip`` and the elementwise ops and losses whose VJPs compute
  same-shape gradients into ctx buffers give eager == replay, bit for bit;
* a program runs its VJPs in the order the recorded eager backward ran
  them, also on a graph with fan-in; it reads the trainer's live
  sample-weight array, records again when that array is replaced, and
  never bakes a copy of it (an array in another dtype steps eagerly); and
  every path of the network step makes exactly one optimizer step;
* replay skips instructions the loss does not read (DeR-CFR's propensity);
* a fitted trainer is freed by reference counting (no trainer <-> replay
  cycle), a finished fit keeps no program (deep copies copy none), and a
  fitted estimator still deep-copies and refits;
* planned runs (the second onward) equal eager, also with every dead arena
  range, the workspace and the whole pool at each change of tenant
  poisoned with NaN; a warm run's VJPs return no gradient outside planned
  memory, and a warm CFR run over normalised representations allocates
  no array in ``_unbroadcast`` or the ``normalize_rows`` VJP; and a
  program's gradient arena holds at most 0.18x the bytes of its buffers
  laid end to end.
"""

from __future__ import annotations

import copy
import gc
import inspect
import logging
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.loop import Callback
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.nn import functional as F
from repro.nn import kernels, tape, tensor
from repro.nn.kernels import KERNELS, Kernel
from repro.nn.optim import SGD, Adam, AdamW, RMSprop
from repro.nn.tape import GraphReplayError, ReplayProgram, TapeRecorder
from repro.nn.tensor import Tensor, tensor_alloc_count


def _config(batch_size=None, iterations=12, graph_replay="auto", **overrides):
    training = dict(
        iterations=iterations,
        learning_rate=1e-2,
        weight_update_every=5,
        weight_steps_per_iteration=1,
        evaluation_interval=5,
        early_stopping_patience=None,
        seed=0,
        batch_size=batch_size,
        graph_replay=graph_replay,
    )
    training.update(overrides)
    return SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=12, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(
            alpha=1e-2,
            gamma1=1.0,
            gamma2=1e-2,
            gamma3=1e-2,
            max_pairs_per_layer=6,
            subsample_threshold=64,
            num_anchors=32,
        ),
        training=TrainingConfig(**training),
    )


@pytest.fixture(scope="module")
def protocol():
    generator = SyntheticGenerator(
        SyntheticConfig(
            num_instruments=4, num_confounders=4, num_adjustments=4, num_unstable=2, seed=11
        )
    )
    return generator.generate_train_test_protocol(
        num_samples=240, train_rho=2.5, test_rhos=(2.5, -2.5), seed=11
    )


def _fit(protocol, config, backbone="cfr", framework="sbrl-hap", seed=11):
    estimator = HTEEstimator(backbone=backbone, framework=framework, config=config, seed=seed)
    estimator.fit(protocol["train"])
    return estimator


class TestReplayBitIdentity:
    @pytest.mark.parametrize("batch_size", [None, 64], ids=["full-batch", "minibatch"])
    def test_replay_equals_eager_on_golden_protocol(self, protocol, batch_size):
        """graph_replay='auto' and 'off' give byte-identical end metrics."""
        replayed = _fit(protocol, _config(batch_size, graph_replay="auto"))
        eager = _fit(protocol, _config(batch_size, graph_replay="off"))
        assert eager.trainer._replay is None
        if batch_size is None:
            stats = replayed.trainer._replay.stats
            assert stats["hits"] > 0, stats
        for rho, dataset in protocol["test_environments"].items():
            assert replayed.evaluate(dataset) == eager.evaluate(dataset), f"rho={rho}"
        history_replayed = replayed.training_history().as_dict()
        history_eager = eager.training_history().as_dict()
        assert history_replayed["network_loss"] == history_eager["network_loss"]
        assert history_replayed["validation_loss"] == history_eager["validation_loss"]

    def test_minibatch_fit_builds_no_replay_engine(self, protocol):
        """A minibatch loader hands every step fresh arrays, so no program
        could be reused: graph_replay='auto' runs those steps eagerly."""
        estimator = _fit(protocol, _config(batch_size=64))
        assert estimator.trainer._replay is None
        assert estimator.trainer.last_step_stats == {"replay_hit": False, "graph_nodes": None}

    def test_iteration_records_surface_replay_state(self, protocol):
        """Callbacks see replay_hit / graph_nodes / tensor_allocs per iteration."""
        records = []

        class Collect(Callback):
            def on_iteration_end(self, loop, record):
                records.append(record)

        estimator = HTEEstimator(
            backbone="tarnet", framework="vanilla", config=_config(), seed=11
        )
        estimator.build_trainer(protocol["train"]).fit(
            protocol["train"], callbacks=[Collect()]
        )
        assert records[0].replay_hit is False  # the recording step
        replayed = [record for record in records if record.replay_hit]
        assert replayed, "no replayed iterations in a full-batch fit"
        for record in replayed:
            assert isinstance(record.graph_nodes, int) and record.graph_nodes > 0
            # Replayed vanilla full-batch iterations build no graph at all.
            assert record.tensor_allocs == 0


def _record(build, arrays):
    """Record ``build(*leaves)`` and its backward; returns (program, leaves)."""
    leaves = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    with TapeRecorder() as recorder:
        loss = build(*leaves)
        loss.backward()
    program = recorder.finalize(loss)
    assert program is not None, recorder.aborted
    return program, leaves


def _eager(build, arrays):
    leaves = [Tensor(array.copy(), requires_grad=True) for array in arrays]
    loss = build(*leaves)
    loss.backward()
    return loss.item(), [leaf.grad for leaf in leaves]


def _fused_kernel_cases():
    rng = np.random.default_rng(7)
    n, m, cols, k = 9, 7, 4, 3
    freqs, phases = rng.normal(size=(cols, k)), rng.uniform(0.0, 6.0, size=(cols, k))
    left, right = np.array([0, 0, 2, 1]), np.array([1, 3, 3, 3])
    projection = rng.normal(size=(cols, k, n))
    features = rng.normal(size=(cols, k, n))
    workspace = kernels.Workspace()
    w_n, w_m = rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(m))
    reps_n, reps_m = rng.normal(size=(n, cols)), rng.normal(size=(m, cols))
    weights_2d = rng.normal(size=(n, cols))

    def positive(size):
        return lambda r: np.abs(r.normal(size=size)) + 0.1

    return {
        "pair-node": (
            lambda f, p: F.weighted_pair_sq_cross_cov(f, p / p.sum(), left, right),
            [lambda r: r.normal(size=(cols, k, n)), positive(n)],
        ),
        # The weight step: constant features and weights-only products, with
        # the node's own blocks or with blocks one workspace lends every
        # eager call through a turn.
        "pair-node-constant-features": (
            lambda p: F.weighted_pair_sq_cross_cov(features, p / p.sum(), left, right),
            [positive(n)],
        ),
        "pair-node-lent-workspace": (
            lambda p: _in_turn(
                workspace, lambda: F.weighted_pair_sq_cross_cov(features, p / p.sum(), left, right)
            ),
            [positive(n)],
        ),
        "rff-matrix": (
            lambda v: (F.rff_features(v, freqs, phases) * projection).sum(),
            [lambda r: r.normal(size=(n, cols))],
        ),
        # The network step: differentiable representations, constant weights.
        "rbf-mmd-constant-weights": (
            lambda rc, rt: F.weighted_rbf_mmd(rc, rt, w_n, w_m, 1.3),
            [lambda r: r.normal(size=(n, cols)), lambda r: r.normal(size=(m, cols))],
        ),
        # ELU at alpha = 1 and alpha != 1 (the VJP's two slope forms).
        "elu": (
            lambda x: (x.elu() * weights_2d).sum(),
            [lambda r: r.normal(size=(n, cols))],
        ),
        "elu-alpha": (
            lambda x: (x.elu(1.3) * weights_2d).sum(),
            [lambda r: r.normal(size=(n, cols))],
        ),
        # One-sided clips: either bound may be None.
        "clip-high-only": (
            lambda x: (x.clip(None, 0.3) * weights_2d).sum(),
            [lambda r: r.normal(size=(n, cols))],
        ),
        "clip-low-only": (
            lambda x: (x.clip(-0.3, None) * weights_2d).sum(),
            [lambda r: r.normal(size=(n, cols))],
        ),
        "rbf-mmd-differentiable-weights": (
            lambda rc, rt, wc, wt: F.weighted_rbf_mmd(rc, rt, wc, wt, 1.3),
            [
                lambda r: r.normal(size=(n, cols)),
                lambda r: r.normal(size=(m, cols)),
                positive(n),
                positive(m),
            ],
        ),
        # The weight step: constant representations, differentiable weights.
        "rbf-mmd-constant-representations": (
            lambda wc, wt: F.weighted_rbf_mmd(reps_n, reps_m, wc, wt, 1.3),
            [positive(n), positive(m)],
        ),
        # Elementwise ops and losses whose VJPs compute same-shape gradients
        # into ctx buffers.
        "elementwise-gradients": (_elementwise_losses(rng, n, cols), [
            lambda r: r.normal(size=(n, cols)),
            lambda r: np.abs(r.normal(size=(n, cols))) + 0.5,
        ]),
    }


def _in_turn(workspace, build):
    with workspace.turn():
        return build()


def _elementwise_losses(rng, n, cols):
    """mul, neg, div, pow, clip, maximum and relu feeding every fused loss."""
    target = rng.normal(size=(n, cols))
    labels = (rng.uniform(size=(n, cols)) < 0.5).astype(float)
    weights = rng.uniform(0.5, 1.5, size=(n, cols))

    def build(x, y):
        h = (-(x * y) / (y * y + 1.0)) ** 2
        h = h.clip(-0.8, 0.8).maximum(x * 0.1).relu() + x
        return (
            F.mse_loss(h, y)
            + F.weighted_mse_loss(h, target, weights)
            + F.bce_with_logits(h, labels, weights)
            + F.binary_cross_entropy(F.sigmoid(h), labels)
        )

    return build


def _assert_replay_and_stacked_equal_eager(case):
    """Replay after an in-place parameter update equals eager at the new values.

    The first run plans the program's memory, so a second run at a fourth
    draw checks a planned run.  The name is kept from when the helper also
    checked a stacked program.
    """
    build, makers = _fused_kernel_cases()[case]
    rng = np.random.default_rng(3)
    # The middle draw only advances the stream, so every case keeps the
    # values it has always been checked at.
    recorded, _, refreshed, planned = ([make(rng) for make in makers] for _ in range(4))
    program, leaves = _record(build, recorded)
    for values in (refreshed, planned):
        for leaf, leaf_values in zip(leaves, values):
            leaf.data[...] = leaf_values
        value = program.run()
        eager_value, eager_grads = _eager(build, values)
        assert value == eager_value
        for leaf, grad in zip(leaves, eager_grads):
            np.testing.assert_array_equal(leaf.grad, grad)


class TestFusedKernelReplay:
    @pytest.mark.parametrize("case", sorted(_fused_kernel_cases()))
    def test_replay_and_stacked_equal_eager(self, case):
        _assert_replay_and_stacked_equal_eager(case)

    @pytest.mark.parametrize("case", [c for c in sorted(_fused_kernel_cases()) if "rbf-mmd" in c])
    def test_rbf_mmd_at_a_small_tile(self, case, monkeypatch):
        """Many tiles per sweep, arm boundaries inside tiles, ragged last tiles."""
        monkeypatch.setattr(kernels, "RBF_MMD_TILE", 4)
        _assert_replay_and_stacked_equal_eager(case)


class TestInvalidation:
    def _step_arrays(self, protocol):
        train_std = protocol["train"].standardize()[0]
        return train_std.covariates, train_std.treatment, train_std.outcome

    def test_shape_change_re_records(self, protocol):
        estimator = _fit(protocol, _config(), backbone="tarnet", framework="vanilla")
        trainer = estimator.trainer
        covariates, treatment, outcome = self._step_arrays(protocol)
        trainer._network_step(covariates, treatment, outcome, None)
        records = trainer._replay.stats["records"]
        trainer._network_step(covariates, treatment, outcome, None)
        assert trainer._replay.stats["records"] == records  # hit
        trainer._network_step(covariates[:100], treatment[:100], outcome[:100], None)
        assert trainer._replay.stats["records"] == records + 1

    def test_dtype_change_re_records(self, protocol):
        estimator = _fit(protocol, _config(), backbone="tarnet", framework="vanilla")
        trainer = estimator.trainer
        covariates, treatment, outcome = self._step_arrays(protocol)
        trainer._network_step(covariates, treatment, outcome, None)
        records = trainer._replay.stats["records"]
        trainer._network_step(covariates.astype(np.float32), treatment, outcome, None)
        assert trainer._replay.stats["records"] == records + 1

    def test_config_change_re_records(self, protocol):
        estimator = _fit(protocol, _config())
        trainer = estimator.trainer
        covariates, treatment, outcome = self._step_arrays(protocol)
        trainer._network_step(covariates, treatment, outcome, None)
        records = trainer._replay.stats["records"]
        trainer._network_step(covariates, treatment, outcome, None)
        assert trainer._replay.stats["records"] == records
        trainer.config.regularizers.alpha *= 2.0  # enters the signature
        trainer._network_step(covariates, treatment, outcome, None)
        assert trainer._replay.stats["records"] == records + 1

    def test_parameter_buffer_replacement_invalidates(self, protocol):
        estimator = _fit(protocol, _config(), backbone="tarnet", framework="vanilla")
        trainer = estimator.trainer
        covariates, treatment, outcome = self._step_arrays(protocol)
        trainer._network_step(covariates, treatment, outcome, None)
        invalidations = trainer._replay.stats["invalidations"]
        # load_state_dict assigns fresh buffers: the pinned program is stale.
        trainer.backbone.load_state_dict(trainer.backbone.state_dict())
        trainer._network_step(covariates, treatment, outcome, None)
        assert trainer._replay.stats["invalidations"] == invalidations + 1
        # ... and the re-recorded program replays again.
        trainer._network_step(covariates, treatment, outcome, None)
        assert trainer.last_step_stats["replay_hit"] is True


def _dfs_order(program):
    """A depth-first topological order with ``Tensor.backward``'s pop-time
    visited marking, rebuilt from a program's instructions: the reference
    for the order the program takes from the recorded backward."""
    instr_by_out = {instr.out: instr for instr in program.instructions}
    visited, topo, stack = set(), [], [(program.root, False)]
    while stack:
        sid, processed = stack.pop()
        if processed:
            topo.append(sid)
            continue
        if sid in visited:
            continue
        visited.add(sid)
        stack.append((sid, True))
        instr = instr_by_out.get(sid)
        if instr is not None and program.slots[sid].requires_grad:
            stack.extend((parent, False) for parent in instr.parents if parent not in visited)
    return topo


class TestRecordedStep:
    """The program takes its backward order and the sample weights from the
    eager step it recorded, and the trainer makes each step's optimizer step."""

    def test_schedule_runs_the_vjps_in_the_order_the_eager_backward_ran_them(self, monkeypatch):
        ran = []
        for name in ("mul", "add", "exp", "tanh", "sum"):
            kernel = KERNELS[name]

            def vjp(grad, ins, out, attrs, ctx, needs, _vjp=kernel.vjp):
                ran.append(id(out))
                return _vjp(grad, ins, out, attrs, ctx, needs)

            monkeypatch.setitem(KERNELS, name, Kernel(name, kernel.fwd, vjp))
        x = Tensor(np.linspace(-1.0, 1.0, 6), requires_grad=True)
        with TapeRecorder() as recorder:
            # y, u and v fan out.  The last product is popped first and reaches
            # y before u does, where a sort that marks nodes when it pushes
            # them would order y's VJP before u's.
            y = x * 2.0
            u, v = y.exp(), y.tanh()
            loss = (u * v + v + y * u).sum()
            loss.backward()
        by_buffer = {id(slot.buffer): slot.index for slot in recorder.slots}
        eager = [by_buffer[key] for key in ran]
        program = recorder.finalize(loss)
        scheduled = [item.out for tag, item in program._schedule if tag == 1]
        assert len(eager) == 8 and scheduled == eager
        assert program.topo == _dfs_order(program)

    def _pair(self, protocol, **fit):
        """A fitted trainer, a deep copy of it that steps eagerly, and the
        full-batch arrays the fit ran on."""
        replayed = _fit(protocol, _config(iterations=6), **fit).trainer
        eager = copy.deepcopy(replayed)
        eager._replay = None
        train_std = protocol["train"].standardize()[0]
        return replayed, eager, (train_std.covariates, train_std.treatment, train_std.outcome)

    @pytest.mark.parametrize("dtype, fallbacks", [("float32", 0), ("float16", 1)])
    def test_weights_in_another_dtype_updated_in_place_give_the_eager_loss(
        self, protocol, dtype, fallbacks
    ):
        """In a float64 fit, a float32 weight array is a tensor's data as it
        is, so the program reads it in place; a float16 one reaches the loss
        through a float64 copy, which no replay may bake: the step runs
        eagerly."""
        replayed, eager, arrays = self._pair(protocol)
        losses = []
        for trainer in (replayed, eager):
            weights = trainer.sample_weights.tensor
            weights.data = weights.data.astype(dtype)
            first = trainer._network_step(*arrays)
            weights.data *= 1.5
            losses.append((first, trainer._network_step(*arrays)))
        assert losses[0] == losses[1]
        assert replayed._replay.stats["fallbacks"] == fallbacks

    def test_a_replaced_weight_array_records_again(self, protocol):
        replayed, eager, arrays = self._pair(protocol)

        def steps(trainer):
            losses = [trainer._network_step(*arrays) for _ in range(2)]
            weights = trainer.sample_weights.tensor
            weights.data = weights.data * 1.5
            return losses + [trainer._network_step(*arrays) for _ in range(2)]

        misses = replayed._replay.stats["misses"]
        assert steps(replayed) == steps(eager)
        # The first step records, and so does the first after the replacement.
        assert replayed._replay.stats["misses"] == misses + 2
        assert replayed.last_step_stats["replay_hit"] is True

    def test_every_path_makes_one_optimizer_step(self, protocol, monkeypatch):
        trainer, _, arrays = self._pair(protocol, backbone="tarnet", framework="vanilla")
        replay, optimizer = trainer._replay, trainer._optimizer
        step = optimizer.step
        steps = []
        monkeypatch.setattr(optimizer, "step", lambda: (steps.append(1), step()))

        def one_step(**stats):
            before = dict(replay.stats)
            del steps[:]
            trainer._network_step(*arrays)
            assert len(steps) == 1
            assert {key: replay.stats[key] - before[key] for key in stats} == stats

        one_step(records=1, misses=1)
        one_step(hits=1)
        with TapeRecorder():
            one_step(hits=0, misses=0)  # a recording already active
        trainer._replay = None
        one_step()
        trainer._replay = replay
        replay.release()
        monkeypatch.setattr(Tensor, "elu", _closure_elu)
        one_step(fallbacks=1, records=0)  # the recording aborts
        one_step(hits=0, misses=0)  # replay is off


class TestDeadInstructions:
    def test_dercfr_replay_skips_the_unread_propensity(self, protocol, monkeypatch):
        """DeR-CFR's propensity sigmoid feeds no loss: replay runs 2 of its 3 sigmoids."""
        kernel = KERNELS["sigmoid"]
        calls = []

        def fwd(*args):
            calls.append(args[0] is None)
            return kernel.fwd(*args)

        monkeypatch.setitem(KERNELS, "sigmoid", Kernel("sigmoid", fwd, kernel.vjp))
        estimator = _fit(protocol, _config(iterations=3), backbone="dercfr", framework="vanilla")
        trainer = estimator.trainer
        train_std = protocol["train"].standardize()[0]
        arrays = (train_std.covariates, train_std.treatment, train_std.outcome)
        trainer._network_step(*arrays, None)  # records these arrays
        del calls[:]
        trainer._network_step(*arrays, None)
        assert trainer.last_step_stats["replay_hit"] is True
        assert calls == [False, False]
        program = trainer._replay.program
        sigmoids = [instr for instr in program.instructions if instr.op == "sigmoid"]
        assert len(sigmoids) == 3
        assert [instr.folded for instr in sigmoids].count(True) == 1

    def test_dercfr_replay_equals_eager(self, protocol):
        replayed = _fit(protocol, _config(), backbone="dercfr", framework="vanilla")
        eager = _fit(protocol, _config(graph_replay="off"), backbone="dercfr", framework="vanilla")
        assert replayed.trainer._replay.stats["hits"] > 0
        for dataset in protocol["test_environments"].values():
            assert replayed.evaluate(dataset) == eager.evaluate(dataset)
        assert (
            replayed.training_history().as_dict()["network_loss"]
            == eager.training_history().as_dict()["network_loss"]
        )


class TestReplayLifetime:
    def test_fitted_trainer_is_freed_without_the_cyclic_collector(self, protocol):
        gc.collect()
        gc.disable()
        try:
            estimator = _fit(protocol, _config(iterations=6))
            assert estimator.trainer._replay.stats["hits"] > 0
            trainer = weakref.ref(estimator.trainer)
            del estimator
            assert trainer() is None, "the trainer outlived its estimator without gc.collect()"
        finally:
            gc.enable()

    @pytest.mark.parametrize("batch_size", [None, 64], ids=["full-batch", "minibatch-fallback"])
    def test_a_finished_fit_keeps_no_program_but_keeps_its_stats(self, protocol, batch_size):
        replay = _fit(protocol, _config(batch_size)).trainer._replay
        if batch_size is not None:
            assert replay is None  # a minibatch fit runs eagerly and records nothing
            return
        assert replay.stats["records"] > 0, replay.stats
        assert replay.stats["hits"] > 0, replay.stats
        assert replay.program is None

    def test_deepcopy_of_a_fitted_estimator_copies_no_program(self, protocol):
        estimator = _fit(protocol, _config(iterations=6))
        memo: dict = {}
        copy.deepcopy(estimator, memo)
        assert not any(isinstance(value, ReplayProgram) for value in memo.values())

    def test_deepcopy_of_a_fitted_estimator_refits(self, protocol):
        estimator = _fit(protocol, _config(iterations=6))
        dataset = protocol["test_environments"][2.5]
        before = estimator.evaluate(dataset)
        candidate = copy.deepcopy(estimator)
        assert candidate.trainer._replay is not estimator.trainer._replay
        assert candidate.evaluate(dataset) == before
        candidate.refit(protocol["train"], init="fitted", epochs=4)
        assert candidate.trainer._replay.stats["hits"] > 0
        assert estimator.evaluate(dataset) == before


class TestMemoryPlan:
    """Planned runs equal eager, also with every dead buffer filled with NaN."""

    @pytest.mark.parametrize("case", sorted(_fused_kernel_cases()))
    def test_fused_kernels_under_poison(self, case, monkeypatch):
        monkeypatch.setattr(kernels, "POISON_FREED", True)
        _assert_replay_and_stacked_equal_eager(case)

    @pytest.mark.parametrize("case", [c for c in sorted(_fused_kernel_cases()) if "rbf-mmd" in c])
    def test_rbf_mmd_at_a_small_tile_under_poison(self, case, monkeypatch):
        monkeypatch.setattr(kernels, "POISON_FREED", True)
        monkeypatch.setattr(kernels, "RBF_MMD_TILE", 4)
        _assert_replay_and_stacked_equal_eager(case)

    @pytest.mark.parametrize("backbone", ["cfr", "dercfr"])
    def test_sbrl_hap_fit_under_poison_equals_eager(self, protocol, backbone, monkeypatch):
        monkeypatch.setattr(kernels, "POISON_FREED", True)
        replayed = _fit(protocol, _config(), backbone=backbone)
        eager = _fit(protocol, _config(graph_replay="off"), backbone=backbone)
        assert replayed.trainer._replay.stats["hits"] > 1
        for dataset in protocol["test_environments"].values():
            assert replayed.evaluate(dataset) == eager.evaluate(dataset)
        history_replayed = replayed.training_history().as_dict()
        history_eager = eager.training_history().as_dict()
        for key in ("network_loss", "validation_loss"):
            assert history_replayed[key] == history_eager[key]

    def test_poison_fills_a_dead_gradient_and_the_workspace(self, monkeypatch):
        """The outer ELU's gradient dies at the inner ELU's VJP and is poisoned there."""
        monkeypatch.setattr(kernels, "POISON_FREED", True)
        rng = np.random.default_rng(5)
        weights = rng.normal(size=(6, 4))

        def build(x):
            return (x.elu().elu() * weights).sum()

        arrays = [rng.normal(size=(6, 4))]
        program, leaves = _record(build, arrays)
        for _ in range(2):
            value = program.run()
        assert program.arena is not None and program.arena.size > 0
        # A run's turn ends with no view of the pool: bind the pool's bytes
        # (without a claim, which would poison them all) to read what the
        # run left there.
        workspace = program.workspace
        program._bind(program.pool.buffer)
        workspace.bind(program.pool.buffer)
        outer = [instr for instr in program.instructions if instr.op == "elu"][1]
        assert np.isnan(outer.ctx["g"]).all()
        assert workspace._regions
        for (key, dtype), (_, size) in workspace._regions.items():
            assert np.isnan(workspace.take(key, (size,), dtype)).all()
        program._bind(None)
        workspace.bind(None)
        eager_value, [eager_grad] = _eager(build, arrays)
        assert value == eager_value
        np.testing.assert_array_equal(leaves[0].grad, eager_grad)

    def test_a_warm_run_takes_no_gradient_outside_planned_memory(self):
        """Every gradient a warm run's VJPs return lies in the arena, in a
        buffer a ctx keeps, or in the root seed: none is a fresh array."""
        build, makers = _fused_kernel_cases()["elementwise-gradients"]
        rng = np.random.default_rng(4)
        program, _ = _record(build, [make(rng) for make in makers])
        program.run()  # plans
        program.run()
        returned = []
        for instr in program.instructions:
            def spy(*args, _vjp=instr.vjp):
                grads = _vjp(*args)
                returned.extend(g for g in grads if g is not None)
                return grads

            instr.vjp = spy
        program.run()
        ops = {instr.op for instr in program.instructions}
        assert {"mul", "neg", "div", "pow", "clip", "maximum", "relu"} <= ops
        assert {"mse_loss", "weighted_mse_loss", "bce_with_logits", "bce"} <= ops
        kept = [program.arena, program._seed] + [
            value for instr in program.instructions for value in instr.ctx.values()
            if isinstance(value, np.ndarray)
        ]
        assert returned
        for grad in returned:
            assert any(np.may_share_memory(grad, memory) for memory in kept), grad.shape

    def test_a_warm_run_reduces_and_normalises_in_planned_memory(self, protocol, monkeypatch):
        """After planning, warm runs of a CFR program over normalised
        representations allocate nothing in ``_unbroadcast`` (every bias
        gradient goes through it) or in the ``normalize_rows`` VJP, and
        equal the eager step bitwise.

        Each call is followed by a tracemalloc snapshot of NumPy's array
        data, grouped by traceback, while its result is alive: a fresh
        array it returned shows there.  The eager step's fresh reductions
        show, so the spy sees what it looks for.
        """
        config = _config(iterations=6)
        config.backbone.rep_normalization = True
        replayed = _fit(protocol, config).trainer
        eager = copy.deepcopy(replayed)
        eager._replay = None
        train_std = protocol["train"].standardize()[0]
        arrays = (train_std.covariates, train_std.treatment, train_std.outcome)
        for _ in range(2):  # records, then plans
            replayed._network_step(*arrays)
            eager._network_step(*arrays)

        watched = []
        for function in (kernels._unbroadcast, KERNELS["normalize_rows"].vjp):
            lines, first = inspect.getsourcelines(function)
            watched.append((function.__code__.co_filename, first, first + len(lines)))
        array_data = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        found = []

        def spy(function):
            def call(*args, **kwargs):
                result = function(*args, **kwargs)
                if result is args[0]:
                    return result  # a gradient already of its parent's shape
                snapshot = tracemalloc.take_snapshot().filter_traces(array_data)
                for stat in snapshot.statistics("traceback"):
                    if any(
                        frame.filename == name and start <= frame.lineno < stop
                        for frame in stat.traceback
                        for name, start, stop in watched
                    ):
                        found.append(stat)
                return result

            return call

        normalize = KERNELS["normalize_rows"]
        monkeypatch.setattr(tape, "_unbroadcast", spy(kernels._unbroadcast))
        monkeypatch.setattr(tensor, "_unbroadcast", spy(kernels._unbroadcast))
        for instr in replayed._replay.program.instructions:
            if instr.op == "normalize_rows":
                instr.vjp = spy(instr.vjp)
        monkeypatch.setitem(
            KERNELS, "normalize_rows", Kernel("normalize_rows", normalize.fwd, spy(normalize.vjp))
        )
        tracemalloc.start(16)
        try:
            for _ in range(3):
                del found[:]
                tracemalloc.clear_traces()  # the eager gradients still alive
                loss = replayed._network_step(*arrays)
                assert replayed.last_step_stats["replay_hit"] is True
                assert found == [], [str(stat) for stat in found]
                assert eager._network_step(*arrays) == loss
                assert found, "the eager step's fresh reductions went unseen"
                for ours, theirs in zip(replayed.backbone.parameters(), eager.backbone.parameters()):
                    np.testing.assert_array_equal(ours.grad, theirs.grad)
                    np.testing.assert_array_equal(ours.data, theirs.data)
        finally:
            tracemalloc.stop()

    def test_planned_arena_holds_at_most_018_of_its_buffers_laid_end_to_end(self):
        """The gradient arena of an n = 400 CFR+SBRL-HAP program after 3 runs,
        against the bytes of the same buffers each at an offset of its own.

        Interval colouring packed the 56 buffers (880.75 KiB end to end) into
        150 KiB, 0.170 of it, when unplanned programs were removed; an arena
        that gave every buffer an offset of its own would read 1.0.
        """
        generator = SyntheticGenerator(SyntheticConfig(seed=3))
        train = generator.generate_train_test_protocol(num_samples=400, seed=3)["train"]
        train_std = train.standardize()[0]
        arrays = (train_std.covariates, train_std.treatment, train_std.outcome)
        config = SBRLConfig(
            backbone=BackboneConfig(rep_layers=3, rep_units=16, head_layers=3, head_units=8),
            regularizers=RegularizerConfig(
                ipm_kind="mmd_rbf", max_pairs_per_layer=6, subsample_threshold=None
            ),
            training=TrainingConfig(iterations=2, early_stopping_patience=None, seed=3),
        )
        estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=3)
        estimator.fit(train)
        trainer = estimator.trainer
        for _ in range(4):  # one recording, three runs
            trainer._network_step(*arrays, None)
        program = trainer._replay.program
        end_to_end = sum(
            kernels.aligned(math.prod(shape) * np.dtype(dtype).itemsize)
            for _, _, _, dtype, shape in program._placed
        )
        assert len(program._placed) > 1
        assert program.arena.nbytes <= 0.18 * end_to_end


def _closure_elu(self, alpha=1.0):
    """ELU built by ``Tensor._make``: a backward closure outside the kernel table."""
    positive = self.data > 0.0
    out_data = np.where(positive, self.data, alpha * (np.exp(np.minimum(self.data, 0.0)) - 1.0))

    def backward(grad):
        out._send(self, grad * np.where(positive, 1.0, out.data + alpha))

    out = Tensor._make(out_data, (self,), backward)
    return out


class TestEagerFallback:
    def test_unregistered_op_falls_back_with_one_warning(self, protocol, caplog, monkeypatch):
        """A closure-built op aborts recording; training stays eager."""
        monkeypatch.setattr(Tensor, "elu", _closure_elu)
        with caplog.at_level(logging.WARNING, logger="repro.core.replay"):
            fallback = _fit(protocol, _config(), backbone="tarnet", framework="vanilla")
        replay = fallback.trainer._replay
        assert replay.enabled is False
        assert replay.stats["fallbacks"] == 1
        assert replay.stats["hits"] == 0
        warnings = [r for r in caplog.records if "falling back to eager" in r.getMessage()]
        assert len(warnings) == 1
        assert "has no replay kernel" in warnings[0].getMessage()
        monkeypatch.undo()
        eager = _fit(
            protocol, _config(graph_replay="off"), backbone="tarnet", framework="vanilla"
        )
        for dataset in protocol["test_environments"].values():
            assert fallback.evaluate(dataset) == eager.evaluate(dataset)


class TestGraphReplayErrors:
    def test_retain_graph_raises_during_recording(self):
        with TapeRecorder():
            x = Tensor(np.ones(3), requires_grad=True)
            loss = (x * x).sum()
            with pytest.raises(GraphReplayError, match="graph_replay"):
                loss.backward(retain_graph=True)

    def test_double_backward_raises_during_recording(self):
        with TapeRecorder():
            x = Tensor(np.ones(3), requires_grad=True)
            loss = (x * x).sum()
            loss.backward()
            with pytest.raises(GraphReplayError, match="graph_replay"):
                loss.backward()

    def test_eager_semantics_unchanged_outside_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = (x * x).sum()
        loss.backward(retain_graph=True)
        loss.backward()  # legal eagerly: grads accumulate
        assert np.array_equal(x.grad, 4.0 * np.ones(3))


class TestInPlaceOptimizers:
    def _param(self):
        param = Tensor(np.ones(6), requires_grad=True)
        param.grad = np.full(6, 0.25)
        return param

    @pytest.mark.parametrize(
        "make",
        [
            lambda p: Adam([p], lr=1e-3),
            lambda p: Adam([p], lr=1e-3, weight_decay=1e-2),
            lambda p: AdamW([p], lr=1e-3, weight_decay=1e-2),
            lambda p: RMSprop([p], lr=1e-3),
            lambda p: RMSprop([p], lr=1e-3, momentum=0.9, weight_decay=1e-2),
            lambda p: SGD([p], lr=1e-3),
            lambda p: SGD([p], lr=1e-3, momentum=0.9),
        ],
        ids=[
            "adam",
            "adam-weight-decay",
            "adamw",
            "rmsprop",
            "rmsprop-momentum-decay",
            "sgd",
            "sgd-momentum",
        ],
    )
    def test_steps_allocate_no_tensors_and_keep_buffer_identity(self, make):
        param = self._param()
        buffer = param.data
        optimizer = make(param)
        optimizer.step()  # lazily creates the state/scratch buffers
        version = param._version
        before = tensor_alloc_count()
        for _ in range(5):
            optimizer.step()
        assert tensor_alloc_count() - before == 0
        assert param.data is buffer  # replay pins this identity
        assert param._version == version + 5  # compiled-inference cache key
