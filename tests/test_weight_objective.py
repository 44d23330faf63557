"""Equivalence of the sample-weight objective with its per-pair reference.

The weight objective ``L_w`` (Eq. 11) evaluates every decorrelated layer's
column pairs in one batched node and the RBF-MMD as one tiled
``weighted_rbf_mmd`` node, and :meth:`HierarchicalAttentionLoss.prepare`
hoists what depends only on the frozen activations out of the inner weight
steps.  This file keeps the previous formulation as the reference:

* the per-pair ``pairwise_decorrelation_loss`` loop over the single-pair
  ``weighted_sq_cross_cov`` node;
* the ``mmd_rbf_weighted`` composition of three RBF kernel blocks and
  the elementwise ``bilinear_weighted_sum`` node;
* the regularizers' per-call sequence of RNG draws.

Over three consecutive calls the value, the weight gradient and the
``last_breakdown`` terms must agree to a relative 1e-12, in full-batch,
minibatch and anchored runs, for both IPM kinds, ``mode="sbrl"`` and each
ablation switch.  All four RNG streams must end in the reference's state.
"""

from __future__ import annotations

import tracemalloc
from typing import Dict, List, Optional

import numpy as np
import pytest

from repro.core.backbones.base import BackboneForward
from repro.core.config import RegularizerConfig
from repro.core.regularizers import HierarchicalAttentionLoss
from repro.metrics.hsic import RandomFourierFeatures
from repro.metrics.ipm import mmd_linear_weighted
from repro.metrics.subsampling import subsample_indices
from repro.nn.kernels import Pool, Workspace
from repro.nn.tensor import Tensor, as_tensor

RTOL = 1e-12


# --------------------------------------------------------------------------- #
# Reference: the per-pair formulation, kept verbatim
# --------------------------------------------------------------------------- #
def reference_weighted_sq_cross_cov(u: Tensor, v: Tensor, probs: Tensor) -> Tensor:
    """The single-pair ``||C_w(u, v)||²`` node the batched pair node replaced."""
    u_t, v_t, p_t = as_tensor(u), as_tensor(v), as_tensor(probs)
    u_data, v_data, p_data = u_t.data, v_t.data, p_t.data
    mean_u = (p_data * u_data).sum(axis=0, keepdims=True)
    mean_v = (p_data * v_data).sum(axis=0, keepdims=True)
    u_centred = u_data - mean_u
    v_centred = v_data - mean_v
    weighted_u = p_data * u_centred
    cross_cov = weighted_u.T @ v_centred
    value = (cross_cov * cross_cov).sum()

    def backward(grad, ut=u_t, vt=v_t, pt=p_t, uc=u_centred, vc=v_centred, pu=weighted_u, cc=cross_cov):
        d_cc = (2.0 * grad) * cc
        d_pu = vc @ d_cc.T
        d_vc = pu @ d_cc
        p_data = pt.data
        d_uc = p_data * d_pu
        d_p = (d_pu * uc).sum(axis=1, keepdims=True)
        d_mean_u = -d_uc.sum(axis=0, keepdims=True)
        d_u = d_uc + p_data * d_mean_u
        d_p = d_p + (ut.data * d_mean_u).sum(axis=1, keepdims=True)
        d_mean_v = -d_vc.sum(axis=0, keepdims=True)
        d_v = d_vc + p_data * d_mean_v
        d_p = d_p + (vt.data * d_mean_v).sum(axis=1, keepdims=True)
        out._send(ut, d_u)
        out._send(vt, d_v)
        out._send(pt, d_p.reshape(pt.data.shape))

    out = Tensor._make(np.asarray(value), (u_t, v_t, p_t), backward)
    return out


def reference_bilinear_weighted_sum(weights_a: Tensor, kernel: Tensor, weights_b: Tensor) -> Tensor:
    """The elementwise ``Σ_ij a_i K_ij b_j`` node the mat-vec form replaced."""
    a_t, k_t, b_t = as_tensor(weights_a), as_tensor(kernel), as_tensor(weights_b)
    col = a_t.data.reshape(-1, 1)
    row = b_t.data.reshape(1, -1)
    weighted = col * k_t.data
    value = (weighted * row).sum()

    def backward(grad, at=a_t, kt=k_t, bt=b_t, col=col, row=row, weighted=weighted):
        out._send(at, (grad * (kt.data * row).sum(axis=1)).reshape(at.data.shape))
        out._send(kt, grad * (col * row))
        out._send(bt, (grad * weighted.sum(axis=0)).reshape(bt.data.shape))

    out = Tensor._make(np.asarray(value), (a_t, k_t, b_t), backward)
    return out


def reference_pairwise_decorrelation_loss(matrix, weights, features_per_dim, max_pairs=None, rng=None):
    """The per-pair ``L_D(X, w)`` loop (Eq. 10)."""
    matrix = as_tensor(matrix)
    n_cols = matrix.shape[1]
    pairs = [(i, j) for i in range(n_cols) for j in range(i + 1, n_cols)]
    if max_pairs is not None and len(pairs) > max_pairs:
        rng = rng if rng is not None else np.random.default_rng(0)
        chosen = rng.choice(len(pairs), size=max_pairs, replace=False)
        pairs = [pairs[k] for k in chosen]
    if not pairs:
        return as_tensor(0.0)
    weights_column = as_tensor(weights).reshape(-1, 1)
    probs = weights_column / (weights_column.sum() + 1e-12)
    transformed: dict = {}
    for i, j in pairs:
        for index in (i, j):
            if index not in transformed:
                transformed[index] = features_per_dim[index].transform_tensor(matrix[:, index])
    total: Optional[Tensor] = None
    for i, j in pairs:
        term = reference_weighted_sq_cross_cov(transformed[i], transformed[j], probs)
        total = term if total is None else total + term
    return total


def reference_rbf_kernel(a, b, sigma: float) -> Tensor:
    """The kernel block ``exp(-||a_i - b_j||² / (2σ²))`` by the ``|a|² + |b|² - 2 a·b``
    expansion, independent of the sweep's augmented gemm.  A constant:
    ``L_w`` holds the representations fixed."""
    a, b = as_tensor(a).data, as_tensor(b).data
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return Tensor(np.exp(sq * (-1.0 / (2.0 * sigma ** 2))))


def reference_mmd_rbf_weighted(rep_control, rep_treated, weights_control, weights_treated, sigma=1.0):
    """The ``mmd_rbf_weighted`` composition over the elementwise bilinear form."""
    rep_control = as_tensor(rep_control)
    rep_treated = as_tensor(rep_treated)

    def normalised(weights):
        weights = as_tensor(weights)
        return weights / (weights.sum() + 1e-12)

    w_c = normalised(weights_control)
    w_t = normalised(weights_treated)
    k_cc = reference_bilinear_weighted_sum(w_c, reference_rbf_kernel(rep_control, rep_control, sigma), w_c)
    k_tt = reference_bilinear_weighted_sum(w_t, reference_rbf_kernel(rep_treated, rep_treated, sigma), w_t)
    k_ct = reference_bilinear_weighted_sum(w_c, reference_rbf_kernel(rep_control, rep_treated, sigma), w_t)
    return k_cc + k_tt - 2.0 * k_ct


class ReferenceObjective:
    """``L_w`` as the regularizers computed it per call, with their RNG streams."""

    def __init__(self, config, mode, use_balance, use_independence, use_hierarchy, seed):
        self.config = config
        self.use_balance = use_balance
        self.use_independence = use_independence
        self.use_hierarchy = use_hierarchy and mode == "sbrl-hap"
        self.balancing_rng = np.random.default_rng(seed)
        self.rng = np.random.default_rng(seed)
        self.pair_rng = np.random.default_rng(seed + 1)
        self.row_rng = np.random.default_rng(seed + 2)
        self.cache: Dict[str, List[RandomFourierFeatures]] = {}
        self.breakdown: Dict[str, float] = {}

    def _anchors(self, group):
        keep = subsample_indices(len(group), self.config.num_anchors, self.balancing_rng)
        return group if keep is None else group[keep]

    def balance(self, representation, treatment, weights):
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        treated_idx = np.where(treatment == 1.0)[0]
        control_idx = np.where(treatment == 0.0)[0]
        if len(treated_idx) == 0 or len(control_idx) == 0:
            return as_tensor(0.0)
        threshold = self.config.subsample_threshold
        if threshold is not None and len(treatment) > threshold:
            treated_idx = self._anchors(treated_idx)
            control_idx = self._anchors(control_idx)
        args = (representation[control_idx], representation[treated_idx], weights[control_idx], weights[treated_idx])
        if self.config.ipm_kind == "mmd_rbf":
            return reference_mmd_rbf_weighted(*args) * 1.0
        return mmd_linear_weighted(*args) * 1.0

    def independence(self, layer, weights, key):
        layer = as_tensor(layer)
        if layer.shape[1] < 2:
            return as_tensor(0.0)
        threshold = self.config.subsample_threshold
        if threshold is not None and layer.shape[0] > threshold:
            keep = subsample_indices(layer.shape[0], self.config.num_anchors, self.row_rng)
            if keep is not None:
                layer = layer[keep]
                weights = as_tensor(weights).reshape(-1)[keep]
        cached = self.cache.get(key, [])
        while len(cached) < layer.shape[1]:
            cached.append(RandomFourierFeatures.draw(self.config.num_rff_features, self.rng))
        self.cache[key] = cached
        return reference_pairwise_decorrelation_loss(
            layer, weights, cached, max_pairs=self.config.max_pairs_per_layer, rng=self.pair_rng
        )

    def __call__(self, forward, treatment, sample_weights):
        cfg = self.config
        weights = as_tensor(sample_weights).reshape(-1)
        total = as_tensor(0.0)
        values = {"balance": 0.0, "last": 0.0, "representation": 0.0, "other": 0.0}
        if self.use_balance and cfg.alpha > 0:
            balance = self.balance(forward.representation, treatment, weights) * cfg.alpha
            total = total + balance
            values["balance"] = balance.item()
        if self.use_independence and cfg.gamma1 > 0:
            term = self.independence(forward.last_layer, weights, "Zp") * cfg.gamma1
            total = total + term
            values["last"] = term.item()
        if self.use_hierarchy:
            if cfg.gamma2 > 0:
                term = self.independence(forward.representation, weights, "Zr") * cfg.gamma2
                total = total + term
                values["representation"] = term.item()
            if cfg.gamma3 > 0 and forward.other_layers:
                other_total = as_tensor(0.0)
                for index, layer in enumerate(forward.other_layers):
                    other_total = other_total + self.independence(layer, weights, f"Zo{index}")
                term = other_total * cfg.gamma3
                total = total + term
                values["other"] = term.item()
        self.breakdown = values
        return total


# --------------------------------------------------------------------------- #
# Fixtures
# --------------------------------------------------------------------------- #
NUM_ROWS = 48
SEED = 3

VARIANTS = {
    "sbrl-hap": dict(mode="sbrl-hap"),
    "sbrl": dict(mode="sbrl"),
    "no-balance": dict(mode="sbrl-hap", use_balance=False),
    "no-independence": dict(mode="sbrl-hap", use_independence=False),
    "no-hierarchy": dict(mode="sbrl-hap", use_hierarchy=False),
}


def _frozen_forward(rows: np.ndarray) -> BackboneForward:
    """Constant activations of a small backbone, including a 1-column layer."""
    rng = np.random.default_rng(17)
    widths = {"representation": 6, "last": 4, "other": (5, 1, 3)}
    full = {
        "representation": rng.normal(size=(NUM_ROWS, widths["representation"])),
        "last": np.tanh(rng.normal(size=(NUM_ROWS, widths["last"]))),
        "other": [rng.normal(size=(NUM_ROWS, width)) for width in widths["other"]],
    }
    zeros = Tensor(np.zeros(len(rows)))
    return BackboneForward(
        mu0=zeros,
        mu1=zeros,
        representation=Tensor(full["representation"][rows]),
        last_layer=Tensor(full["last"][rows]),
        other_layers=[Tensor(layer[rows]) for layer in full["other"]],
    )


def _treatment() -> np.ndarray:
    treatment = np.zeros(NUM_ROWS)
    treatment[np.random.default_rng(5).permutation(NUM_ROWS)[: NUM_ROWS // 2 - 3]] = 1.0
    return treatment


def _config(run: str, ipm_kind: str) -> RegularizerConfig:
    anchored = run == "anchored"
    return RegularizerConfig(
        alpha=0.5,
        gamma1=1.0,
        gamma2=0.3,
        gamma3=0.2,
        ipm_kind=ipm_kind,
        max_pairs_per_layer=4,
        subsample_threshold=32 if anchored else None,
        num_anchors=16 if anchored else 256,
    )


def _rows(run: str) -> Optional[np.ndarray]:
    """Minibatch runs address a sorted draw of rows of the global weight vector."""
    if run != "minibatch":
        return None
    return np.sort(np.random.default_rng(9).choice(NUM_ROWS, size=30, replace=False))


def _weight_vectors(count: int = 3) -> List[np.ndarray]:
    rng = np.random.default_rng(21)
    return [rng.uniform(0.2, 2.0, size=NUM_ROWS) for _ in range(count)]


def _relative_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference relative to the largest reference entry.

    Entry-wise relative error is meaningless for gradient entries that
    cancel to near zero, so the gradient is compared in the max norm.
    """
    actual, expected = np.asarray(actual), np.asarray(expected)
    scale = np.max(np.abs(expected))
    return float(np.max(np.abs(actual - expected)) / scale) if scale > 0 else float(np.max(np.abs(actual)))


def _evaluate(objective, forward, treatment, values, indices):
    """Value and weight gradient of one call at ``values``."""
    weights = Tensor(values.copy(), requires_grad=True)
    loss = objective(forward, treatment, weights if indices is None else weights[indices])
    loss.backward()
    return loss.item(), weights.grad


def _rng_states(objective: HierarchicalAttentionLoss):
    return [
        objective.balancing._rng.bit_generator.state,
        objective.independence._rng.bit_generator.state,
        objective.independence._pair_rng.bit_generator.state,
        objective.independence._row_rng.bit_generator.state,
    ]


def _reference_rng_states(reference: ReferenceObjective):
    return [
        reference.balancing_rng.bit_generator.state,
        reference.rng.bit_generator.state,
        reference.pair_rng.bit_generator.state,
        reference.row_rng.bit_generator.state,
    ]


# --------------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("ipm_kind", ["mmd_linear", "mmd_rbf"])
@pytest.mark.parametrize("run", ["full-batch", "minibatch", "anchored"])
def test_objective_matches_per_pair_reference(run, ipm_kind, variant):
    config = _config(run, ipm_kind)
    switches = VARIANTS[variant]
    objective = HierarchicalAttentionLoss(config=config, seed=SEED, **switches)
    reference = ReferenceObjective(
        config,
        switches["mode"],
        switches.get("use_balance", True),
        switches.get("use_independence", True),
        switches.get("use_hierarchy", True),
        SEED,
    )
    indices = _rows(run)
    rows = np.arange(NUM_ROWS) if indices is None else indices
    forward = _frozen_forward(rows)
    treatment = _treatment()[rows]

    prepared = objective.prepare(forward, treatment)
    for values in _weight_vectors():
        value, grad = _evaluate(objective, prepared, treatment, values, indices)
        expected_value, expected_grad = _evaluate(reference, forward, treatment, values, indices)
        assert value == pytest.approx(expected_value, rel=RTOL, abs=0.0)
        assert _relative_error(grad, expected_grad) <= RTOL
        breakdown = objective.last_breakdown
        actual_terms = [
            breakdown.balance,
            breakdown.independence_last,
            breakdown.independence_representation,
            breakdown.independence_other,
        ]
        expected_terms = [reference.breakdown[key] for key in ("balance", "last", "representation", "other")]
        assert actual_terms == pytest.approx(expected_terms, rel=RTOL, abs=0.0)
    assert _rng_states(objective) == _reference_rng_states(reference)


@pytest.mark.parametrize("ipm_kind", ["mmd_linear", "mmd_rbf"])
@pytest.mark.parametrize("run", ["full-batch", "minibatch", "anchored"])
def test_prepare_then_calls_is_bitwise_unprepared_calls(run, ipm_kind):
    config = _config(run, ipm_kind)
    indices = _rows(run)
    rows = np.arange(NUM_ROWS) if indices is None else indices
    forward = _frozen_forward(rows)
    treatment = _treatment()[rows]
    hoisted = HierarchicalAttentionLoss(config=config, seed=SEED)
    lent = HierarchicalAttentionLoss(config=config, seed=SEED)
    per_call = HierarchicalAttentionLoss(config=config, seed=SEED)

    prepared = hoisted.prepare(forward, treatment)
    # The trainer's route in a fit that replays: each weight step is a turn
    # of one workspace over a pool, which holds the features and lends the
    # pair nodes and the RBF-MMD sweep their blocks (the second turn finds
    # the pool grown to them).
    workspace = Workspace(Pool())
    for values in _weight_vectors(2):
        expected_value, expected_grad = _evaluate(per_call, forward, treatment, values, indices)
        with workspace.turn():
            prepared_lent = lent.prepare(forward, treatment)
            for objective, objective_input in ((hoisted, prepared), (lent, prepared_lent)):
                value, grad = _evaluate(objective, objective_input, treatment, values, indices)
                assert value == expected_value
                np.testing.assert_array_equal(grad, expected_grad)
                assert objective.last_breakdown == per_call.last_breakdown
    assert _rng_states(hoisted) == _rng_states(per_call)
    assert _rng_states(lent) == _rng_states(per_call)


def test_prepare_hoists_only_without_subsampling():
    forward = _frozen_forward(np.arange(NUM_ROWS))
    treatment = _treatment()
    exact = HierarchicalAttentionLoss(config=_config("full-batch", "mmd_rbf"), seed=SEED)
    prepared = exact.prepare(forward, treatment)
    # The two arms' representation rows; no kernel block is hoisted.
    rep_control, rep_treated = prepared.groups.inputs
    representation = forward.representation.numpy()
    np.testing.assert_array_equal(rep_control.numpy(), representation[treatment == 0.0])
    np.testing.assert_array_equal(rep_treated.numpy(), representation[treatment == 1.0])
    # Every layer with at least two columns; the 1-column Zo1 has no pairs.
    assert sorted(prepared.features) == ["Zo0", "Zo2", "Zp", "Zr"]
    assert prepared.features["Zr"].shape == (6, 5, NUM_ROWS)

    anchored = HierarchicalAttentionLoss(config=_config("anchored", "mmd_rbf"), seed=SEED)
    prepared = anchored.prepare(forward, treatment)
    assert prepared.groups is None and prepared.features == {}


def test_exact_rbf_objective_holds_no_kernel_block():
    """``prepare``, one call and its backward at n = 3000 stay below one n_c × n_t block."""
    n = 3000
    rng = np.random.default_rng(4)
    forward = BackboneForward(
        mu0=Tensor(np.zeros(n)),
        mu1=Tensor(np.zeros(n)),
        representation=Tensor(rng.normal(size=(n, 8))),
        last_layer=Tensor(np.tanh(rng.normal(size=(n, 4)))),
        other_layers=[Tensor(rng.normal(size=(n, 8)))],
    )
    treatment = (rng.uniform(size=n) < 0.5).astype(float)
    n_treated = int(treatment.sum())
    config = RegularizerConfig(
        alpha=0.5, ipm_kind="mmd_rbf", max_pairs_per_layer=4, subsample_threshold=None
    )
    objective = HierarchicalAttentionLoss(config=config, seed=SEED)
    weights = Tensor(rng.uniform(0.2, 2.0, size=n), requires_grad=True)
    tracemalloc.start()
    try:
        objective(objective.prepare(forward, treatment), treatment, weights).backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert objective.last_breakdown.balance > 0.0
    assert weights.grad is not None
    assert peak < (n - n_treated) * n_treated * 8, peak


def test_plain_callable_objective_still_trains():
    """A framework whose weight objective has no ``prepare`` gets the raw forward."""
    from repro.core.backbones import CFR
    from repro.core.config import BackboneConfig, SBRLConfig, TrainingConfig
    from repro.core.sbrl import FRAMEWORK_REGISTRY, FrameworkSpec, SBRLTrainer
    from repro.data.synthetic import SyntheticConfig, SyntheticGenerator

    seen = []

    def objective(forward, treatment, weights):
        seen.append(type(forward))
        treated = np.asarray(treatment) == 1.0
        return mmd_linear_weighted(
            forward.representation[~treated],
            forward.representation[treated],
            weights[np.where(~treated)[0]],
            weights[np.where(treated)[0]],
        )

    FRAMEWORK_REGISTRY.register(
        "plain-objective",
        FrameworkSpec(
            name="plain-objective",
            display_name="plain",
            uses_weights=True,
            weight_objective_factory=lambda config, *switches: objective,
        ),
    )
    try:
        train = SyntheticGenerator(SyntheticConfig(seed=4)).generate(80, 2.5, seed=4)
        config = SBRLConfig(
            backbone=BackboneConfig(rep_layers=2, rep_units=6, head_layers=2, head_units=4),
            training=TrainingConfig(iterations=3, weight_update_every=1, early_stopping_patience=None),
        )
        backbone = CFR(train.covariates.shape[1], config=config.backbone, rng=np.random.default_rng(0))
        trainer = SBRLTrainer(backbone, framework="plain-objective", config=config)
        trainer.fit(train)
    finally:
        FRAMEWORK_REGISTRY.unregister("plain-objective")
    assert seen and all(kind is BackboneForward for kind in seen)
    assert not np.allclose(trainer.sample_weights.numpy(), 1.0)
