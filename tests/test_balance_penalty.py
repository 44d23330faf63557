"""The Balancing Regularizer ``L_B`` (Eq. 4) is computed in one place.

CFR's balance penalty and DeR-CFR's three balance terms call
:class:`BalancingRegularizer`, as the weight objective does.  This file
pins what that must keep and what it changes:

* CFR's penalty and the representation gradient it sends are bitwise
  those of the previous ``CFR.regularization_loss``, kept below as
  :class:`ReferenceCFRPenalty`, eager and replayed over four steps, for
  both IPM kinds, with and without sample weights, below the subsampling
  threshold and above it (anchors drawn afresh every step);
* above ``subsample_threshold`` DeR-CFR's balance terms are estimated on
  one anchor draw per step, exactly the draw a seed-0 generator makes,
  and a replayed DeR-CFR fit draws them on every run as its eager fit
  does.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backbones import CFR, DeRCFR, DeRCFRPenalties
from repro.core.backbones.base import BackboneForward
from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.regularizers import BalancingRegularizer
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.metrics.ipm import weighted_ipm
from repro.metrics.subsampling import subsample_indices
from repro.nn.tape import TapeRecorder
from repro.nn.tape import dynamic as tape_dynamic
from repro.nn.tensor import Tensor, as_tensor

NUM_ROWS = 100
WIDTH = 6


class ReferenceCFRPenalty:
    """``CFR.regularization_loss`` before it called the shared regularizer, kept verbatim."""

    def __init__(self, regularizers: RegularizerConfig) -> None:
        self.regularizers = regularizers

    def __call__(self, forward, treatment, sample_weights=None):
        alpha = self.regularizers.alpha
        if alpha == 0.0:
            return as_tensor(0.0, like=forward.representation)
        treatment = np.asarray(treatment, dtype=np.float64).ravel()
        treated_mask = treatment == 1.0
        control_mask = ~treated_mask
        if treated_mask.sum() == 0 or control_mask.sum() == 0:
            return as_tensor(0.0, like=forward.representation)
        treated_idx = np.where(treated_mask)[0]
        control_idx = np.where(control_mask)[0]
        threshold = self.regularizers.subsample_threshold
        if threshold is not None and len(treatment) > threshold:
            full_treated, full_control = treated_idx, control_idx
            treated_idx, control_idx = tape_dynamic(
                lambda: (
                    self._balance_anchors(full_treated),
                    self._balance_anchors(full_control),
                )
            )
        rep = forward.representation
        rep_treated = rep[treated_idx]
        rep_control = rep[control_idx]
        weights_treated = weights_control = None
        if sample_weights is not None:
            weights = as_tensor(sample_weights).reshape(-1)
            weights_treated = weights[treated_idx]
            weights_control = weights[control_idx]
        distance = weighted_ipm(
            rep_control,
            rep_treated,
            weights_control=weights_control,
            weights_treated=weights_treated,
            kind=self.regularizers.ipm_kind,
        )
        return distance * alpha

    def _balance_anchors(self, group_indices):
        rng = getattr(self, "_balance_rng", None)
        if rng is None:
            rng = self._balance_rng = np.random.default_rng(0)
        keep = subsample_indices(len(group_indices), self.regularizers.num_anchors, rng)
        return group_indices if keep is None else group_indices[keep]


def _treatment() -> np.ndarray:
    treatment = np.zeros(NUM_ROWS)
    treatment[np.random.default_rng(5).permutation(NUM_ROWS)[:41]] = 1.0
    return treatment


def _regularizers(ipm_kind: str, anchored: bool) -> RegularizerConfig:
    return RegularizerConfig(
        alpha=0.3,
        ipm_kind=ipm_kind,
        subsample_threshold=64 if anchored else None,
        num_anchors=16,
    )


class _Step:
    """``(rep * head).sum() + penalty``: the representation's gradient has
    three contributions, so a change in the order they add up in shows."""

    def __init__(self, penalty, weighted: bool) -> None:
        rng = np.random.default_rng(8)
        self.penalty = penalty
        self.head = rng.normal(size=(NUM_ROWS, WIDTH))
        self.rep = Tensor(np.zeros((NUM_ROWS, WIDTH)), requires_grad=True)
        self.weights = np.ones(NUM_ROWS) if weighted else None
        self.treatment = _treatment()

    def load(self, step: int) -> None:
        """Step ``step``'s values, written in place."""
        rng = np.random.default_rng(100 + step)
        self.rep.data[...] = rng.normal(size=(NUM_ROWS, WIDTH))
        self.rep.data[self.treatment == 1.0] += 0.5
        if self.weights is not None:
            self.weights[...] = rng.uniform(0.2, 2.0, size=NUM_ROWS)

    def __call__(self):
        zeros = Tensor(np.zeros(NUM_ROWS))
        forward = BackboneForward(zeros, zeros, self.rep, Tensor(np.zeros((NUM_ROWS, 2))))
        weights = None if self.weights is None else Tensor(self.weights)
        penalty = self.penalty(forward, self.treatment, weights)
        loss = (self.rep * self.head).sum() + penalty
        self.rep.grad = None
        loss.backward()
        return loss, penalty


CASES = [
    pytest.param(
        kind, weighted, anchored,
        id=f"{kind}-{'weighted' if weighted else 'unweighted'}-{'anchored' if anchored else 'exact'}",
    )
    for kind in ("mmd_linear", "mmd_rbf")
    for weighted in (True, False)
    for anchored in (False, True)
]


class TestCFRPenaltyIsTheReference:
    @pytest.mark.parametrize("kind, weighted, anchored", CASES)
    def test_eager_steps_are_bitwise_the_reference(self, kind, weighted, anchored):
        regularizers = _regularizers(kind, anchored)
        ours = _Step(CFR(3, regularizers=regularizers).regularization_loss, weighted)
        reference = _Step(ReferenceCFRPenalty(regularizers), weighted)
        for step in range(4):
            values = []
            for run in (ours, reference):
                run.load(step)
                loss, penalty = run()
                values.append((loss.item(), penalty.item(), run.rep.grad.copy()))
            assert values[0][:2] == values[1][:2]
            np.testing.assert_array_equal(values[0][2], values[1][2])

    @pytest.mark.parametrize("kind, weighted, anchored", CASES)
    def test_replayed_steps_are_bitwise_the_reference(self, kind, weighted, anchored):
        """The recording step, then three runs, each of which draws anchors
        again: the loss (head term plus penalty) and the representation
        gradient are bitwise the reference's at every step."""
        regularizers = _regularizers(kind, anchored)
        cfr = CFR(3, regularizers=regularizers)
        ours = _Step(cfr.regularization_loss, weighted)
        reference = _Step(ReferenceCFRPenalty(regularizers), weighted)
        ours.load(0)
        with TapeRecorder(inputs=() if ours.weights is None else (ours.weights,)) as recorder:
            loss, _ = ours()
        program = recorder.finalize(loss)
        assert program is not None, recorder.aborted
        assert len(program.providers) == (1 if anchored else 0)
        for step in range(4):
            if step:
                ours.load(step)
                value = program.run()
            else:
                value = loss.item()
            reference.load(step)
            expected, _ = reference()
            assert value == expected.item()
            np.testing.assert_array_equal(ours.rep.grad, reference.rep.grad)
        if anchored:
            reference_rng = reference.penalty._balance_rng
            assert cfr.balancing._rng.bit_generator.state == reference_rng.bit_generator.state


def _dercfr_forward(dercfr: DeRCFR) -> BackboneForward:
    covariates = np.random.default_rng(12).normal(size=(NUM_ROWS, 5))
    return dercfr.forward(covariates, _treatment())


class TestDeRCFRDrawsAnchors:
    @pytest.mark.parametrize("kind", ["mmd_linear", "mmd_rbf"])
    def test_penalty_uses_one_seeded_anchor_draw_above_the_threshold(self, kind):
        """With every other term's weight at zero, the penalty is the three
        balance terms on the anchors a seed-0 generator draws, treated
        arm first: not the exact IPMs."""
        penalties = DeRCFRPenalties(
            adjustment_balance=0.7,
            confounder_balance=1.3,
            instrument_independence=0.0,
            orthogonality=0.0,
            treatment_prediction=0.0,
        )
        config = BackboneConfig(rep_layers=2, rep_units=8, head_layers=1, head_units=4)
        weights = Tensor(np.random.default_rng(6).uniform(0.2, 2.0, size=NUM_ROWS))
        treatment = _treatment()
        values = {}
        for anchored in (False, True):  # one seed: the same parameters, the same forward
            dercfr = DeRCFR(
                5, config=config, regularizers=_regularizers(kind, anchored),
                penalties=penalties, rng=np.random.default_rng(4),
            )
            forward = _dercfr_forward(dercfr)
            values[anchored] = dercfr.regularization_loss(forward, treatment, weights).item()

        rng = np.random.default_rng(0)
        treated, control = (np.where(treatment == value)[0] for value in (1.0, 0.0))
        treated, control = (arm[subsample_indices(len(arm), 16, rng)] for arm in (treated, control))
        adjustment, confounder = forward.extra["adjustment"], forward.representation
        w = weights.data
        ipm_adjustment = weighted_ipm(adjustment[control], adjustment[treated], kind=kind).item()
        ipm_weighted = weighted_ipm(
            confounder[control], confounder[treated], w[control], w[treated], kind=kind
        ).item()
        ipm_confounder = weighted_ipm(confounder[control], confounder[treated], kind=kind).item()
        expected = (0.7 * ipm_adjustment + 1.3 * ipm_weighted) + ipm_confounder * 0.3
        assert values[True] == expected
        assert values[True] != values[False]

    def test_replayed_fit_draws_anchors_every_run_as_its_eager_fit(self, monkeypatch):
        generator = SyntheticGenerator(SyntheticConfig(seed=11))
        train = generator.generate_train_test_protocol(num_samples=240, seed=11)["train"]
        draws = {}
        anchors = BalancingRegularizer._anchors

        def counted(self, group):
            draws[id(self)] = draws.get(id(self), 0) + 1
            return anchors(self, group)

        monkeypatch.setattr(BalancingRegularizer, "_anchors", counted)
        fits = {}
        for graph_replay in ("auto", "off"):
            config = SBRLConfig(
                backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=4),
                regularizers=RegularizerConfig(
                    alpha=0.1, ipm_kind="mmd_rbf", subsample_threshold=64, num_anchors=32,
                    max_pairs_per_layer=4,
                ),
                training=TrainingConfig(
                    iterations=6, early_stopping_patience=None, seed=0, graph_replay=graph_replay
                ),
            )
            estimator = HTEEstimator(backbone="dercfr", framework="sbrl-hap", config=config, seed=11)
            estimator.fit(train)
            fits[graph_replay] = estimator
        replayed, eager = fits["auto"], fits["off"]
        assert replayed.trainer._replay.stats["hits"] >= 3
        # Two draws (treated, control) per network step, on both fits.
        backbones = [fit.trainer.backbone.balancing for fit in (replayed, eager)]
        assert draws[id(backbones[0])] == draws[id(backbones[1])] == 2 * 6
        assert backbones[0]._rng.bit_generator.state == backbones[1]._rng.bit_generator.state
        for ours, theirs in zip(
            replayed.predict_potential_outcomes(train.covariates),
            eager.predict_potential_outcomes(train.covariates),
        ):
            np.testing.assert_array_equal(ours, theirs)
        history = [fit.training_history().as_dict() for fit in (replayed, eager)]
        assert history[0]["network_loss"] == history[1]["network_loss"]
