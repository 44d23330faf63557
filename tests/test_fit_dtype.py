"""A fit's precision is its parameters', not a process-wide mode.

``TrainingConfig.dtype`` is applied once, to the parameters and the sample
weights; every other tensor takes its dtype from its data or from the
tensor it meets.  So a float32 and a float64 fit run side by side on
threads, a float32 model's autodiff forward runs in float32 outside any
fit, and no constant of a float32 fit is left in float64, where NumPy 2
would promote the op it meets without a word.
"""

from __future__ import annotations

import collections
import sys
import threading
import traceback

import numpy as np
import pytest

from repro.core.config import BackboneConfig, RegularizerConfig, SBRLConfig, TrainingConfig
from repro.core.estimator import HTEEstimator
from repro.core.loop import Callback
from repro.data.ihdp import IHDPConfig, IHDPSimulator
from repro.data.synthetic import SyntheticConfig, SyntheticGenerator
from repro.nn.tensor import Tensor

KEYS = ("mu0", "mu1", "ite")


def _synthetic(num_samples, seed):
    generator = SyntheticGenerator(
        SyntheticConfig(num_instruments=3, num_confounders=3, num_adjustments=3, seed=seed)
    )
    protocol = generator.generate_train_test_protocol(num_samples=num_samples, seed=seed)
    return protocol["train"], protocol["test_environments"][-2.5]


# --------------------------------------------------------------------------- #
# Concurrent fits
# --------------------------------------------------------------------------- #
def _fit_cfr_sbrl_hap(train, covariates, dtype):
    config = SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=16, head_layers=2, head_units=8),
        regularizers=RegularizerConfig(ipm_kind="mmd_rbf", max_pairs_per_layer=6),
        training=TrainingConfig(iterations=30, early_stopping_patience=None, seed=4, dtype=dtype),
    )
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=4)
    estimator.fit(train)
    return estimator, estimator.predict_potential_outcomes(covariates)


def test_a_float32_and_a_float64_fit_on_two_threads_equal_their_serial_runs():
    train, test = _synthetic(300, 4)
    dtypes = ("float32", "float64")
    serial = {dtype: _fit_cfr_sbrl_hap(train, test.covariates, dtype)[1] for dtype in dtypes}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads every few bytecodes
    try:
        for trial in range(4):
            results, errors = {}, []
            start = threading.Barrier(len(dtypes))

            def fit(dtype):
                try:
                    start.wait(30)
                    results[dtype] = _fit_cfr_sbrl_hap(train, test.covariates, dtype)
                except BaseException as exc:  # re-raised on the main thread
                    errors.append(exc)

            threads = [threading.Thread(target=fit, args=(dtype,)) for dtype in dtypes]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120)
            if errors:
                raise errors[0]
            for dtype in dtypes:
                estimator, predictions = results[dtype]
                assert estimator.trainer._replay.stats["fallbacks"] == 0, (trial, dtype)
                for key in KEYS:
                    assert predictions[key].dtype == np.dtype(dtype), (trial, dtype, key)
                    np.testing.assert_array_equal(predictions[key], serial[dtype][key])
    finally:
        sys.setswitchinterval(interval)


# --------------------------------------------------------------------------- #
# A float32 model outside any fit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backbone", ["tarnet", "cfr", "dercfr"])
def test_a_float32_models_autodiff_forward_runs_in_float32(backbone):
    """``predict`` of a custom backbone and ``representations()`` take this path."""
    train, test = _synthetic(120, 6)
    config = SBRLConfig(
        backbone=BackboneConfig(rep_layers=2, rep_units=8, head_layers=2, head_units=6),
        training=TrainingConfig(
            iterations=4, early_stopping_patience=None, seed=6, dtype="float32"
        ),
    )
    estimator = HTEEstimator(backbone=backbone, framework="vanilla", config=config, seed=6)
    estimator.fit(train)
    trainer = estimator.trainer
    covariates = trainer._transform(test.covariates)
    eager = trainer.backbone._predict_eager(covariates)
    served = trainer.backbone.predict(covariates)
    for key in KEYS:
        assert eager[key].dtype == np.float32
        np.testing.assert_array_equal(eager[key], served[key])
    assert estimator.representations(test.covariates).dtype == np.float32


# --------------------------------------------------------------------------- #
# Census: every tensor of a float32 fit is float32
# --------------------------------------------------------------------------- #
_ENGINE = ("tensor.py", "functional.py")


class _Census(Callback):
    """Counts the tensors built while it is on, by the line that built them.

    A fit turns it on when its iterations begin and off when they end, so
    the tensors the fit sets up before (its parameters and sample weights,
    cast to the fit's dtype when it starts) are checked as they end up.
    """

    def __init__(self, monkeypatch, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self.on = False
        self.built = 0
        self.strays = collections.Counter()
        init = Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if self.on:
                self.built += 1
                if tensor.data.dtype != self.dtype:
                    # Name the line outside the engine that asked for it.
                    stack = traceback.extract_stack()[:-1]
                    frame = next(
                        (f for f in reversed(stack) if not f.filename.endswith(_ENGINE)),
                        stack[-1],
                    )
                    self.strays[f"{frame.filename}:{frame.lineno} {tensor.data.dtype}"] += 1

        monkeypatch.setattr(Tensor, "__init__", counting_init)

    def on_train_begin(self, loop) -> None:
        self.on = True

    def on_train_end(self, loop) -> None:
        self.on = False

    def fit_and_predict(self, estimator, train, validation, covariates) -> None:
        trainer = estimator.build_trainer(train)
        trainer.fit(train, validation, callbacks=[self])
        self.on = True
        try:
            estimator.predict_potential_outcomes(covariates)
            trainer.backbone._predict_eager(trainer._transform(covariates))
            estimator.representations(covariates)
        finally:
            self.on = False
        tensors = list(trainer.backbone.parameters())
        if trainer.sample_weights is not None:
            tensors.append(trainer.sample_weights.tensor)
        assert {tensor.data.dtype for tensor in tensors} == {self.dtype}


def _census_config(batch_size, activation, normalize, ipm_kind, subsample_threshold):
    return SBRLConfig(
        backbone=BackboneConfig(
            rep_layers=2, rep_units=8, head_layers=2, head_units=6,
            activation=activation, rep_normalization=normalize,
        ),
        regularizers=RegularizerConfig(
            alpha=0.1, ipm_kind=ipm_kind, max_pairs_per_layer=4,
            subsample_threshold=subsample_threshold, num_anchors=32,
        ),
        training=TrainingConfig(
            iterations=6, weight_update_every=2, evaluation_interval=2,
            early_stopping_patience=None, seed=3, batch_size=batch_size, dtype="float32",
        ),
    )


#: Full batch with ELU, the RBF-MMD and kernel regularizers subsampled above
#: 64 rows; minibatches of 48 with tanh, row normalisation and the linear MMD.
CENSUS_MODES = {
    "fullbatch": dict(batch_size=None, activation="elu", normalize=False, ipm_kind="mmd_rbf",
                      subsample_threshold=64),
    "minibatch": dict(batch_size=48, activation="tanh", normalize=True, ipm_kind="mmd_linear",
                      subsample_threshold=None),
}


@pytest.mark.parametrize("mode", sorted(CENSUS_MODES))
@pytest.mark.parametrize("framework", ["vanilla", "sbrl", "sbrl-hap"])
@pytest.mark.parametrize("backbone", ["tarnet", "cfr", "dercfr"])
def test_every_tensor_of_a_float32_fit_is_float32(monkeypatch, backbone, framework, mode):
    train, validation = _synthetic(120, 3)
    config = _census_config(**CENSUS_MODES[mode])
    estimator = HTEEstimator(backbone=backbone, framework=framework, config=config, seed=3)
    census = _Census(monkeypatch, "float32")
    census.fit_and_predict(estimator, train, validation, validation.covariates)
    assert census.built > 100
    assert not census.strays, dict(census.strays)


def test_every_tensor_of_a_float32_continuous_outcome_fit_is_float32(monkeypatch):
    replication = IHDPSimulator(IHDPConfig(seed=3)).replication(0)
    config = _census_config(**CENSUS_MODES["fullbatch"])
    estimator = HTEEstimator(backbone="cfr", framework="sbrl-hap", config=config, seed=3)
    census = _Census(monkeypatch, "float32")
    census.fit_and_predict(
        estimator, replication.train, replication.validation, replication.test.covariates
    )
    assert not estimator.trainer.backbone.binary_outcome
    assert census.built > 100
    assert not census.strays, dict(census.strays)
