"""Unit tests for the TARNet / CFR / DeR-CFR backbones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.backbones import BACKBONE_REGISTRY, CFR, DeRCFR, TARNet, build_backbone
from repro.core.backbones.base import select_factual_rows
from repro.core.config import BackboneConfig, RegularizerConfig
from repro.nn.tensor import Tensor, as_tensor


@pytest.fixture()
def small_config():
    return BackboneConfig(rep_layers=2, rep_units=10, head_layers=2, head_units=6)


@pytest.fixture()
def batch(rng):
    n, d = 60, 7
    covariates = rng.normal(size=(n, d))
    treatment = (rng.uniform(size=n) < 0.5).astype(float)
    outcome = (rng.uniform(size=n) < 0.5).astype(float)
    return covariates, treatment, outcome


class TestRegistry:
    def test_known_backbones(self):
        assert {"tarnet", "cfr", "dercfr"} <= set(BACKBONE_REGISTRY)

    def test_build_by_name(self, small_config):
        backbone = build_backbone("cfr", num_features=5, config=small_config)
        assert isinstance(backbone, CFR)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_backbone("resnet", num_features=5)

    def test_invalid_num_features(self, small_config):
        with pytest.raises(ValueError):
            TARNet(0, config=small_config)


class TestSelectFactualRows:
    def test_selects_by_treatment(self):
        treated = as_tensor(np.full((4, 2), 1.0))
        control = as_tensor(np.full((4, 2), -1.0))
        treatment = np.array([1, 0, 1, 0])
        selected = select_factual_rows(treated, control, treatment).numpy()
        np.testing.assert_allclose(selected[:, 0], [1.0, -1.0, 1.0, -1.0])


class TestForwardPass:
    @pytest.mark.parametrize("name", ["tarnet", "cfr", "dercfr"])
    def test_output_shapes(self, name, small_config, batch, rng):
        covariates, treatment, _ = batch
        backbone = build_backbone(
            name, num_features=covariates.shape[1], config=small_config, rng=np.random.default_rng(0)
        )
        forward = backbone.forward(covariates, treatment)
        assert forward.mu0.shape == (len(covariates),)
        assert forward.mu1.shape == (len(covariates),)
        assert forward.representation.shape[0] == len(covariates)
        assert forward.last_layer.shape == (len(covariates), small_config.head_units)
        assert all(layer.shape[0] == len(covariates) for layer in forward.other_layers)

    @pytest.mark.parametrize("name", ["tarnet", "cfr", "dercfr"])
    def test_binary_outputs_are_probabilities(self, name, small_config, batch):
        covariates, treatment, _ = batch
        backbone = build_backbone(
            name, num_features=covariates.shape[1], config=small_config, binary_outcome=True,
            rng=np.random.default_rng(0),
        )
        forward = backbone.forward(covariates, treatment)
        for output in (forward.mu0.numpy(), forward.mu1.numpy()):
            assert np.all(output > 0) and np.all(output < 1)

    def test_continuous_outputs_unbounded(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = TARNet(
            covariates.shape[1], config=small_config, binary_outcome=False, rng=np.random.default_rng(0)
        )
        forward = backbone.forward(covariates, treatment)
        assert forward.mu0.numpy().dtype == np.float64

    def test_tarnet_other_layers_count(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = TARNet(covariates.shape[1], config=small_config, rng=np.random.default_rng(0))
        forward = backbone.forward(covariates, treatment)
        # rep intermediate layers (rep_layers - 1) + head hidden layers except
        # the last of each head ((head_layers - 1) * 2).
        expected = (small_config.rep_layers - 1) + 2 * (small_config.head_layers - 1)
        assert len(forward.other_layers) == expected

    def test_dercfr_extra_outputs(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = DeRCFR(covariates.shape[1], config=small_config, rng=np.random.default_rng(0))
        forward = backbone.forward(covariates, treatment)
        assert {"instrument", "adjustment", "propensity"} <= set(forward.extra)
        propensity = forward.extra["propensity"].numpy()
        assert np.all(propensity > 0) and np.all(propensity < 1)


class TestLosses:
    def test_network_loss_is_finite_and_differentiable(self, small_config, batch):
        covariates, treatment, outcome = batch
        backbone = CFR(
            covariates.shape[1],
            config=small_config,
            regularizers=RegularizerConfig(alpha=0.1),
            rng=np.random.default_rng(0),
        )
        forward = backbone.forward(covariates, treatment)
        loss = backbone.network_loss(forward, treatment, outcome)
        assert np.isfinite(loss.item())
        loss.backward()
        gradients = [p.grad for p in backbone.parameters()]
        assert any(g is not None and np.any(g != 0) for g in gradients)

    def test_factual_loss_weighted_vs_unweighted(self, small_config, batch):
        covariates, treatment, outcome = batch
        backbone = TARNet(covariates.shape[1], config=small_config, rng=np.random.default_rng(0))
        forward = backbone.forward(covariates, treatment)
        unweighted = backbone.factual_loss(forward, treatment, outcome).item()
        weighted = backbone.factual_loss(
            forward, treatment, outcome, as_tensor(np.ones(len(outcome)))
        ).item()
        np.testing.assert_allclose(unweighted, weighted)

    def test_cfr_alpha_zero_matches_tarnet_regularization(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = CFR(
            covariates.shape[1],
            config=small_config,
            regularizers=RegularizerConfig(alpha=0.0),
            rng=np.random.default_rng(0),
        )
        forward = backbone.forward(covariates, treatment)
        assert backbone.regularization_loss(forward, treatment).item() == 0.0

    def test_cfr_penalty_positive_with_alpha(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = CFR(
            covariates.shape[1],
            config=small_config,
            regularizers=RegularizerConfig(alpha=1.0),
            rng=np.random.default_rng(0),
        )
        forward = backbone.forward(covariates, treatment)
        assert backbone.regularization_loss(forward, treatment).item() > 0.0

    def test_cfr_single_arm_batch_gives_zero_penalty(self, small_config, rng):
        covariates = rng.normal(size=(20, 7))
        treatment = np.ones(20)
        backbone = CFR(
            7, config=small_config, regularizers=RegularizerConfig(alpha=1.0), rng=np.random.default_rng(0)
        )
        forward = backbone.forward(covariates, treatment)
        assert backbone.regularization_loss(forward, treatment).item() == 0.0

    def test_dercfr_regularization_positive(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = DeRCFR(covariates.shape[1], config=small_config, rng=np.random.default_rng(0))
        forward = backbone.forward(covariates, treatment)
        assert backbone.regularization_loss(forward, treatment).item() > 0.0


class TestPrediction:
    def test_predict_returns_numpy_dict(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = TARNet(covariates.shape[1], config=small_config, rng=np.random.default_rng(0))
        predictions = backbone.predict(covariates)
        assert set(predictions) == {"mu0", "mu1", "ite"}
        np.testing.assert_allclose(predictions["ite"], predictions["mu1"] - predictions["mu0"])

    def test_representations_shape(self, small_config, batch):
        covariates, treatment, _ = batch
        backbone = CFR(covariates.shape[1], config=small_config, rng=np.random.default_rng(0))
        representation = backbone.representations(covariates)
        assert representation.shape == (len(covariates), small_config.rep_units)


def _assert_served_equals_eager(served, eager):
    """Bit for bit, same dtype, NaN in the same places."""
    for key in ("mu0", "mu1", "ite"):
        assert served[key].dtype == eager[key].dtype
        np.testing.assert_array_equal(served[key], eager[key])


def _compiled_backbone(
    name, *, normalize=False, binary=True, activation="elu", seed=11, dtype="float64"
):
    """A stock backbone whose parameters hold ``dtype`` data."""
    config = BackboneConfig(
        rep_layers=2, rep_units=8, head_layers=2, head_units=6,
        rep_normalization=normalize, activation=activation,
    )
    backbone = build_backbone(
        name, num_features=7, config=config, regularizers=RegularizerConfig(),
        binary_outcome=binary, rng=np.random.default_rng(seed),
    )
    for param in backbone.parameters():
        param.data = param.data.astype(dtype)
    return backbone


class TestCompiledInference:
    """The compiled forward runs the op table's array functions, so it
    equals the autodiff forward bit for bit."""

    @pytest.mark.parametrize("name", ["tarnet", "cfr", "dercfr"])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("binary", [False, True])
    def test_compiled_matches_graph_path(self, name, normalize, binary):
        backbone = _compiled_backbone(name, normalize=normalize, binary=binary)
        x = np.random.default_rng(1).normal(size=(33, 7))
        graph = backbone._predict_eager(x)
        compiled = backbone.predict(x)
        assert backbone._compiled_inference() is not None
        _assert_served_equals_eager(compiled, graph)

    @pytest.mark.parametrize("name", ["tarnet", "cfr", "dercfr"])
    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize("activation", ["elu", "relu", "tanh", "softplus", "sigmoid"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_served_equals_trained_forward_bit_for_bit(
        self, name, normalize, binary, activation, dtype
    ):
        """Every stock architecture, activation and dtype, at 1, 5 and 300 rows."""
        backbone = _compiled_backbone(
            name, normalize=normalize, binary=binary, activation=activation, dtype=dtype
        )
        for rows in (1, 5, 300):
            x = np.random.default_rng(rows).normal(size=(rows, 7))
            _assert_served_equals_eager(backbone.predict(x), backbone._predict_eager(x))
        assert backbone._compiled_inference() is not None

    @pytest.mark.parametrize("name", ["tarnet", "cfr", "dercfr"])
    def test_served_edge_inputs_equal_eager(self, name):
        """Zero rows, NaN rows, and a float32 model given float64 input."""
        backbone = _compiled_backbone(name, normalize=True)
        empty = backbone.predict(np.zeros((0, 7)))
        assert all(empty[key].shape == (0,) for key in ("mu0", "mu1", "ite"))
        _assert_served_equals_eager(empty, backbone._predict_eager(np.zeros((0, 7))))

        x = np.random.default_rng(2).normal(size=(6, 7))
        x[1] = np.nan
        x[4, 3] = np.nan
        served = backbone.predict(x)
        assert np.isnan(served["mu0"]).tolist() == [False, True, False, False, True, False]
        _assert_served_equals_eager(served, backbone._predict_eager(x))

        narrow = _compiled_backbone(name, dtype="float32")
        x64 = np.random.default_rng(3).normal(size=(5, 7))
        served = narrow.predict(x64)
        assert served["mu0"].dtype == np.float32
        # The autodiff forward casts float64 input to the parameters' dtype too.
        _assert_served_equals_eager(served, narrow._predict_eager(x64))

    def test_compiled_invalidated_by_parameter_updates(self):
        backbone = build_backbone(
            "cfr", num_features=5,
            config=BackboneConfig(rep_layers=2, rep_units=6, head_layers=2, head_units=4),
            regularizers=RegularizerConfig(), binary_outcome=True,
            rng=np.random.default_rng(2),
        )
        x = np.random.default_rng(3).normal(size=(9, 5))
        before = backbone.predict(x)["mu0"].copy()
        for param in backbone.parameters():
            param.data = param.data + 0.1  # fresh buffers, like an optimiser step
        after = backbone.predict(x)
        reference = backbone._predict_eager(x)
        assert not np.allclose(before, after["mu0"])
        np.testing.assert_array_equal(after["mu0"], reference["mu0"])

    def test_compiled_tracks_load_state_dict(self):
        def build(seed):
            return build_backbone(
                "tarnet", num_features=4,
                config=BackboneConfig(rep_layers=2, rep_units=5, head_layers=2, head_units=4),
                regularizers=RegularizerConfig(), binary_outcome=False,
                rng=np.random.default_rng(seed),
            )

        source, target = build(1), build(2)
        x = np.random.default_rng(4).normal(size=(6, 4))
        target.predict(x)  # compile against the original parameters
        target.load_state_dict(source.state_dict())
        np.testing.assert_array_equal(target.predict(x)["ite"], source._predict_eager(x)["ite"])

    def test_inplace_mutation_serves_coherent_snapshot_until_invalidated(self):
        """In-place buffer writes evade the id probe by design; the closure
        must then serve one *coherent* old version, and invalidate_compiled()
        must pick the mutation up."""
        backbone = build_backbone(
            "cfr", num_features=5,
            config=BackboneConfig(rep_layers=2, rep_units=6, head_layers=2, head_units=4),
            regularizers=RegularizerConfig(), binary_outcome=True,
            rng=np.random.default_rng(8),
        )
        x = np.random.default_rng(9).normal(size=(11, 5))
        before = backbone.predict(x)["mu0"].copy()
        for param in backbone.parameters():
            param.data *= 1.5  # in place: buffer identity unchanged
        # Stale but coherent: exactly the pre-mutation predictions.
        np.testing.assert_array_equal(backbone.predict(x)["mu0"], before)
        backbone.invalidate_compiled()
        refreshed = backbone.predict(x)
        reference = backbone._predict_eager(x)
        assert not np.allclose(refreshed["mu0"], before)
        np.testing.assert_array_equal(refreshed["mu0"], reference["mu0"])

    def test_custom_backbone_falls_back_to_graph_path(self):
        class WeirdTARNet(TARNet):
            def forward(self, covariates, treatment):  # custom forward -> no compile
                return super().forward(covariates, treatment)

        backbone = WeirdTARNet(
            num_features=4,
            config=BackboneConfig(rep_layers=2, rep_units=5, head_layers=2, head_units=4),
            rng=np.random.default_rng(5),
        )
        assert backbone._compiled_inference() is None
        x = np.random.default_rng(6).normal(size=(5, 4))
        result = backbone.predict(x)  # silently uses the graph path
        assert result["mu0"].shape == (5,)
