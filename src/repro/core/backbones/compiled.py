"""Compiled pure-NumPy inference for fitted backbones.

Training needs the autodiff graph; serving does not.  ``compile_backbone``
turns a stock TARNet / CFR / DeR-CFR into a plain-NumPy closure computing
``(mu0, mu1)`` with **zero Tensor allocation** — no graph nodes, no
``no_grad`` bookkeeping, no per-op Python closure construction.  The
arithmetic replicates the tensor forward pass operation-for-operation
(same clipping, same normalisation guards), so compiled predictions are
bit-identical to the graph path; ``tests/test_core_backbones.py`` pins
that equivalence.

The two outcome heads share every layer shape, so they are *packed*: their
weights are stacked into ``(2, in, out)`` arrays and each layer of both
heads runs as a single batched ``np.matmul`` — half the NumPy dispatches of
the sequential path, which is what dominates single-row serving latency.
Per head the slice-wise arithmetic is unchanged, so predictions agree with
the graph path to reassociation level (``~1e-15`` relative; asserted in
``tests/test_core_backbones.py``) — far inside the 1e-5 golden tolerances.

Compilation **snapshots every parameter array** (copies), so a compiled
closure is one coherent parameter version.  Callers obtain closures
through ``BaseBackbone._compiled_inference``, which re-compiles whenever a
parameter's ``(buffer identity, tensor _version)`` pair changes — the
repo's update paths (the in-place ``Optimizer.step`` bumps ``_version``;
``load_state_dict`` and ``param.data = ...`` assign fresh buffers) all
invalidate automatically.  The one unsupported pattern is mutating a
parameter buffer *in place* without bumping ``_version`` (``param.data[...]
= v``); that keeps serving the snapshot — call
:meth:`BaseBackbone.invalidate_compiled` (or predict with
``compiled=False``) after such writes.

Backbones with custom ``forward`` implementations (or non-stock component
modules) are detected and refused: ``compile_backbone`` returns ``None``
and callers fall back to the graph-based forward pass.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np

from ...nn import functional as F
from ...nn.modules import _ACTIVATIONS, Linear, MLP, RepresentationNetwork

__all__ = ["compile_backbone"]

CompiledInference = Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]


def _np_identity(x: np.ndarray) -> np.ndarray:
    return x


def _np_elu(x: np.ndarray) -> np.ndarray:
    # max(x, 0) + expm1(min(x, 0)) equals the graph path's
    # max(x, 0) + (exp(min(x, 0)) - 1) exactly for x > 0 and to one ulp
    # below zero, using only raw ufunc dispatches (in place where fresh) —
    # at serving batch sizes dispatch count is the cost.
    negative = np.minimum(x, 0.0)
    np.expm1(negative, out=negative)
    positive = np.maximum(x, 0.0)
    np.add(positive, negative, out=positive)
    return positive


def _np_relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def _np_sigmoid(x: np.ndarray) -> np.ndarray:
    # minimum/maximum instead of np.clip: same values, none of np.clip's
    # Python-level dispatch overhead.
    clipped = np.minimum(np.maximum(x, -60.0), 60.0)
    np.negative(clipped, out=clipped)
    np.exp(clipped, out=clipped)
    np.add(clipped, 1.0, out=clipped)
    return np.divide(1.0, clipped, out=clipped)


def _np_softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


_NUMPY_BY_NAME: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "elu": _np_elu,
    "relu": _np_relu,
    "sigmoid": _np_sigmoid,
    "tanh": np.tanh,
    "softplus": _np_softplus,
    "identity": _np_identity,
}

#: Resolved tensor-activation callable -> equivalent NumPy implementation.
_NUMPY_ACTIVATIONS = {
    _ACTIVATIONS[name]: impl for name, impl in _NUMPY_BY_NAME.items() if name in _ACTIVATIONS
}


def _numpy_activation(activation) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    return _NUMPY_ACTIVATIONS.get(activation)


def _compile_mlp(mlp: MLP) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Compile a stock :class:`MLP` (hidden stack + optional output layer)."""
    if type(mlp) is not MLP:
        return None
    activation = _numpy_activation(mlp.activation)
    if activation is None:
        return None
    output_activation = _np_identity
    if mlp.output_activation is not None:
        output_activation = _numpy_activation(mlp.output_activation)
        if output_activation is None:
            return None
    if any(type(layer) is not Linear for layer in mlp.hidden_layers):
        return None
    if mlp.output_layer is not None and type(mlp.output_layer) is not Linear:
        return None
    # Copies, not references: the whole closure is one coherent snapshot of
    # the parameters at compile time (see the module docstring).
    hidden = [
        (layer.weight.data.copy(), layer.bias.data.copy() if layer.bias is not None else None)
        for layer in mlp.hidden_layers
    ]
    output = None
    if mlp.output_layer is not None:
        output = (
            mlp.output_layer.weight.data.copy(),
            mlp.output_layer.bias.data.copy() if mlp.output_layer.bias is not None else None,
        )

    def forward(x: np.ndarray) -> np.ndarray:
        out = x
        for weight, bias in hidden:
            pre = out @ weight
            if bias is not None:
                np.add(pre, bias, out=pre)  # pre is fresh from the matmul
            out = activation(pre)
        if output is not None:
            weight, bias = output
            out = out @ weight
            if bias is not None:
                np.add(out, bias, out=out)
            out = output_activation(out)
        return out

    return forward


def _compile_representation(
    network: RepresentationNetwork,
) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    if type(network) is not RepresentationNetwork:
        return None
    mlp = _compile_mlp(network.mlp)
    if mlp is None:
        return None
    if not network.normalize:
        return mlp

    def forward(x: np.ndarray) -> np.ndarray:
        rep = mlp(x)
        norms = np.sqrt((rep * rep).sum(axis=1, keepdims=True)) + 1e-8
        return rep / norms

    return forward


def _packable_mlp(mlp: MLP) -> bool:
    return (
        type(mlp) is MLP
        and _numpy_activation(mlp.activation) is not None
        and mlp.output_activation is None
        and mlp.output_layer is not None
        and type(mlp.output_layer) is Linear
        and all(type(layer) is Linear for layer in mlp.hidden_layers)
        and all(layer.bias is not None for layer in mlp.hidden_layers)
        and mlp.output_layer.bias is not None
    )


def _compile_two_heads(predictor) -> Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]]:
    from .base import TwoHeadPredictor

    if type(predictor) is not TwoHeadPredictor:
        return None
    head0, head1 = predictor.head0, predictor.head1
    if not (_packable_mlp(head0) and _packable_mlp(head1)):
        return None
    if head0.hidden_sizes != head1.hidden_sizes or head0.activation is not head1.activation:
        return None
    activation = _numpy_activation(head0.activation)
    binary = predictor.binary_outcome

    # Snapshot-stack both heads layer by layer: one (2, in, out) batched
    # matmul per layer instead of two sequential gemms (and one activation
    # sweep instead of two).  The snapshot is tied to the current parameter
    # buffers; _compiled_inference re-compiles when those change.
    layers0 = list(head0.hidden_layers) + [head0.output_layer]
    layers1 = list(head1.hidden_layers) + [head1.output_layer]
    stacked = [
        (
            np.stack([l0.weight.data, l1.weight.data]),
            np.stack([l0.bias.data[None, :], l1.bias.data[None, :]]),
        )
        for l0, l1 in zip(layers0, layers1)
    ]

    def forward(representation: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        out = representation  # (n, d) broadcast against the (2, d, h) stacks
        last = len(stacked) - 1
        for index, (weight, bias) in enumerate(stacked):
            out = np.matmul(out, weight)
            np.add(out, bias, out=out)
            if index < last:
                out = activation(out)
        if binary:
            out = _np_sigmoid(out)
        return out[0, :, 0], out[1, :, 0]

    return forward


def compile_backbone(backbone) -> Optional[CompiledInference]:
    """Return a pure-NumPy ``covariates -> (mu0, mu1)`` closure, or ``None``.

    Only the stock architectures are compiled; anything with an overridden
    ``forward`` or custom component modules falls back to the autodiff path.
    """
    from .dercfr import DeRCFR
    from .tarnet import TARNet

    forward_impl = getattr(type(backbone), "forward", None)

    if isinstance(backbone, DeRCFR) and forward_impl is DeRCFR.forward:
        confounder = _compile_representation(backbone.confounder_net)
        adjustment = _compile_representation(backbone.adjustment_net)
        heads = _compile_two_heads(backbone.predictor)
        if confounder is None or adjustment is None or heads is None:
            return None

        def dercfr_inference(covariates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            # Prediction needs only the outcome path: the instrument and
            # treatment networks never feed mu0 / mu1.
            outcome_input = np.concatenate(
                [confounder(covariates), adjustment(covariates)], axis=1
            )
            return heads(outcome_input)

        return dercfr_inference

    if isinstance(backbone, TARNet) and forward_impl is TARNet.forward:
        representation = _compile_representation(backbone.representation)
        heads = _compile_two_heads(backbone.predictor)
        if representation is None or heads is None:
            return None

        def tarnet_inference(covariates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            return heads(representation(covariates))

        return tarnet_inference

    return None
