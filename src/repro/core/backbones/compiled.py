"""Compiled inference for fitted backbones: the op table over a parameter snapshot.

``compile_backbone`` turns a stock TARNet / CFR / DeR-CFR into a closure
``covariates -> (mu0, mu1)`` that builds no Tensor and no graph.  Each layer
calls the op table's own forward math (:mod:`repro.nn.kernels`): the
``linear``, ``elu`` and ``sigmoid`` array functions that its eager kernels
call, and the ``relu``, ``tanh``, ``softplus`` and ``normalize_rows``
kernels' ``fwd``.  No activation or normalisation is written here, so served
predictions equal the autodiff forward (:meth:`BaseBackbone._predict_eager`)
bit for bit.  The two outcome heads are packed: their weights are stacked
into ``(2, in, out)`` arrays and each head layer is one batched ``linear``,
which computes each head's slice with that head's own gemm.

Compiling copies every parameter, so a closure is one coherent parameter
version; it casts its input to that snapshot's dtype.
``BaseBackbone._compiled_inference`` re-compiles when a parameter's
``(buffer identity, _version)`` changes (``Optimizer.step`` bumps
``_version``; ``load_state_dict`` and ``param.data = ...`` swap buffers).
After an in-place write that bumps nothing (``param.data[...] = v``), call
:meth:`BaseBackbone.invalidate_compiled`.  A custom ``forward`` or component
module is refused (``None``), and ``predict`` runs the autodiff forward.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

import numpy as np

from ...nn.kernels import KERNELS, elu, linear, sigmoid
from ...nn.modules import _ACTIVATIONS, MLP, Linear, RepresentationNetwork
from .base import TwoHeadPredictor
from .dercfr import DeRCFR
from .tarnet import TARNet

__all__ = ["compile_backbone"]

Step = Callable[[np.ndarray], np.ndarray]


class _Refused(Exception):
    """A module the walk does not compile."""


def _kernel_step(op: str, attrs=None) -> Step:
    """One op's eager ``fwd`` (into a fresh output) as ``x -> y``."""
    fwd = KERNELS[op].fwd
    return lambda x: fwd(None, (x,), attrs, {})


def _activation(activation) -> Optional[Step]:
    """The array step of a stock activation; ``None`` for the identity."""
    name = next((key for key, stock in _ACTIVATIONS.items() if stock is activation), None)
    if name is None:
        raise _Refused
    if name == "elu":
        return elu  # at F.elu's default alpha, 1.0
    if name == "sigmoid":
        return sigmoid
    return None if name == "identity" else _kernel_step(name)


def _stock_layers(mlp, with_output: bool) -> List[Linear]:
    """The Linear layers of a stock MLP with (or without) an output layer."""
    if type(mlp) is not MLP or (mlp.output_layer is not None) != with_output:
        raise _Refused
    layers = list(mlp.hidden_layers) + ([mlp.output_layer] if with_output else [])
    if mlp.output_activation is not None or any(
        type(layer) is not Linear or layer.bias is None for layer in layers
    ):
        raise _Refused
    return layers


def _chain(layers) -> Step:
    """``x -> activation(linear(x, weight, bias))`` over ``(weight, bias, activation)``."""
    steps = [
        (lambda x, w=w, b=b: linear(x, w, b))
        if act is None
        else (lambda x, w=w, b=b, act=act: act(linear(x, w, b)))
        for w, b, act in layers
    ]

    def run(x: np.ndarray) -> np.ndarray:
        for step in steps:
            x = step(x)
        return x

    return run


def _representation(network) -> Step:
    """``x -> Φ(x)``: the hidden layers, then the optional row normalisation."""
    if type(network) is not RepresentationNetwork:
        raise _Refused
    act = _activation(network.mlp.activation)
    layers = _stock_layers(network.mlp, with_output=False)
    run = _chain([(layer.weight.data.copy(), layer.bias.data.copy(), act) for layer in layers])
    if not network.normalize:
        return run
    # F.normalize_rows' default eps, which RepresentationNetwork uses.
    normalize = _kernel_step("normalize_rows", {"eps": 1e-8})
    return lambda x: normalize(run(x))


def _packed_heads(predictor) -> Step:
    """``representation (n, d) -> (2, n, 1)``: both heads, one batched layer at a time."""
    if type(predictor) is not TwoHeadPredictor:
        raise _Refused
    head0, head1 = predictor.head0, predictor.head1
    pairs = list(zip(_stock_layers(head0, True), _stock_layers(head1, True)))
    if head0.hidden_sizes != head1.hidden_sizes or head0.activation is not head1.activation:
        raise _Refused
    acts = [_activation(head0.activation)] * (len(pairs) - 1)
    acts.append(sigmoid if predictor.binary_outcome else None)
    return _chain([
        (
            np.stack([l0.weight.data, l1.weight.data]),
            np.stack([l0.bias.data, l1.bias.data])[:, None, :],
            act,
        )
        for (l0, l1), act in zip(pairs, acts)
    ])


def compile_backbone(backbone) -> Optional[Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]]:
    """Return a ``covariates -> (mu0, mu1)`` closure over the op table, or ``None``."""
    forward_impl = getattr(type(backbone), "forward", None)
    try:
        if isinstance(backbone, DeRCFR) and forward_impl is DeRCFR.forward:
            # Only the outcome path feeds mu0 / mu1, not the instrument or
            # treatment networks.
            confounder = _representation(backbone.confounder_net)
            adjustment = _representation(backbone.adjustment_net)

            def represent(x: np.ndarray) -> np.ndarray:
                return np.concatenate([confounder(x), adjustment(x)], axis=1)

        elif isinstance(backbone, TARNet) and forward_impl is TARNet.forward:
            represent = _representation(backbone.representation)
        else:
            return None
        heads = _packed_heads(backbone.predictor)
    except _Refused:
        return None
    dtype = backbone.parameter_dtype()

    def inference(covariates: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        out = heads(represent(np.asarray(covariates, dtype=dtype)))  # (2, n, 1)
        return out[0, :, 0], out[1, :, 0]

    return inference
