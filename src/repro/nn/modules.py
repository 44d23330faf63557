"""Neural-network module system built on the autodiff :class:`Tensor`.

Mirrors the small subset of a deep-learning framework that the SBRL-HAP
backbones require: parameter containers, linear layers, representation
normalisation, and multi-layer perceptrons that can expose every hidden
activation (the Hierarchical-Attention Paradigm needs access to each layer's
output ``Z_o``, the representation layer ``Z_r`` and the last hidden layer
``Z_p``).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import ArrayLike, Tensor, as_tensor

__all__ = ["Module", "Linear", "Sequential", "MLP", "RepresentationNetwork"]

Activation = Callable[[Tensor], Tensor]

_ACTIVATIONS: Dict[str, Activation] = {
    "elu": F.elu,
    "relu": F.relu,
    "sigmoid": F.sigmoid,
    "tanh": F.tanh,
    "softplus": F.softplus,
    "identity": lambda x: as_tensor(x),
}


def resolve_activation(activation) -> Activation:
    """Map an activation name (or callable) to a callable."""
    if callable(activation):
        return activation
    try:
        return _ACTIVATIONS[activation]
    except KeyError as exc:
        raise ValueError(
            f"unknown activation {activation!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from exc


class Module:
    """Base class for parameterised components.

    Subclasses register parameters (tensors with ``requires_grad=True``) as
    attributes or register child modules; :meth:`parameters` walks the tree.
    """

    def __init__(self) -> None:
        self._parameters: Dict[str, Tensor] = {}
        self._children: Dict[str, "Module"] = {}

    def register_parameter(self, name: str, tensor: Tensor) -> Tensor:
        """Track ``tensor`` as a trainable parameter named ``name``."""
        tensor.requires_grad = True
        tensor.name = name
        self._parameters[name] = tensor
        return tensor

    def register_module(self, name: str, module: "Module") -> "Module":
        """Track a child module under ``name``."""
        self._children[name] = module
        return module

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Module) and name not in ("_parameters", "_children"):
            object.__setattr__(self, name, value)
            self._children[name] = value
        else:
            object.__setattr__(self, name, value)

    def parameters(self) -> Iterator[Tensor]:
        """Yield every parameter in this module and its children."""
        seen: set[int] = set()
        for param in self._parameters.values():
            if id(param) not in seen:
                seen.add(id(param))
                yield param
        for child in self._children.values():
            for param in child.parameters():
                if id(param) not in seen:
                    seen.add(id(param))
                    yield param

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Tensor]]:
        """Yield ``(qualified_name, parameter)`` pairs."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for child_name, child in self._children.items():
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def zero_grad(self) -> None:
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return sum(p.size for p in self.parameters())

    def parameter_dtype(self) -> np.dtype:
        """Dtype of this module's parameters (float64 if it has none)."""
        for param in self.parameters():
            return np.dtype(param.data.dtype)
        return np.dtype(np.float64)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy all parameter values keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore parameter values previously captured by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise KeyError(f"state mismatch: missing={sorted(missing)}, unexpected={sorted(unexpected)}")
        for name, values in state.items():
            param = params[name]
            if param.data.shape != values.shape:
                raise ValueError(f"shape mismatch for {name}: {param.data.shape} vs {values.shape}")
            param.data = values.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        """Compute the module's output (abstract)."""
        raise NotImplementedError


class Linear(Module):
    """Affine layer ``y = x @ W + b`` with Xavier-initialised weights."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: Optional[np.random.Generator] = None,
        bias: bool = True,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear layer dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            "weight", Tensor(init.xavier_normal((in_features, out_features), rng))
        )
        self.bias: Optional[Tensor]
        if bias:
            self.bias = self.register_parameter("bias", Tensor(init.zeros(out_features)))
        else:
            self.bias = None

    def forward(self, x: ArrayLike) -> Tensor:
        """Affine map ``x @ weight + bias``."""
        return F.linear(x, self.weight, self.bias)


class Sequential(Module):
    """Run child modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._order: List[str] = []
        for index, module in enumerate(modules):
            name = f"layer{index}"
            self.register_module(name, module)
            self._order.append(name)

    def forward(self, x: ArrayLike) -> Tensor:
        """Apply every layer in registration order."""
        out = as_tensor(x)
        for name in self._order:
            out = self._children[name](out)
        return out

    def __iter__(self) -> Iterator[Module]:
        return (self._children[name] for name in self._order)

    def __len__(self) -> int:
        return len(self._order)


class MLP(Module):
    """Multi-layer perceptron exposing each hidden activation.

    Parameters
    ----------
    in_features:
        Input dimensionality.
    hidden_sizes:
        Width of each hidden layer.
    out_features:
        Output dimensionality; ``None`` means the network ends at the last
        hidden layer (useful for representation networks).
    activation:
        Name or callable used after every hidden layer.
    output_activation:
        Optional activation applied to the final output.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        out_features: Optional[int] = None,
        activation: str = "elu",
        output_activation: Optional[str] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        self.activation = resolve_activation(activation)
        self.output_activation = (
            resolve_activation(output_activation) if output_activation is not None else None
        )
        self.hidden_sizes = list(hidden_sizes)
        self.out_features = out_features

        self.hidden_layers: List[Linear] = []
        previous = in_features
        for index, width in enumerate(self.hidden_sizes):
            layer = Linear(previous, width, rng=rng)
            self.register_module(f"hidden{index}", layer)
            self.hidden_layers.append(layer)
            previous = width

        self.output_layer: Optional[Linear] = None
        if out_features is not None:
            self.output_layer = Linear(previous, out_features, rng=rng)
            self.register_module("output", self.output_layer)
        self.output_dim = out_features if out_features is not None else previous

    def forward(self, x: ArrayLike) -> Tensor:
        """Hidden stack plus the optional output layer."""
        out, _ = self.forward_with_hidden(x)
        return out

    def forward_with_hidden(self, x: ArrayLike) -> Tuple[Tensor, List[Tensor]]:
        """Return the output and the list of hidden activations (post-activation)."""
        out = as_tensor(x)
        hidden: List[Tensor] = []
        for layer in self.hidden_layers:
            out = self.activation(layer(out))
            hidden.append(out)
        if self.output_layer is not None:
            out = self.output_layer(out)
            if self.output_activation is not None:
                out = self.output_activation(out)
        return out, hidden


class RepresentationNetwork(Module):
    """Shared representation network Φ(x) with optional row normalisation.

    The paper optionally projects the representation onto the unit sphere
    (``rep_normalization`` in Tables IV/V); hidden activations are exposed for
    the Hierarchical-Attention Paradigm.
    """

    def __init__(
        self,
        in_features: int,
        hidden_sizes: Sequence[int],
        activation: str = "elu",
        normalize: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        if not hidden_sizes:
            raise ValueError("RepresentationNetwork needs at least one hidden layer")
        self.mlp = MLP(in_features, hidden_sizes, out_features=None, activation=activation, rng=rng)
        self.normalize = normalize
        self.output_dim = self.mlp.output_dim

    def forward(self, x: ArrayLike) -> Tensor:
        """Representation of ``x`` (optionally row-normalised)."""
        rep, _ = self.forward_with_hidden(x)
        return rep

    def forward_with_hidden(self, x: ArrayLike) -> Tuple[Tensor, List[Tensor]]:
        """Return (Φ(x), hidden activations *before* the final representation)."""
        rep, hidden = self.mlp.forward_with_hidden(x)
        if self.normalize:
            rep = F.normalize_rows(rep)
        # ``hidden`` includes the representation layer itself as its last
        # element; the intermediate layers are everything before it.
        intermediate = hidden[:-1]
        return rep, intermediate
