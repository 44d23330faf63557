"""Minimal NumPy-based neural-network substrate (autodiff, modules, optim).

This package replaces the TensorFlow 1.15 dependency of the original
SBRL-HAP implementation.  See ``DESIGN.md`` for the substitution rationale.
"""

from . import functional
from .init import he_normal, ones, xavier_normal, xavier_uniform, zeros
from .modules import MLP, Linear, Module, RepresentationNetwork, Sequential
from .optim import (
    SGD,
    Adam,
    AdamW,
    ConstantSchedule,
    CosineDecay,
    ExponentialDecay,
    Optimizer,
    RMSprop,
    StepDecay,
    WarmupSchedule,
    build_optimizer,
    build_schedule,
)
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    graph_node_count,
    is_grad_enabled,
    no_grad,
    stack,
    tensor_alloc_count,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "no_grad",
    "is_grad_enabled",
    "graph_node_count",
    "tensor_alloc_count",
    "functional",
    "Module",
    "Linear",
    "Sequential",
    "MLP",
    "RepresentationNetwork",
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
    "build_optimizer",
    "build_schedule",
    "xavier_uniform",
    "xavier_normal",
    "he_normal",
    "zeros",
    "ones",
]
