"""Reverse-mode automatic differentiation over NumPy arrays.

The paper's reference implementation uses TensorFlow 1.15.  That dependency
is not available in this environment, so the repository ships its own small
but complete autodiff engine.  The engine supports everything the SBRL-HAP
training procedure needs:

* broadcasting arithmetic (``+``, ``-``, ``*``, ``/``, ``**``),
* matrix multiplication,
* reductions (``sum``, ``mean``, ``var``) over arbitrary axes,
* elementwise non-linearities (exp, log, sqrt, tanh, sigmoid, ELU, ReLU,
  cos, abs, clip),
* shape manipulation (reshape, transpose, concatenation, slicing),
* gradient accumulation through arbitrary DAGs via topological ordering.

Every op is one entry of the kernel table (:mod:`repro.nn.kernels`).  An
op method checks its inputs and calls :func:`_apply`, which runs the
kernel's forward, keeps ``(kernel, attrs, ctx)`` on the output node when a
parent needs a gradient, and notifies an active tape recorder;
:meth:`Tensor.backward` then calls the same kernel's VJP.  Graph replay
(:mod:`repro.nn.tape`) runs the same kernels, so eager and replayed steps
agree by construction.  :meth:`Tensor._make` remains for ops built from a
backward closure outside the table (reference compositions in tests);
replay cannot record those.

The engine is tuned for the training hot path:

* **dtype from the data** — there is no process-wide dtype.  A tensor keeps
  the dtype of a ``float32`` or ``float64`` array (anything else becomes
  ``float64``), and an op's non-Tensor operand is made in the dtype of the
  tensor it meets (``x * alpha``, ``1.0 - mask``, the divisor of
  :meth:`Tensor.mean`), so a float32 graph stays float32 and fits in
  different dtypes can run side by side on threads.  A fit's precision is
  its parameters' (``TrainingConfig.dtype``, applied by the trainer).
* **zero-copy backprop** — gradient buffers are allocated once per graph
  edge fan-in and then accumulated in place (``np.add(..., out=...)``)
  whenever the buffer is owned by the backward pass; no defensive
  ``asarray``/``copy`` per hop.
* **graph release** — :meth:`Tensor.backward` drops each node's op state
  and parent links right after its own VJP (unless ``retain_graph=True``),
  so each VJP's ``ctx`` buffers are freed while the backward runs, not
  when it ends, and step N's activations before step N+1 allocates.

Gradients are validated against central finite differences in
``tests/test_nn_tensor.py`` and the hypothesis suite.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np

from .kernels import KERNELS, _unbroadcast

ArrayLike = Union[np.ndarray, float, int, Sequence[float], "Tensor"]

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "tensor_alloc_count",
    "graph_node_count",
]


class _GradMode(threading.local):
    """Per-thread switch used by :func:`no_grad`.

    Thread-local like the tape hook: one thread's ``no_grad()`` block does
    not stop another thread from building a graph.
    """

    def __init__(self) -> None:
        self.enabled = True


_GRAD = _GradMode()


class no_grad:
    """Context manager disabling graph construction (inference mode) on this thread."""

    def __enter__(self) -> "no_grad":
        self._previous = _GRAD.enabled
        _GRAD.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _GRAD.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether new operations on this thread are recorded onto the autodiff graph."""
    return _GRAD.enabled


# --------------------------------------------------------------------------- #
# Instrumentation (used by benchmarks/bench_autodiff.py)
# --------------------------------------------------------------------------- #
class _AllocStats(threading.local):
    """Per-thread counter of Tensor constructions (one per recorded op).

    Thread-local like :func:`no_grad`: a fit reading it counts its own
    tensors, not those of a fit or a server running on another thread.
    """

    def __init__(self) -> None:
        self.tensors = 0


_ALLOCS = _AllocStats()


def tensor_alloc_count() -> int:
    """Monotonic count of :class:`Tensor` objects constructed so far on this thread.

    The difference of two readings brackets the allocation cost of a code
    region — every NumPy op on tensors allocates exactly one node, so this
    is the graph-size metric the fused-kernel benchmarks report.
    """
    return _ALLOCS.tensors


def graph_node_count(root: "Tensor") -> int:
    """Number of nodes reachable from ``root`` through parent links."""
    seen: set = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(node._parents)
    return len(seen)


class _BackwardState:
    """Per-``backward()`` scratch: pending gradients and buffer ownership.

    ``grads`` maps ``id(tensor)`` to the accumulated gradient buffer.
    ``owned`` holds the ids whose buffer was freshly allocated *by this
    backward pass* (an unbroadcast reduction or a fan-in addition) and is
    therefore safe to accumulate into in place.  Buffers received verbatim
    from an op's VJP are never owned — the same array may have been sent
    to a sibling parent, be a read-only broadcast view, or be a kernel's
    scratch buffer.
    """

    __slots__ = ("grads", "owned")

    def __init__(self) -> None:
        self.grads: dict = {}
        self.owned: set = set()


def _send(state: _BackwardState, parent: "Tensor", grad: np.ndarray) -> None:
    """Accumulate ``grad`` for ``parent`` during backprop (zero-copy).

    The first gradient reaching a parent is stored as-is; fan-in
    accumulation allocates once and every further contribution is added
    in place into that owned buffer.
    """
    if not parent.requires_grad and parent._backward is None:
        return  # constants never route gradients further
    unbroadcast = _unbroadcast(grad, parent.data.shape)
    key = id(parent)
    existing = state.grads.get(key)
    if existing is None:
        state.grads[key] = unbroadcast
        if unbroadcast is not grad:
            state.owned.add(key)  # the reduction allocated a fresh buffer
    elif key in state.owned:
        np.add(existing, unbroadcast, out=existing)
    else:
        state.grads[key] = existing + unbroadcast
        state.owned.add(key)


def _vjp(state: _BackwardState, node: "Tensor", grad: np.ndarray, kernel, attrs, ctx) -> None:
    """Run ``node``'s kernel VJP and send each parent its gradient.

    A function of its own so that nothing of the VJP (its ``ctx``, the
    gradients it returned) outlives the call in a local of the backward.
    """
    parents = node._parents
    grads = kernel.vjp(
        grad, [p.data for p in parents], node.data, attrs, ctx, [p.requires_grad for p in parents]
    )
    for parent, parent_grad in zip(parents, grads):
        if parent_grad is not None:
            _send(state, parent, parent_grad)


def _released_backward(grad: np.ndarray) -> None:
    raise RuntimeError(
        "backward() through a graph that has already been freed; pass "
        "retain_graph=True to the first backward() call to keep the graph"
    )


# --------------------------------------------------------------------------- #
# Graph-replay record hook (see repro.nn.tape)
# --------------------------------------------------------------------------- #
class _TapeHookLocal(threading.local):
    """Thread-local registration point for the graph-replay recorder.

    Thread-local so a recording on one thread neither captures ops from, nor
    is polluted by, concurrent fits running on other threads.  ``recorder``
    is ``None`` whenever no recording is active, making the per-op overhead
    a single attribute read.
    """

    def __init__(self) -> None:
        self.recorder = None


_TAPE = _TapeHookLocal()


def _apply(op: str, parents: Tuple["Tensor", ...], attrs: Optional[dict] = None) -> "Tensor":
    """Run op ``op`` of the kernel table eagerly; every op goes through here.

    The kernel's forward returns a fresh array, wrapped in the output
    tensor.  When grad mode is on and a parent requires a gradient, the
    node keeps its parents and ``(kernel, attrs, ctx)`` for
    :meth:`Tensor.backward`; under :class:`no_grad` it keeps nothing.  This
    is the one place an active tape recorder is notified.
    """
    kernel = KERNELS[op]
    ctx: dict = {}
    out = Tensor(kernel.fwd(None, [p.data for p in parents], attrs, ctx))
    if _GRAD.enabled:
        for parent in parents:
            if parent.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = (kernel, attrs, ctx)
                break
    rec = _TAPE.recorder
    if rec is not None:
        rec.record(out, kernel, parents, attrs)
    return out


#: The dtypes a tensor keeps; any other data is stored as float64.
_FLOATS = (np.dtype(np.float64), np.dtype(np.float32))


class Tensor:
    """A NumPy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Any array-like value.  A ``float32`` or ``float64`` array keeps its
        dtype (and is not copied); anything else is stored as ``float64``.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    # __weakref__ keeps tensors weak-referenceable so graph-release tests
    # (and memory tooling) can observe node lifetime directly.  ``_version``
    # is bumped by in-place parameter updates (repro.nn.optim) so callers
    # that key caches by buffer identity can detect mutation; it is left
    # unset until the first in-place write to keep construction cheap.
    # ``_backward`` is ``None`` on leaves, ``(kernel, attrs, ctx)`` on op
    # nodes, and a closure on nodes built by :meth:`_make`.
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_route", "_version", "__weakref__")

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        _parents: Tuple["Tensor", ...] = (),
        name: Optional[str] = None,
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        data = np.asarray(data)
        if data.dtype not in _FLOATS:
            data = data.astype(np.float64)
        self.data = data
        self.requires_grad = bool(requires_grad) and _GRAD.enabled
        self.grad: Optional[np.ndarray] = None
        self._backward = None
        # Retaining parents on a grad-free tensor would keep whole subgraphs
        # alive under no_grad(); only record them when gradients can flow.
        self._parents: Tuple[Tensor, ...] = _parents if self.requires_grad else ()
        self.name = name
        _ALLOCS.tensors += 1

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transpose, ``self.transpose()``."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------ #
    # Graph machinery
    # ------------------------------------------------------------------ #
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Tuple["Tensor", ...],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """A node whose VJP is the closure ``backward(grad)``, outside the kernel table.

        The closure routes gradients with ``out._send(parent, grad)``.  A
        tape recording never captures such a node, so a step that uses one
        aborts its recording and trains eagerly.
        """
        requires = _GRAD.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _send(self, parent: "Tensor", grad: np.ndarray) -> None:
        """Route ``grad`` to ``parent`` from a :meth:`_make` closure."""
        _send(self._route, parent, grad)  # type: ignore[attr-defined]

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Fold ``grad`` into :attr:`grad`, taking ownership when allowed."""
        unbroadcast = _unbroadcast(grad, self.data.shape)
        if unbroadcast is not grad:
            owned = True  # the reduction allocated a fresh buffer
        if self.grad is None:
            self.grad = unbroadcast if owned else unbroadcast.copy()
        elif self.grad.flags.writeable:
            np.add(self.grad, unbroadcast, out=self.grad)
        else:
            self.grad = self.grad + unbroadcast

    def backward(self, grad: Optional[ArrayLike] = None, retain_graph: bool = False) -> None:
        """Run reverse-mode differentiation from this tensor.

        ``grad`` defaults to 1 for scalar tensors.  Gradients accumulate in
        the ``grad`` attribute of every reachable tensor that has
        ``requires_grad=True``.

        Unless ``retain_graph`` is set, the traversed graph is *released*:
        each node's op state and parent links are dropped right after its
        own VJP, so its ``ctx`` buffers are freed before the next VJP runs;
        a node the backward did not reach (no gradient, or an exception) is
        released when it ends.  A second ``backward()`` through a released
        graph raises ``RuntimeError``.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        seed_owned = False
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar tensors")
            grad = np.ones_like(self.data)
            seed_owned = True
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)

        # Iterative topological sort (deep graphs, e.g. long sums of HSIC
        # terms, would overflow Python's recursion limit otherwise).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        rec = _TAPE.recorder
        if rec is not None:
            # A replay program runs its backward in this order.
            rec.on_backward(topo, retain_graph)

        state = _BackwardState()
        state.grads[id(self)] = grad
        if seed_owned:
            state.owned.add(id(self))
        try:
            for node in reversed(topo):
                key = id(node)
                node_grad = state.grads.pop(key, None)
                if node_grad is None:
                    continue
                owned = key in state.owned
                state.owned.discard(key)
                step = node._backward
                if step is None:
                    if node.requires_grad:
                        # Leaf (or explicitly retained parameter-like node).
                        node._accumulate(node_grad, owned=owned)
                    continue
                if type(step) is tuple:
                    _vjp(state, node, node_grad, *step)
                else:
                    node._route = state
                    try:
                        step(node_grad)
                    finally:
                        del node._route
                if not retain_graph:
                    node._backward = _released_backward
                    node._parents = ()
        finally:
            if not retain_graph:
                for node in topo:
                    if node._backward is not None:
                        node._backward = _released_backward
                        node._parents = ()

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: ArrayLike) -> "Tensor":
        return _apply("add", (self, as_tensor(other, like=self)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return _apply("neg", (self,))

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-as_tensor(other, like=self))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, like=self) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        return _apply("mul", (self, as_tensor(other, like=self)))

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        return _apply("div", (self, as_tensor(other, like=self)))

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return as_tensor(other, like=self) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("Tensor.__pow__ only supports scalar exponents")
        return _apply("pow", (self,), {"exponent": float(exponent)})

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: ArrayLike) -> "Tensor":
        """Matrix multiplication with gradient support for 1-D and 2-D operands."""
        return _apply("matmul", (self, as_tensor(other, like=self)))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Sum over ``axis`` (all elements when ``None``)."""
        return _apply("sum", (self,), {"axis": axis, "keepdims": keepdims})

    def mean(self, axis: Optional[Union[int, Tuple[int, ...]]] = None, keepdims: bool = False) -> "Tensor":
        """Mean over ``axis``."""
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) / float(count)

    def var(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        """Variance over ``axis`` (biased, ddof=0)."""
        centred = self - self.mean(axis=axis, keepdims=True)
        return (centred * centred).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        """Elementwise ``e**x``."""
        return _apply("exp", (self,))

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        return _apply("log", (self,))

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return _apply("sqrt", (self,))

    def abs(self) -> "Tensor":
        """Elementwise absolute value."""
        return _apply("abs", (self,))

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        return _apply("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid (input clipped to +/-60)."""
        return _apply("sigmoid", (self,))

    def relu(self) -> "Tensor":
        """Elementwise ``max(x, 0)``."""
        return _apply("relu", (self,))

    def elu(self, alpha: float = 1.0) -> "Tensor":
        """Elementwise ELU with slope ``alpha`` on the negative side.

        ELU is defined for ``alpha > 0``; any other ``alpha`` raises
        :class:`ValueError`.
        """
        alpha = float(alpha)
        if not (math.isfinite(alpha) and alpha > 0.0):
            raise ValueError(f"ELU needs a finite alpha > 0, got {alpha!r}")
        return _apply("elu", (self,), {"alpha": alpha})

    def softplus(self) -> "Tensor":
        """Elementwise ``log(1 + e**x)``."""
        return _apply("softplus", (self,))

    def cos(self) -> "Tensor":
        """Elementwise cosine."""
        return _apply("cos", (self,))

    def sin(self) -> "Tensor":
        """Elementwise sine."""
        return _apply("sin", (self,))

    def clip(self, low: Optional[float], high: Optional[float]) -> "Tensor":
        """Clamp values to ``[low, high]`` (gradient is zero outside).

        Either bound may be ``None`` for a one-sided clip.
        """
        return _apply("clip", (self,), {"low": low, "high": high})

    def maximum(self, other: ArrayLike) -> "Tensor":
        """Elementwise maximum with ``other``."""
        return _apply("maximum", (self, as_tensor(other, like=self)))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape: int) -> "Tensor":
        """Reshaped tensor over the same data."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return _apply("reshape", (self,), {"shape": shape})

    def transpose(self, axes: Optional[Tuple[int, ...]] = None) -> "Tensor":
        """Axes-permuted tensor (axes reversed when ``None``)."""
        return _apply("transpose", (self,), {"axes": axes})

    def __getitem__(self, index) -> "Tensor":
        return _apply("getitem", (self,), {"index": index})


def as_tensor(
    value: ArrayLike, requires_grad: bool = False, like: Optional[Tensor] = None
) -> Tensor:
    """Coerce ``value`` into a :class:`Tensor` (no copy when already one).

    With ``like``, a value that is not a Tensor is made in ``like``'s dtype:
    an op's constant operand (``x * alpha``, a loss target, the start of a
    sum) takes the precision of the tensor it meets, which NumPy would
    otherwise promote to float64 without a word.
    """
    if isinstance(value, Tensor):
        return value
    if like is not None:
        value = np.asarray(value, dtype=like.data.dtype)
    return Tensor(value, requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing to each input."""
    return _apply("concatenate", tuple([as_tensor(t) for t in tensors]), {"axis": axis})


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis."""
    return _apply("stack", tuple([as_tensor(t) for t in tensors]), {"axis": axis})
