"""The op table: one forward and one VJP kernel per autodiff op (NumPy only).

Every differentiable op of :mod:`repro.nn` is defined here once, as a
``fwd``/``vjp`` pair in :data:`KERNELS`.  Eager autodiff
(:func:`repro.nn.tensor._apply` and :meth:`Tensor.backward
<repro.nn.tensor.Tensor.backward>`) and :class:`~repro.nn.tape.ReplayProgram`
both run these kernels, so an eager step and its replay compute the same
array expressions by construction.  This module imports nothing from the rest of the package.

Kernel signature::

    fwd(out, ins, attrs, ctx)               -> the op result
    vjp(grad, ins, out, attrs, ctx, needs)  -> one gradient per parent
                                               (None where needs is False)

* ``ins`` are the parents' arrays and ``attrs`` the op's constant
  arguments (``None`` for eager ops that take none).
* ``out`` is ``None`` in eager mode, where ``fwd`` returns a fresh array.
  Replay passes its preallocated buffer, and ``fwd`` writes the result
  into it and returns it.
* ``ctx`` is a per-node dict in eager mode (dropped when the graph is
  released) and a per-instruction dict that persists across runs in
  replay.  Values the VJP reads are kept there with :func:`_scratch`;
  forward-only scratch comes from :func:`_tmp`, which is a plain
  temporary in eager mode so an eager node holds no more than its VJP
  needs, and in replay a view from the program's one workspace.  An op
  whose caller lends it a :class:`Workspace` (through ``attrs``) takes
  its forward-only blocks from there instead.
* A buffer a ``vjp`` takes with :func:`_scratch` holds nothing on entry
  (eager mode hands it out fresh), so replay may lay it in memory that
  other gradients use at other times.  Where a gradient has its input's
  shape, a planned program's VJP computes it into such a buffer
  (:func:`_into`); eager mode keeps it fresh.
* ``vjp`` never mutates ``grad`` (replay reuses the root seed buffer).

Compiled serving (:mod:`repro.core.backbones.compiled`) runs this math too:
the array functions ``linear``, ``elu`` and ``sigmoid`` that those kernels'
forwards call, and the other ops' ``fwd``.  The weight step computes its
RFF features with the array function ``rff_features`` straight into a
:class:`Pool`'s bytes.
"""

from __future__ import annotations

import math
import mmap
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

__all__ = [
    "Kernel", "KERNELS", "Pool", "TapeStale", "Workspace", "elu", "linear", "rff_features", "sigmoid",
]

#: Byte alignment of every region laid out in a :class:`Pool`.
ALIGN = 64


class TapeStale(RuntimeError):
    """A replayed program's assumptions no longer hold; re-record the step."""


def aligned(nbytes: int) -> int:
    """``nbytes`` rounded up to a multiple of :data:`ALIGN`."""
    return -(-nbytes // ALIGN) * ALIGN


#: Mappings at least this large ask for transparent huge pages, as NumPy
#: does for its own large arrays (fewer page faults per byte touched).
_HUGE = 4 << 20


def _map(nbytes: int) -> np.ndarray:
    """``nbytes`` fresh bytes from an anonymous private mapping.

    Not from malloc's heap, so the pages go back to the system as soon as
    the last view of them dies, whatever the allocator's thresholds.
    ``np.empty`` where the platform has no private mappings.
    """
    if not nbytes or not hasattr(mmap, "MAP_PRIVATE"):
        return np.empty(nbytes, dtype=np.uint8)
    memory = mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    if nbytes >= _HUGE and hasattr(mmap, "MADV_HUGEPAGE"):
        memory.madvise(mmap.MADV_HUGEPAGE)
    return np.frombuffer(memory, dtype=np.uint8)


def mapped(shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised ``shape`` array of ``dtype`` in a mapping of its own."""
    dtype = np.dtype(dtype)
    return _map(math.prod(shape) * dtype.itemsize).view(dtype).reshape(shape)


def region(buffer: np.ndarray, offset: int, dtype, shape: Tuple[int, ...]) -> np.ndarray:
    """The ``shape`` array of ``dtype`` at byte ``offset`` of ``buffer``."""
    return np.ndarray(shape, dtype, buffer, offset)


class Pool:
    """One fit's scratch bytes, lent in turns to tenants that never run at the same time.

    A fit's two phases, the replay program's run and the weight step, each
    keep large blocks that are dead while the other phase runs.  Both lay
    their blocks out from offset 0 of one buffer, so the fit holds the
    larger phase's bytes, not the sum of the two.

    :meth:`reserve` states a size a tenant's layout needs; :meth:`claim`
    starts a tenant's turn and returns the buffer, first replaced by one of
    the largest reserved size if it is smaller.  A tenant drops every view
    of the buffer when its turn ends, so a replaced buffer has no view left
    and two buffers are never both alive.  The buffer is an anonymous
    mapping (see :func:`_map`): its pages go back to the system when the
    pool and the last view go.  Under :data:`repro.nn.tape.POISON_FREED`
    every claim fills the buffer with NaN.  Not for sharing between
    threads.
    """

    def __init__(self) -> None:
        self.buffer: np.ndarray = np.empty(0, dtype=np.uint8)
        #: The largest size any tenant has reserved, in bytes.
        self.nbytes = 0

    def reserve(self, nbytes: int) -> None:
        """Ask for ``nbytes``; the buffer grows to them at the next :meth:`claim`."""
        self.nbytes = max(self.nbytes, nbytes)

    def claim(self) -> np.ndarray:
        """Start a tenant's turn: the buffer, grown to every reservation."""
        if self.buffer.nbytes < self.nbytes:
            self.buffer = np.empty(0, dtype=np.uint8)  # freed before its successor is mapped
            self.buffer = _map(self.nbytes)
        from . import tape  # the poison switch lives with the replay engine

        if tape.POISON_FREED:
            self.buffer.fill(0xFF)
        return self.buffer


class Workspace:
    """Grow-only scratch buffers that one owner lends to kernels across calls.

    :meth:`take` returns a view of the requested shape into a flat buffer
    kept per ``(key, dtype)``.  A buffer only grows, so calls of different
    shapes share one allocation and its pages stay mapped between calls
    instead of being freed and faulted in again.  A view is valid until
    the next :meth:`take` of the same key, so a kernel uses it within one
    call and saves nothing from it.  The owner sets the lifetime and must
    not share one between threads.  Equality is identity, which is how a
    recorded program compares the attrs that carry it.

    With a :class:`Pool`, each buffer is a region of the pool's bytes,
    laid out from ``origin`` in the order of first takes and kept there,
    so every use of the workspace finds its buffers at the same offsets.
    The views are of the buffer last passed to :meth:`bind` (the workspace
    binds itself in :meth:`claim` when it is a tenant of its own).  Until
    the pool grows to cover a region, the region is a mapping of its own
    (see :func:`_map`).  :meth:`evict` drops them all, and the owner calls
    it when the workspace's turn ends.
    """

    def __init__(self, pool: Optional[Pool] = None, origin: int = 0) -> None:
        self.pool = pool
        #: Byte offset just past the last region laid out.
        self.end = origin
        self._buffers: Dict[tuple, np.ndarray] = {}
        self._regions: Dict[tuple, Tuple[int, int]] = {}
        self._bound: Optional[np.ndarray] = None

    def take(self, key: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A ``shape`` view of the ``(key, dtype)`` buffer, grown if too small."""
        dtype = np.dtype(dtype)
        size = math.prod(shape)
        buf = self._buffers.get((key, dtype))
        if buf is None or buf.size < size:
            if self.pool is None:
                buf = self._buffers[(key, dtype)] = np.empty(size, dtype=dtype)
            else:
                buf = self._region((key, dtype), size, dtype)
        return buf[:size].reshape(shape)

    def _region(self, name: tuple, size: int, dtype: np.dtype) -> np.ndarray:
        held = self._regions.get(name)
        if held is None or held[1] < size:
            held = self._regions[name] = (self.end, size)
            self.end += aligned(size * dtype.itemsize)
            self.pool.reserve(self.end)
        offset, size = held
        bound = self._bound
        if bound is None or offset + size * dtype.itemsize > bound.nbytes:
            buf = mapped((size,), dtype)  # until the pool covers the region
        else:
            buf = region(bound, offset, dtype, (size,))
        self._buffers[name] = buf
        return buf

    @property
    def buffers(self) -> Dict[tuple, np.ndarray]:
        """The flat buffers in use, by ``(key, dtype)``."""
        return self._buffers

    def bind(self, buffer: Optional[np.ndarray]) -> None:
        """Take later views from ``buffer`` (``None``: hold no view at all)."""
        self._buffers.clear()
        self._bound = buffer

    def evict(self) -> None:
        """End the workspace's turn in its pool: drop every view of it.

        A workspace without a pool keeps its buffers.
        """
        if self.pool is not None:
            self.bind(None)

    def claim(self) -> None:
        """Start a turn in the pool, laid out as before (no-op without a pool)."""
        if self.pool is not None:
            self.bind(self.pool.claim())


class Kernel(NamedTuple):
    """One op of the table: its name and its forward / VJP functions."""

    name: str
    fwd: Callable
    vjp: Callable


KERNELS: Dict[str, Kernel] = {}


def _kernel(name: str):
    def deco(pair):
        KERNELS[name] = Kernel(name, *pair())
        return pair

    return deco


def _scratch(ctx: dict, key, shape, dtype) -> np.ndarray:
    """A buffer kept in ``ctx``: reused across replays, saved for the eager VJP.

    A planned program's first run (its ctx holds its :class:`Workspace`)
    maps each such buffer on its own, which its plan then replaces or
    keeps, so the run leaves nothing behind in malloc's heap.
    """
    buf = ctx.get(key)
    if buf is None or buf.shape != tuple(shape) or buf.dtype != dtype:
        buf = ctx[key] = np.empty(shape, dtype=dtype) if Workspace not in ctx else mapped(shape, dtype)
    return buf


def _tmp(out, ctx: dict, key, shape, dtype, workspace: Optional[Workspace] = None) -> np.ndarray:
    """Forward-only scratch: from ``workspace`` when one is lent, else a
    temporary in eager mode and, in replay, a view from the program's
    workspace (``ctx[Workspace]``, shared by all its instructions) or a
    buffer kept in ``ctx`` when the program has none."""
    if workspace is None and out is not None:
        workspace = ctx.get(Workspace)
    if workspace is not None:
        return workspace.take(key, shape, dtype)
    if out is None:
        return np.empty(shape, dtype=dtype)
    return _scratch(ctx, key, shape, dtype)


def _into(ctx: dict, key, ufunc, *operands, shape: Tuple[int, ...]) -> np.ndarray:
    """``ufunc(*operands)``: in a planned program, into a buffer kept in
    ``ctx`` when the result has ``shape`` (a gradient the size of its
    input: every operand has that shape or none), so the plan places it;
    else a fresh array, which eager mode frees once its parent used it
    and :func:`_unbroadcast` may reduce.  Same ufunc, same operands: same
    bits.  A replayed instruction's operands keep their shapes, so a kept
    buffer is used unchecked."""
    buf = ctx.get(key)
    if buf is None:
        if Workspace not in ctx:
            return ufunc(*operands)
        shapes = {np.shape(x) for x in operands} - {()}
        if shapes != {shape} and (shapes or shape):
            return ufunc(*operands)
        buf = _scratch(ctx, key, shape, np.result_type(*operands))
    return ufunc(*operands, out=buf)


def _times_grad(grad: np.ndarray, ctx: dict, key) -> np.ndarray:
    """``ctx[key] * grad`` in a buffer kept in ``ctx``.

    The VJP of a scalar op whose forward kept its gradients at ``g = 1``.
    """
    unit = ctx[key]
    return np.multiply(unit, grad, out=_scratch(ctx, ("g", key), unit.shape, unit.dtype))


def _assign(out, value):
    """Return ``value`` in eager mode; copy it into the replay buffer otherwise."""
    if out is None:
        return value
    out[...] = value
    return out


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were of size 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
@_kernel("add")
def _k_add():
    def fwd(out, ins, attrs, ctx):
        return np.add(ins[0], ins[1], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        return (grad, grad)

    return fwd, vjp


@_kernel("neg")
def _k_neg():
    def fwd(out, ins, attrs, ctx):
        return np.negative(ins[0], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        return (_into(ctx, "g", np.negative, grad, shape=ins[0].shape),)

    return fwd, vjp


@_kernel("mul")
def _k_mul():
    def fwd(out, ins, attrs, ctx):
        return np.multiply(ins[0], ins[1], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        a, b = ins
        return (
            _into(ctx, "ga", np.multiply, grad, b, shape=a.shape) if needs[0] else None,
            _into(ctx, "gb", np.multiply, grad, a, shape=b.shape) if needs[1] else None,
        )

    return fwd, vjp


@_kernel("div")
def _k_div():
    def fwd(out, ins, attrs, ctx):
        return np.divide(ins[0], ins[1], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        a, b = ins
        ga = _into(ctx, "ga", np.divide, grad, b, shape=a.shape) if needs[0] else None
        # -grad * a / (b ** 2), evaluated left to right
        gb = _into(ctx, "gb", np.divide, -grad * a, b ** 2, shape=b.shape) if needs[1] else None
        return (ga, gb)

    return fwd, vjp


@_kernel("pow")
def _k_pow():
    def fwd(out, ins, attrs, ctx):
        return np.power(ins[0], attrs["exponent"], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        p = attrs["exponent"]
        base = ins[0]
        if p < 1.0:
            # x**(p-1) diverges at x == 0 for p < 1; use the zero
            # subgradient there instead of emitting inf/nan.
            with np.errstate(divide="ignore", invalid="ignore"):
                local = p * base ** (p - 1.0)
            local = np.where(base == 0.0, 0.0, local)
        else:
            local = p * (base ** (p - 1.0))
        return (_into(ctx, "g", np.multiply, grad, local, shape=base.shape),)

    return fwd, vjp


def _matmul_forward(out, a, b):
    if out is not None and a.ndim == 2 and b.ndim == 2:
        return np.matmul(a, b, out=out)
    return _assign(out, a @ b)


def _matmul_vjp(
    grad: np.ndarray, a_data: np.ndarray, b_data: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """VJP of ``a @ b`` for 1-D/2-D operands."""
    if a_data.ndim == 1 and b_data.ndim == 1:
        return grad * b_data, grad * a_data
    a2 = a_data if a_data.ndim > 1 else a_data[None, :]
    b2 = b_data if b_data.ndim > 1 else b_data[:, None]
    g2 = grad
    if a_data.ndim == 1:
        g2 = g2[None, ...]
    if b_data.ndim == 1:
        g2 = g2[..., None]
    grad_a = g2 @ np.swapaxes(b2, -1, -2)
    grad_b = np.swapaxes(a2, -1, -2) @ g2
    if a_data.ndim == 1:
        grad_a = grad_a.reshape(a_data.shape)
    if b_data.ndim == 1:
        grad_b = grad_b.reshape(b_data.shape)
    return grad_a, grad_b


def _matmul_vjp_buffers(grad, a, b, ctx, needs):
    """2-D fast path into ``ctx`` buffers; rank-promoting cases use :func:`_matmul_vjp`."""
    if a.ndim == 2 and b.ndim == 2 and grad.ndim == 2:
        ga = gw = None
        if needs[0]:
            ga = _scratch(ctx, "ga", a.shape, a.dtype)
            np.matmul(grad, b.T, out=ga)
        if needs[1]:
            gw = _scratch(ctx, "gw", b.shape, b.dtype)
            np.matmul(a.T, grad, out=gw)
        return ga, gw
    return _matmul_vjp(grad, a, b)


@_kernel("matmul")
def _k_matmul():
    def fwd(out, ins, attrs, ctx):
        return _matmul_forward(out, ins[0], ins[1])

    def vjp(grad, ins, out, attrs, ctx, needs):
        return _matmul_vjp_buffers(grad, ins[0], ins[1], ctx, needs)

    return fwd, vjp


def linear(x: np.ndarray, w: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Eager ``x @ w + b``: the matmul allocates and the bias adds into it, unless
    that would change the shape or dtype of ``(x @ w) + b`` (a scalar product,
    mixed dtypes, a bias that broadcasts the product up)."""
    out = x @ w
    if b is None:
        return out
    if isinstance(out, np.ndarray) and out.dtype == b.dtype:
        try:
            return np.add(out, b, out=out)
        except ValueError:  # b broadcasts beyond out; nothing was written
            pass
    return out + b


@_kernel("linear")
def _k_linear():
    def fwd(out, ins, attrs, ctx):
        if out is None:
            return linear(*ins)
        if len(ins) == 2:
            return _matmul_forward(out, ins[0], ins[1])
        x, w, b = ins
        if x.ndim == 2 and w.ndim == 2:
            np.matmul(x, w, out=out)
            return np.add(out, b, out=out)
        return _assign(out, (x @ w) + b)

    def vjp(grad, ins, out, attrs, ctx, needs):
        ga, gw = _matmul_vjp_buffers(grad, ins[0], ins[1], ctx, needs)
        if len(ins) == 2:
            return (ga, gw)
        return (ga, gw, grad if needs[2] else None)

    return fwd, vjp


@_kernel("sum")
def _k_sum():
    def fwd(out, ins, attrs, ctx):
        return ins[0].sum(axis=attrs["axis"], keepdims=attrs["keepdims"], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        ax = attrs["axis"]
        if ax is not None and not attrs["keepdims"]:
            grad = np.expand_dims(grad, ax)
        return (np.broadcast_to(grad, ins[0].shape),)

    return fwd, vjp


# --------------------------------------------------------------------------- #
# Elementwise non-linearities
# --------------------------------------------------------------------------- #
def _unary(name: str, ufunc, vjp) -> None:
    def fwd(out, ins, attrs, ctx):
        return ufunc(ins[0], out=out)

    KERNELS[name] = Kernel(name, fwd, vjp)


def _vjp_exp(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.multiply(grad, out, out=g)
    return (g,)


def _vjp_log(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.divide(grad, ins[0], out=g)
    return (g,)


def _vjp_sqrt(grad, ins, out, attrs, ctx, needs):
    # grad * 0.5 / np.maximum(out, 1e-12), evaluated left to right
    g = _scratch(ctx, "g", out.shape, out.dtype)
    t = _scratch(ctx, "t", out.shape, out.dtype)
    np.maximum(out, 1e-12, out=t)
    np.multiply(grad, 0.5, out=g)
    np.divide(g, t, out=g)
    return (g,)


def _vjp_abs(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.sign(ins[0], out=g)
    np.multiply(grad, g, out=g)
    return (g,)


def _vjp_tanh(grad, ins, out, attrs, ctx, needs):
    # grad * (1.0 - out ** 2)
    g = _scratch(ctx, "g", out.shape, out.dtype)
    t = _scratch(ctx, "t", out.shape, out.dtype)
    t[...] = out ** 2
    np.subtract(1.0, t, out=t)
    np.multiply(grad, t, out=g)
    return (g,)


def _vjp_relu(grad, ins, out, attrs, ctx, needs):
    m = _scratch(ctx, "m", out.shape, np.dtype(bool))
    np.greater(ins[0], 0.0, out=m)
    return (_into(ctx, "g", np.multiply, grad, m, shape=ins[0].shape),)


def _vjp_cos(grad, ins, out, attrs, ctx, needs):
    # -grad * np.sin(x) == -(grad * np.sin(x)) bitwise (sign flip)
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.sin(ins[0], out=g)
    np.multiply(grad, g, out=g)
    np.negative(g, out=g)
    return (g,)


def _vjp_sin(grad, ins, out, attrs, ctx, needs):
    g = _scratch(ctx, "g", out.shape, out.dtype)
    np.cos(ins[0], out=g)
    np.multiply(grad, g, out=g)
    return (g,)


_unary("exp", np.exp, _vjp_exp)
_unary("log", np.log, _vjp_log)
_unary("sqrt", np.sqrt, _vjp_sqrt)
_unary("abs", np.absolute, _vjp_abs)
_unary("tanh", np.tanh, _vjp_tanh)
_unary("cos", np.cos, _vjp_cos)
_unary("sin", np.sin, _vjp_sin)


@_kernel("relu")
def _k_relu():
    def fwd(out, ins, attrs, ctx):
        return np.maximum(ins[0], 0.0, out=out)

    return fwd, _vjp_relu


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """``1 / (1 + exp(-clip(x, -60, 60)))``, into ``out`` (else a fresh array).

    minimum(maximum(x, lo), hi) is np.clip's definition (the bounds are
    nonzero, so no signed-zero case differs) with none of the np.clip
    wrapper's Python dispatch overhead.
    """
    t = np.maximum(x, -60.0, out=out)
    np.minimum(t, 60.0, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.add(t, 1.0, out=t)
    np.divide(1.0, t, out=t)
    return t


@_kernel("sigmoid")
def _k_sigmoid():
    def fwd(out, ins, attrs, ctx):
        return sigmoid(ins[0], out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        # grad * out * (1 - out), evaluated left to right
        g = _scratch(ctx, "g", out.shape, out.dtype)
        t = _scratch(ctx, "t", out.shape, out.dtype)
        np.subtract(1.0, out, out=t)
        np.multiply(grad, out, out=g)
        np.multiply(g, t, out=g)
        return (g,)

    return fwd, vjp


def elu(
    x: np.ndarray, alpha: float = 1.0, out: Optional[np.ndarray] = None, t: Optional[np.ndarray] = None
) -> np.ndarray:
    """``max(x, 0) + alpha * (exp(min(x, 0)) - 1)``, into ``out`` with scratch ``t``.

    Without buffers the first ufunc of each term allocates it.  This form
    equals the textbook ``where(x > 0, x, t)`` bit for bit whenever
    alpha > 0 (:meth:`Tensor.elu` rejects any other alpha).  Where x > 0,
    t is +0.0 and x + 0.0 == x.  Where x <= 0, max(x, 0) is a zero and
    t + ±0.0 == t, because t is never -0.0 for alpha > 0.  Only the sign
    of a NaN may differ, because float32 exp drops it.
    """
    t = np.minimum(x, 0.0, out=t)
    np.exp(t, out=t)
    np.subtract(t, 1.0, out=t)
    if alpha != 1.0:  # x * 1.0 is a bitwise no-op
        np.multiply(t, alpha, out=t)
    out = np.maximum(x, 0.0, out=out)
    return np.add(out, t, out=out)


@_kernel("elu")
def _k_elu():
    def fwd(out, ins, attrs, ctx):
        x = ins[0]
        t = None if out is None else _tmp(out, ctx, "t", x.shape, x.dtype)
        return elu(x, attrs["alpha"], out, t)

    def vjp(grad, ins, out, attrs, ctx, needs):
        # grad * where(x > 0, 1.0, out + alpha).  out > 0 exactly where
        # x > 0, so at alpha = 1 the slope is min(out, 0) + 1.
        alpha = attrs["alpha"]
        g = _scratch(ctx, "g", out.shape, out.dtype)
        if alpha == 1.0:
            np.minimum(out, 0.0, out=g)
            np.add(g, 1.0, out=g)
        else:
            np.add(out, alpha, out=g)
            np.copyto(g, 1.0, where=ins[0] > 0.0)
        np.multiply(grad, g, out=g)
        return (g,)

    return fwd, vjp


@_kernel("softplus")
def _k_softplus():
    def fwd(out, ins, attrs, ctx):
        return np.logaddexp(0.0, ins[0], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        t = _scratch(ctx, "t", out.shape, out.dtype)
        sigmoid(ins[0], t)
        g = _scratch(ctx, "g", out.shape, out.dtype)
        np.multiply(grad, t, out=g)
        return (g,)

    return fwd, vjp


@_kernel("clip")
def _k_clip():
    # Either bound may be None (one-sided clip).
    def fwd(out, ins, attrs, ctx):
        return np.clip(ins[0], attrs["low"], attrs["high"], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        x, low, high = ins[0], attrs["low"], attrs["high"]
        mask = True
        if low is not None:
            mask = x >= low
        if high is not None:
            mask = mask & (x <= high)
        return (_into(ctx, "g", np.multiply, grad, mask, shape=x.shape),)

    return fwd, vjp


@_kernel("maximum")
def _k_maximum():
    def fwd(out, ins, attrs, ctx):
        return np.maximum(ins[0], ins[1], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        mask = ins[0] >= ins[1]
        ga = _into(ctx, "ga", np.multiply, grad, mask, shape=ins[0].shape) if needs[0] else None
        gb = _into(ctx, "gb", np.multiply, grad, ~mask, shape=ins[1].shape) if needs[1] else None
        return (ga, gb)

    return fwd, vjp


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #
@_kernel("reshape")
def _k_reshape():
    def fwd(out, ins, attrs, ctx):
        return _assign(out, ins[0].reshape(attrs["shape"]))

    def vjp(grad, ins, out, attrs, ctx, needs):
        return (grad.reshape(ins[0].shape),)

    return fwd, vjp


@_kernel("transpose")
def _k_transpose():
    def fwd(out, ins, attrs, ctx):
        return _assign(out, ins[0].transpose(attrs["axes"]))

    def vjp(grad, ins, out, attrs, ctx, needs):
        ax = attrs["axes"]
        if ax is None:
            return (grad.transpose(),)
        return (grad.transpose(np.argsort(ax)),)

    return fwd, vjp


@_kernel("getitem")
def _k_getitem():
    def fwd(out, ins, attrs, ctx):
        result = ins[0][attrs["index"]]
        if out is None:
            return result
        if result.shape != out.shape:
            raise TapeStale("getitem result changed shape since recording")
        np.copyto(out, result)
        return out

    def vjp(grad, ins, out, attrs, ctx, needs):
        index = attrs["index"]
        full = _scratch(ctx, "full", ins[0].shape, ins[0].dtype)
        full.fill(0.0)
        if _distinct_rows(index):
            # Each row is hit once, so assigning equals add.at into zeros;
            # + 0.0 turns a -0.0 into the +0.0 that 0.0 + -0.0 gives.
            full[index] = grad + 0.0
        else:
            np.add.at(full, index, grad)
        return (full,)

    return fwd, vjp


def _distinct_rows(index) -> bool:
    """Whether ``index`` is a 1-D integer array strictly increasing from >= 0.

    Such an index names each row at most once and no row twice through a
    negative alias.  The test runs per call, never cached in ``ctx``,
    because replay rebinds provider-drawn indices on every run.
    """
    return (
        isinstance(index, np.ndarray)
        and index.ndim == 1
        and index.dtype.kind in "iu"
        and (index.size == 0 or index[0] >= 0)
        and bool((index[1:] > index[:-1]).all())
    )


@_kernel("concatenate")
def _k_concatenate():
    def fwd(out, ins, attrs, ctx):
        return np.concatenate(ins, axis=attrs["axis"], out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        axis = attrs["axis"]
        grads = []
        start = 0
        for piece in ins:
            stop = start + piece.shape[axis]
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            grads.append(grad[tuple(slicer)])
            start = stop
        return grads

    return fwd, vjp


@_kernel("stack")
def _k_stack():
    def fwd(out, ins, attrs, ctx):
        return _assign(out, np.stack(ins, axis=attrs["axis"]))

    def vjp(grad, ins, out, attrs, ctx, needs):
        return tuple(np.moveaxis(grad, attrs["axis"], 0))

    return fwd, vjp


# --------------------------------------------------------------------------- #
# Fused kernel primitives
# --------------------------------------------------------------------------- #
def _rbf_left(x: np.ndarray, scale: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Augmented rows ``[-2s·x, s·|x|², 1]``: the left factor of ``s·||x_i - y_j||²``."""
    d = x.shape[1]
    out = np.empty((x.shape[0], d + 2), dtype=x.dtype) if out is None else out
    np.multiply(x, -2.0 * scale, out=out[:, :d])
    out[:, d] = scale * np.einsum("ij,ij->i", x, x)
    out[:, d + 1] = 1.0
    return out


def _rbf_right(y: np.ndarray, scale: float, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Augmented rows ``[y, 1, s·|y|²]``: the right factor of ``s·||x_i - y_j||²``."""
    d = y.shape[1]
    out = np.empty((y.shape[0], d + 2), dtype=y.dtype) if out is None else out
    out[:, :d] = y
    out[:, d] = 1.0
    out[:, d + 1] = scale * np.einsum("ij,ij->i", y, y)
    return out


def _rbf_entries(
    left: np.ndarray, right: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """RBF kernel entries ``exp(s·||x_i - y_j||²)`` of augmented rows, into ``out``.

    One gemm writes ``s·D`` straight into the output, then an in-place
    ``exp``.  Every RBF kernel entry of the ``weighted_rbf_mmd`` sweep's
    tiles comes from here.
    """
    out = np.matmul(left, right.T, out=out)
    return np.exp(out, out=out)


# --------------------------------------------------------------------------- #
# Fused losses
# --------------------------------------------------------------------------- #
def _broadcast_shapes(ctx: dict, ins) -> tuple:
    """``(shape of the first two ins, shape with the third)``, cached in ``ctx``."""
    shapes = ctx.get("shapes")
    if shapes is None:
        shape = np.broadcast_shapes(ins[0].shape, ins[1].shape)
        full = np.broadcast_shapes(shape, ins[2].shape) if len(ins) == 3 else shape
        shapes = ctx["shapes"] = (shape, full)
    return shapes


@_kernel("bce_with_logits")
def _k_bce_logits():
    # mean(w * (softplus(z) - t * z)), gradient w * (sigmoid(z) - t) / n
    def fwd(out, ins, attrs, ctx):
        z, t = ins[0], ins[1]
        shape, full = _broadcast_shapes(ctx, ins)
        losses = _scratch(ctx, "losses", shape, z.dtype)
        np.logaddexp(0.0, z, out=losses)
        tz = _tmp(out, ctx, "tz", shape, z.dtype)
        np.multiply(t, z, out=tz)
        np.subtract(losses, tz, out=losses)
        if len(ins) == 3:
            arr = _tmp(out, ctx, "arr", full, z.dtype)
            np.multiply(ins[2], losses, out=arr)
        else:
            arr = losses
        ctx["n"] = arr.size
        return _assign(out, arr.mean())

    def vjp(grad, ins, out, attrs, ctx, needs):
        z, t = ins[0], ins[1]
        w = ins[2] if len(ins) == 3 else None
        scale = grad / ctx["n"]
        sig = sigmoid(z, _scratch(ctx, "sig", z.shape, z.dtype))
        weighted_scale = scale if w is None else scale * w
        gz = _into(ctx, "gz", np.multiply, weighted_scale, sig - t, shape=z.shape) if needs[0] else None
        gt = _into(ctx, "gt", np.multiply, -weighted_scale, z, shape=t.shape) if needs[1] else None
        if w is None:
            return (gz, gt)
        gw = _into(ctx, "gw", np.multiply, scale, ctx["losses"], shape=w.shape) if needs[2] else None
        return (gz, gt, gw)

    return fwd, vjp


@_kernel("mse_loss")
def _k_mse():
    def fwd(out, ins, attrs, ctx):
        p, t = ins
        shape = _broadcast_shapes(ctx, ins)[0]
        diff = _scratch(ctx, "diff", shape, p.dtype)
        np.subtract(p, t, out=diff)
        arr = _tmp(out, ctx, "arr", shape, p.dtype)
        np.multiply(diff, diff, out=arr)
        ctx["n"] = arr.size
        return _assign(out, arr.mean())

    def vjp(grad, ins, out, attrs, ctx, needs):
        p, t = ins
        grad_p = _into(ctx, "gp", np.multiply, 2.0 * (grad / ctx["n"]), ctx["diff"], shape=p.shape)
        return (
            grad_p if needs[0] else None,
            _into(ctx, "gt", np.negative, grad_p, shape=t.shape) if needs[1] else None,
        )

    return fwd, vjp


@_kernel("weighted_mse_loss")
def _k_weighted_mse():
    # mean(w * diff * diff): Eq. (13)'s sample-weighted factual loss
    def fwd(out, ins, attrs, ctx):
        p, t, w = ins
        shape, full = _broadcast_shapes(ctx, ins)
        diff = _scratch(ctx, "diff", shape, p.dtype)
        np.subtract(p, t, out=diff)
        wd = _scratch(ctx, "wd", full, p.dtype)
        np.multiply(w, diff, out=wd)
        arr = _tmp(out, ctx, "arr", full, p.dtype)
        np.multiply(wd, diff, out=arr)
        ctx["n"] = arr.size
        return _assign(out, arr.mean())

    def vjp(grad, ins, out, attrs, ctx, needs):
        p, t, w = ins
        diff = ctx["diff"]
        scale = grad / ctx["n"]
        # (2.0 * scale) * (w * diff); ctx["wd"] holds w * diff
        grad_p = None
        if needs[0] or needs[1]:
            grad_p = _into(ctx, "gp", np.multiply, 2.0 * scale, ctx["wd"], shape=p.shape)
        gw = _into(ctx, "gw", np.multiply, scale, diff * diff, shape=w.shape) if needs[2] else None
        return (
            grad_p if needs[0] else None,
            _into(ctx, "gt", np.negative, grad_p, shape=t.shape) if needs[1] else None,
            gw,
        )

    return fwd, vjp


@_kernel("bce")
def _k_bce():
    # mean(w * -(t log p + (1 - t) log(1 - p))) with p clipped to [eps, 1 - eps]
    def fwd(out, ins, attrs, ctx):
        p, t = ins[0], ins[1]
        eps = attrs["eps"]
        shape, full = _broadcast_shapes(ctx, ins)
        pc = _scratch(ctx, "pc", p.shape, p.dtype)
        np.maximum(p, eps, out=pc)
        np.minimum(pc, 1.0 - eps, out=pc)
        log_p = _scratch(ctx, "log_p", p.shape, p.dtype)
        np.log(pc, out=log_p)
        log_1m = _scratch(ctx, "log_1m", p.shape, p.dtype)
        np.subtract(1.0, pc, out=log_1m)
        np.log(log_1m, out=log_1m)
        losses = _scratch(ctx, "losses", shape, p.dtype)
        np.multiply(t, log_p, out=losses)
        omt = _tmp(out, ctx, "omt", shape, p.dtype)
        np.subtract(1.0, t, out=omt)
        np.multiply(omt, log_1m, out=omt)
        np.add(losses, omt, out=losses)
        np.negative(losses, out=losses)
        if len(ins) == 3:
            arr = _tmp(out, ctx, "arr", full, p.dtype)
            np.multiply(ins[2], losses, out=arr)
        else:
            arr = losses
        ctx["n"] = arr.size
        return _assign(out, arr.mean())

    def vjp(grad, ins, out, attrs, ctx, needs):
        p, t = ins[0], ins[1]
        w = ins[2] if len(ins) == 3 else None
        eps = attrs["eps"]
        pc = ctx["pc"]
        scale = grad / ctx["n"]
        weighted_scale = scale if w is None else scale * w
        gp = gt = gw = None
        if needs[0]:
            in_band = (p >= eps) & (p <= 1.0 - eps)
            local = (1.0 - t) / (1.0 - pc) - t / pc
            gp = _into(ctx, "gp", np.multiply, weighted_scale * local, in_band, shape=p.shape)
        if needs[1]:
            log_ratio = ctx["log_1m"] - ctx["log_p"]
            gt = _into(ctx, "gt", np.multiply, weighted_scale, log_ratio, shape=t.shape)
        if w is None:
            return (gp, gt)
        if needs[2]:
            gw = _into(ctx, "gw", np.multiply, scale, ctx["losses"], shape=w.shape)
        return (gp, gt, gw)

    return fwd, vjp


@_kernel("l2_penalty")
def _k_l2():
    def fwd(out, ins, attrs, ctx):
        total = np.asarray(0.0, dtype=attrs["dtype"])
        for i, param in enumerate(ins):
            sq = _tmp(out, ctx, ("sq", i), param.shape, param.dtype)
            np.multiply(param, param, out=sq)
            total = total + sq.sum()
        return _assign(out, total)

    def vjp(grad, ins, out, attrs, ctx, needs):
        g2 = 2.0 * grad
        grads = []
        for i, param in enumerate(ins):
            if not needs[i]:
                grads.append(None)
                continue
            g = _scratch(ctx, ("g", i), param.shape, param.dtype)
            np.multiply(param, g2, out=g)
            grads.append(g)
        return grads

    return fwd, vjp


@_kernel("normalize_rows")
def _k_normalize_rows():
    # x / (||x||_2 + eps) per row, with the sum/sqrt/divide chain's VJP
    # (including its 1e-12 guard on the square root)
    def fwd(out, ins, attrs, ctx):
        x = ins[0]
        sq = _tmp(out, ctx, "sq", x.shape, x.dtype)
        np.multiply(x, x, out=sq)
        sums = _tmp(out, ctx, "sums", (x.shape[0], 1), x.dtype)
        sq.sum(axis=1, keepdims=True, out=sums)
        roots = _scratch(ctx, "roots", sums.shape, x.dtype)
        np.sqrt(sums, out=roots)
        norms = _scratch(ctx, "norms", sums.shape, x.dtype)
        np.add(roots, attrs["eps"], out=norms)
        return np.divide(x, norms, out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        x = ins[0]
        roots, norms = ctx["roots"], ctx["norms"]
        grad_norm = (-grad * x / (norms ** 2)).sum(axis=1, keepdims=True)
        grad_sq = grad_norm * (0.5 / np.maximum(roots, 1e-12))
        return (grad / norms + (2.0 * grad_sq) * x,)

    return fwd, vjp


# --------------------------------------------------------------------------- #
# Fused HSIC-RFF building blocks
# --------------------------------------------------------------------------- #
def _rff_inner(values: np.ndarray, freqs: np.ndarray, phis: np.ndarray, out=None) -> np.ndarray:
    """``v * w + phi`` as ``(n, k)`` (one draw) or ``(c, k, n)`` (a draw per
    column), into ``out`` when given."""
    if freqs.ndim == 1:
        v, w, phi = values.reshape(-1, 1), freqs, phis
    else:
        v = values.reshape(values.shape[0], -1).T[:, None, :]
        w, phi = freqs[:, :, None], phis[:, :, None]
    out = np.multiply(v, w, out=out)
    return np.add(out, phi, out=out)


def _rff_values_grad(d_inner: np.ndarray, freqs: np.ndarray, shape: tuple) -> np.ndarray:
    """Gradient wrt the values from the gradient wrt :func:`_rff_inner`'s output."""
    if freqs.ndim == 1:
        return (d_inner * freqs).sum(axis=-1).reshape(shape)
    return (d_inner * freqs[:, :, None]).sum(axis=1).T.reshape(shape)


#: ``sqrt(2)`` as a Python float: a NumPy float64 scalar would promote
#: float32 features to float64 under NEP 50.
_SQRT2 = 2.0 ** 0.5


def rff_features(
    values: np.ndarray, freqs: np.ndarray, phis: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """``sqrt(2) * cos(v * w + phi)``, formed in ``out`` (else a fresh array).

    ``v * w + phi`` is written into the output and ``cos`` and ``sqrt(2)``
    apply in place; shapes as :func:`_rff_inner`.
    """
    out = _rff_inner(values, freqs, phis, out)
    np.cos(out, out=out)
    return np.multiply(out, _SQRT2, out=out)


@_kernel("rff_features")
def _k_rff():
    # sqrt(2) * cos(v * w + phi); the draws are constants.  Only values
    # that need a gradient keep v * w + phi for the VJP; otherwise the
    # array function forms it in the output.
    def fwd(out, ins, attrs, ctx):
        freqs, phis = attrs["frequencies"], attrs["phis"]
        if not attrs["values_grad"]:
            return rff_features(ins[0], freqs, phis, out)
        inner = ctx["inner"] = _rff_inner(ins[0], freqs, phis)
        out = np.cos(inner, out=out)
        return np.multiply(out, _SQRT2, out=out)

    def vjp(grad, ins, out, attrs, ctx, needs):
        d_inner = grad * (-np.sin(ctx["inner"])) * _SQRT2
        return (_rff_values_grad(d_inner, attrs["frequencies"], ins[0].shape),)

    return fwd, vjp


def _pair_cov_fold(out, ctx, features, probs, left, right, full: bool, workspace):
    """Value of ``weighted_pair_sq_cross_cov`` and its gradients at ``g = 1``.

    Works on the selected pairs only: their left/right ``(k, n)`` blocks are
    gathered into ``(P, k, n)`` working blocks, centred in place, and every
    cross-covariance comes out of one batched matmul.  Per pair, with
    ``pu = (u - E_p u) ⊙ p`` and ``C = pu (v - E_p v)ᵀ``: ``dC = 2C``,
    ``d pu = dC vc``, ``d vc = dCᵀ pu``, and the mean terms
    ``d E_p u = -dC (vc p)``, ``d E_p v = -dCᵀ (pu 1)``.

    Keeps ``unit_p`` (``n`` entries) in ``ctx`` and, when ``full`` (the
    features need a gradient), ``unit_f`` (``(c, k, n)``).  The three
    working blocks come from ``workspace`` when one is lent (else
    :func:`_tmp`) and are dead when this returns, so the node saves none.
    """
    p = probs.reshape(-1)
    dtype = np.result_type(features, probs)
    shape = (len(left),) + features.shape[1:]
    # mode="clip" gathers straight into the block (the default mode buffers
    # a whole copy); F.weighted_pair_sq_cross_cov checks the indices.
    uc = _tmp(out, ctx, "pair_u", shape, features.dtype, workspace)
    vc = _tmp(out, ctx, "pair_v", shape, features.dtype, workspace)
    np.take(features, left, axis=0, out=uc, mode="clip")
    np.take(features, right, axis=0, out=vc, mode="clip")
    mean_u = np.matmul(uc, p)[:, :, None]
    mean_v = np.matmul(vc, p)[:, :, None]
    uc -= mean_u
    vc -= mean_v
    pu = np.multiply(uc, p, out=_tmp(out, ctx, "pair_pu", shape, dtype, workspace))
    cross_cov = np.matmul(pu, vc.transpose(0, 2, 1))
    value = (cross_cov * cross_cov).sum()

    d_cc = 2.0 * cross_cov
    d_cc_t = d_cc.transpose(0, 2, 1)
    d_mean_u = -np.matmul(d_cc, np.matmul(vc, p)[:, :, None])
    d_mean_v = -np.matmul(d_cc_t, pu.sum(axis=2, keepdims=True))
    if full:
        d_right = np.matmul(d_cc_t, pu)
        d_right += d_mean_v * p
    # d u = (d pu + d E_p u) ⊙ p: accumulate the mean term into d pu, which
    # takes pu's block (pu is not read again).
    d_pu_u = np.matmul(d_cc, vc, out=pu)
    d_pu_u += d_mean_u
    # d p_n = Σ (d pu ⊙ uc) + Σ u ⊙ d E_p u + Σ v ⊙ d E_p v, with u = uc + E_p u.
    unit_p = np.einsum("pkn,pkn->n", d_pu_u, uc, out=_scratch(ctx, "unit_p", p.shape, dtype))
    unit_p += np.matmul(d_mean_v.transpose(0, 2, 1), vc).sum(axis=(0, 1))
    unit_p += (mean_u * d_mean_u).sum() + (mean_v * d_mean_v).sum()
    if full:
        unit_f = _scratch(ctx, "unit_f", features.shape, dtype)
        unit_f.fill(0.0)
        np.add.at(unit_f, left, d_pu_u * p)
        np.add.at(unit_f, right, d_right)
    return value


@_kernel("weighted_pair_sq_cross_cov")
def _k_weighted_pair_sq_cross_cov():
    def fwd(out, ins, attrs, ctx):
        full = attrs["products"] == "full"
        value = _pair_cov_fold(
            out, ctx, *ins, attrs["left"], attrs["right"], full, attrs["workspace"]
        )
        return _assign(out, value)

    def vjp(grad, ins, out, attrs, ctx, needs):
        # The output is a scalar: the forward's unit gradients times g.
        return tuple(
            _times_grad(grad, ctx, key).reshape(x.shape) if need else None
            for key, x, need in zip(("unit_f", "unit_p"), ins, needs)
        )

    return fwd, vjp


# --------------------------------------------------------------------------- #
# Fused weighted RBF-MMD (the Balancing Regularizer, Eq. 4)
# --------------------------------------------------------------------------- #
#: Rows per tile of the RBF-MMD sweep.  128 was the fastest of 96–512 rows
#: at ``fit-fullbatch``'s shapes (2-CPU host, single-threaded OpenBLAS).
#: Read at call time, so tests can shrink it.
RBF_MMD_TILE = 128


def _rbf_mmd_sweep(out, ctx, rep_c, rep_t, w_c, w_t, scale, full: bool, workspace=None):
    """``aᵀKa`` and its unscaled gradients from one sweep of tiles.

    The arms are stacked, ``X = [R_c; R_t]`` and ``a = [w_c; -w_t]``, so
    the weighted MMD is ``aᵀKa`` with ``K_ij = exp(s·||x_i - x_j||²)``.
    Each upper-triangle tile pair ``I ≤ J`` is visited once: one gemm of
    the augmented rows into the tile buffer and an in-place ``exp`` give
    ``K_IJ``, then ``K_IJ B_J`` is added to rows ``I`` and, when ``I ≠ J``,
    ``K_IJᵀ B_I`` to rows ``J``.  The sweep leaves ``C = K B`` with
    ``B = [a ⊙ X, a]`` when ``full`` (a representation needs a gradient)
    and ``B = a`` otherwise (one gemv per tile).  No array larger than a
    tile or a row block is formed.

    Returns the value and keeps the gradients at ``g = 1`` in ``ctx``:
    ``unit_w = [2(Ka)_c; -2(Ka)_t]`` and, when ``full``,
    ``unit_x = 4s · a ⊙ (X ⊙ Ka - K(a ⊙ X))``.
    """
    n_c, d = rep_c.shape
    n = n_c + rep_t.shape[0]
    dtype = np.result_type(rep_c, rep_t, w_c, w_t)
    left = _tmp(out, ctx, "left", (n, d + 2), dtype, workspace)
    right = _tmp(out, ctx, "right", (n, d + 2), dtype, workspace)
    for rows, rep in ((slice(0, n_c), rep_c), (slice(n_c, n), rep_t)):
        _rbf_left(rep, scale, left[rows])
        _rbf_right(rep, scale, right[rows])
    b = _tmp(out, ctx, "b", (n, d + 1) if full else (n,), dtype, workspace)
    a = b[:, d] if full else b
    a[:n_c] = w_c.reshape(-1)
    np.negative(w_t.reshape(-1), out=a[n_c:])
    if full:
        np.multiply(right[:, :d], a[:, None], out=b[:, :d])
    acc = _tmp(out, ctx, "acc", b.shape, dtype, workspace)
    acc.fill(0.0)
    step = RBF_MMD_TILE
    tile = _tmp(out, ctx, "tile", (min(step, n) ** 2,), dtype, workspace)
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        for j0 in range(i0, n, step):
            j1 = min(j0 + step, n)
            k = tile[: (i1 - i0) * (j1 - j0)].reshape(i1 - i0, j1 - j0)
            _rbf_entries(left[i0:i1], right[j0:j1], k)
            acc[i0:i1] += k @ b[j0:j1]
            if j0 != i0:
                acc[j0:j1] += k.T @ b[i0:i1]
    ka = acc[:, d] if full else acc
    unit_w = _scratch(ctx, "unit_w", (n,), dtype)
    np.multiply(ka, 2.0, out=unit_w)
    np.negative(unit_w[n_c:], out=unit_w[n_c:])
    if full:
        unit_x = _scratch(ctx, "unit_x", (n, d), dtype)
        np.multiply(right[:, :d], ka[:, None], out=unit_x)
        np.subtract(unit_x, acc[:, :d], out=unit_x)
        np.multiply(unit_x, a[:, None], out=unit_x)
        np.multiply(unit_x, 4.0 * scale, out=unit_x)
    return a @ ka


@_kernel("weighted_rbf_mmd")
def _k_weighted_rbf_mmd():
    def fwd(out, ins, attrs, ctx):
        full = attrs["products"] == "full"
        value = _rbf_mmd_sweep(out, ctx, *ins, attrs["scale"], full, attrs["workspace"])
        return _assign(out, value)

    def vjp(grad, ins, out, attrs, ctx, needs):
        # The output is a scalar: the forward's unit gradients times g.
        n_c = ins[0].shape[0]
        grads = [None] * 4
        for key, first in (("unit_x", 0), ("unit_w", 2)):
            if needs[first] or needs[first + 1]:
                scaled = _times_grad(grad, ctx, key)
                grads[first] = scaled[:n_c].reshape(ins[first].shape)
                grads[first + 1] = scaled[n_c:].reshape(ins[first + 1].shape)
        return tuple(g if need else None for g, need in zip(grads, needs))

    return fwd, vjp
