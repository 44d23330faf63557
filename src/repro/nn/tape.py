"""Graph-replay (tape-reuse) engine: record one training step, replay many.

Eager autodiff rebuilds the graph in Python every step: each op allocates
a Tensor node and fresh gradient buffers, even though the graph is
structurally identical across steps at fixed (shapes, dtype, config).  This
module turns one eagerly-executed step into a :class:`ReplayProgram` — an
ordered list of kernel calls over preallocated buffers — that subsequent
steps execute with zero graph construction, bit-identical to eager.

How a recording works
---------------------
Every eager op goes through one dispatch function,
``repro.nn.tensor._apply``, which runs the op's kernel from the table in
:mod:`repro.nn.kernels` and then notifies the :class:`TapeRecorder`
installed in the thread-local hook (``_TAPE.recorder``).  Each recorded op
appends an instruction holding that kernel, its output slot and its parent
slots.  Unseen operands are classified lazily:

* ``param``   — ``requires_grad`` leaves (network parameters).  Their data
  buffer is pinned; replay verifies the buffer identity each run and raises
  :class:`TapeStale` if an optimizer or ``load_state_dict`` swapped it.
* ``input``   — arrays declared via ``TapeRecorder(inputs=...)`` whose
  *values* change per step (the engine refreshes them in place).
* ``dyn``     — outputs of a :func:`dynamic` provider (per-step RNG draws);
  the provider re-runs on every replay, preserving RNG stream order.
* ``const``   — everything else, baked by reference.  Safe because the
  replay engine keys its program cache on the identity of the step's batch
  arrays (and pins them), so a const can only be replayed against the exact
  arrays it was recorded with.
* an op node the recording did not capture (built before it started, or by
  a ``Tensor._make`` closure outside the table) aborts the recording, and
  the caller falls back to eager.

Bit-identity
------------
Replay reproduces eager results bit for bit, by construction:

* eager and replay run the same ``fwd``/``vjp`` kernel per op; eager passes
  ``out=None`` and gets a fresh array, replay passes its fixed buffer (where
  a kernel's two routes differ, as ``getitem``'s forward does, both produce
  the same values);
* the backward schedule is the exact reversed DFS topological order the
  eager engine produces (including the parents-order tie-breaking), with
  the same ``_unbroadcast`` reductions and the same fan-in accumulation
  values (first contribution stored, later ones added);
* per-step randomness is replayed through :func:`dynamic` providers so the
  RNG streams advance exactly as they would eagerly.

Replay skips instructions whose inputs never change (constant folding) and
instructions the loss does not depend on.

:class:`StackedProgram` extends replay across *replications*: K recorded
programs with identical structure are fused into one program whose buffers
carry a leading ``(K, ...)`` axis, so one replayed step trains K per-seed
parameter sets per BLAS call (per-slice reductions loop over the leading
axis to keep every slice bitwise equal to its serial counterpart).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import Kernel, TapeStale, _scratch, _unbroadcast
from .tensor import Tensor, _TAPE

__all__ = [
    "GraphReplayError",
    "TapeStale",
    "StackError",
    "TapeRecorder",
    "ReplayProgram",
    "StackedProgram",
    "dynamic",
    "recording_active",
]


class GraphReplayError(RuntimeError):
    """An autodiff feature incompatible with ``graph_replay`` was requested."""


class StackError(RuntimeError):
    """K per-seed programs are not structurally identical; fall back to serial."""


class _Unrecordable(RuntimeError):
    """Internal: an operand cannot be classified into a replayable slot."""


def recording_active() -> bool:
    """Whether a tape recording is active on the current thread."""
    return _TAPE.recorder is not None


# --------------------------------------------------------------------------- #
# Recording
# --------------------------------------------------------------------------- #
_VIEW_OPS = ("reshape", "transpose", "getitem")


class _Slot:
    """One recorded tensor: a fixed buffer plus its replay classification."""

    __slots__ = ("index", "kind", "tensor", "buffer", "shape", "dtype", "requires_grad", "provider")

    def __init__(self, index, kind, tensor, provider=None):
        self.index = index
        self.kind = kind
        self.tensor = tensor
        self.buffer = tensor.data
        self.shape = tensor.data.shape
        self.dtype = tensor.data.dtype
        self.requires_grad = tensor.requires_grad
        self.provider = provider


class _Instr:
    """One recorded op: kernel handles, slot wiring, and per-run scratch."""

    __slots__ = (
        "op", "out", "parents", "grad_parents", "attrs", "dyn_attrs",
        "fwd", "vjp", "view_skip", "folded", "needs", "ctx", "ins", "run_attrs",
        "route",
    )

    def __init__(self, op, out, parents, grad_parents, attrs, dyn_attrs, fwd, vjp, view_skip, needs):
        self.op = op
        self.out = out
        self.parents = parents
        self.grad_parents = grad_parents
        self.attrs = attrs
        self.dyn_attrs = dyn_attrs
        self.fwd = fwd
        self.vjp = vjp
        self.view_skip = view_skip
        self.folded = False
        self.needs = needs
        self.ctx: dict = {}
        self.ins: Tuple[np.ndarray, ...] = ()
        self.run_attrs = attrs
        #: Backward routing plan, built by :class:`ReplayProgram`:
        #: ``(pos, parent_sid, single_contribution, parent_shape)`` per
        #: gradient-carrying parent position.
        self.route: Tuple[Tuple[int, int, bool, Tuple[int, ...]], ...] = ()


def dynamic(fn: Callable[[], object]):
    """Run ``fn`` now; if a tape is recording, register it as a provider.

    ``fn`` must encapsulate *all* per-step randomness of the value it
    produces (it is re-invoked on every replay in recording order, so RNG
    streams advance exactly as they would eagerly).  Returns ``fn()``'s
    result unchanged; a tuple result registers each element.
    """
    rec = _TAPE.recorder
    result = fn()
    if rec is not None and rec.aborted is None:
        rec.register_provider(fn, result)
    return result


class TapeRecorder:
    """Records one training step's ops (and its single backward) as a tape.

    Use as a context manager around the step; ``finalize(loss)`` then builds
    the :class:`ReplayProgram` (or returns ``None`` with :attr:`aborted` set
    when an op without a replay kernel was encountered — the eager fallback).

    ``inputs`` declares arrays whose *values* the caller refreshes in place
    before every replay (e.g. the per-step sample-weight buffer); any leaf
    whose data is (a view of) one of them is classified as an input rather
    than baked as a constant.
    """

    def __init__(self, inputs: Sequence[np.ndarray] = ()) -> None:
        self.inputs = tuple(inputs)
        self._input_ids = {id(arr) for arr in self.inputs}
        self.slots: List[_Slot] = []
        self._by_id: Dict[int, int] = {}
        self.instructions: List[_Instr] = []
        self.providers: List[Callable] = []
        self._provider_outputs: Dict[int, Tuple[int, int]] = {}
        self._provider_pins: List[tuple] = []
        self.aborted: Optional[str] = None
        self._backward_root: Optional[Tensor] = None

    # -- context management -------------------------------------------------
    def __enter__(self) -> "TapeRecorder":
        if _TAPE.recorder is not None:
            raise RuntimeError("a tape recording is already active on this thread")
        _TAPE.recorder = self
        return self

    def __exit__(self, *exc_info) -> None:
        _TAPE.recorder = None

    # -- hooks called from repro.nn.tensor ----------------------------------
    def record(self, out: Tensor, kernel: Kernel, parents: Tuple[Tensor, ...], attrs=None) -> None:
        """Hook: record one eager op (a kernel-table entry) into the program."""
        if self.aborted is not None:
            return
        op = kernel.name
        try:
            parent_ids = tuple(self._slot_of(p) for p in parents)
        except _Unrecordable as exc:
            self._abort(f"{exc} (feeding op {op!r})")
            return
        sid = self._new_slot(out, "op")
        attrs = dict(attrs) if attrs else {}
        dyn_attrs = []
        for key, value in attrs.items():
            if isinstance(value, np.ndarray):
                bind = self._provider_outputs.get(id(value))
                if bind is not None:
                    dyn_attrs.append((key, bind[0], bind[1]))
        view_skip = (
            op in _VIEW_OPS
            and out.data.base is not None
            and bool(np.shares_memory(out.data, parents[0].data))
        )
        needs = tuple(self.slots[p].requires_grad for p in parent_ids)
        grad_parents = parent_ids if out.requires_grad else ()
        self.instructions.append(
            _Instr(
                op, sid, parent_ids, grad_parents, attrs, tuple(dyn_attrs),
                kernel.fwd, kernel.vjp, view_skip, needs,
            )
        )

    def on_backward(self, tensor: Tensor, retain_graph: bool) -> None:
        """Hook: note the backward root (rejects retain_graph / multi-backward)."""
        if self.aborted is not None:
            return
        if retain_graph:
            raise GraphReplayError(
                "retain_graph=True is not supported while graph_replay is recording "
                "a training step; set TrainingConfig.graph_replay='off' to train "
                "this model eagerly"
            )
        if self._backward_root is not None:
            raise GraphReplayError(
                "backward() was called twice within one recorded training step; "
                "graph_replay captures exactly one backward pass per step — set "
                "TrainingConfig.graph_replay='off' for multi-backward training"
            )
        self._backward_root = tensor

    def register_provider(self, fn: Callable, result) -> None:
        """Register arrays produced by ``fn`` as replay-time inputs."""
        outs = result if isinstance(result, tuple) else (result,)
        pidx = len(self.providers)
        self.providers.append(fn)
        for pos, arr in enumerate(outs):
            if isinstance(arr, np.ndarray):
                self._provider_outputs[id(arr)] = (pidx, pos)
        self._provider_pins.append(outs)

    # -- internals ----------------------------------------------------------
    def _abort(self, reason: str) -> None:
        if self.aborted is None:
            self.aborted = reason

    def _new_slot(self, tensor: Tensor, kind: str, provider=None) -> int:
        sid = len(self.slots)
        self.slots.append(_Slot(sid, kind, tensor, provider))
        self._by_id[id(tensor)] = sid
        return sid

    def _slot_of(self, tensor: Tensor) -> int:
        sid = self._by_id.get(id(tensor))
        if sid is not None:
            return sid
        if tensor._backward is not None:
            # An op node this recording did not capture: built before it
            # started, or by a Tensor._make closure outside the kernel table.
            raise _Unrecordable(
                "an operand was produced outside this recording or by a "
                "closure-built op, which has no replay kernel"
            )
        if tensor.requires_grad:
            return self._new_slot(tensor, "param")
        arr = tensor.data
        node = arr
        while node is not None:
            if id(node) in self._input_ids:
                # Views of a declared input track its in-place refresh.
                return self._new_slot(tensor, "input")
            bind = self._provider_outputs.get(id(node))
            if bind is not None:
                if node is arr:
                    return self._new_slot(tensor, "dyn", provider=bind)
                raise _Unrecordable("an operand views a per-step dynamic array")
            base = node.base
            # The owner of a view's memory need not itself be an ndarray
            # (e.g. np.frombuffer arrays are backed by a bytes object).
            node = base if isinstance(base, np.ndarray) else None
        return self._new_slot(tensor, "const")

    def finalize(self, loss: Tensor) -> Optional["ReplayProgram"]:
        """Build the replay program, or ``None`` when recording aborted."""
        if _TAPE.recorder is self:
            raise RuntimeError("finalize() must be called after the recording context exits")
        if self.aborted is not None:
            return None
        if self._backward_root is None:
            self._abort("no backward() call was recorded")
            return None
        if loss is not self._backward_root:
            self._abort("finalize() loss is not the tensor backward() ran from")
            return None
        root = self._by_id.get(id(loss))
        if root is None:
            self._abort("the loss tensor was not produced by a recorded op")
            return None
        return ReplayProgram(self, root)


# --------------------------------------------------------------------------- #
# Replay
# --------------------------------------------------------------------------- #
class ReplayProgram:
    """A recorded step, executable with zero Python graph construction.

    ``run()`` refreshes dynamic leaves (provider re-draws), executes the
    forward instruction list into the fixed buffers, runs the precomputed
    backward schedule (the exact reversed eager topological order), assigns
    leaf gradients, and returns the loss as a float.  Parameter ``.grad``
    attributes point at the program's pending buffers — values bitwise equal
    to what eager backprop would have produced.
    """

    def __init__(self, recorder: TapeRecorder, root: int) -> None:
        self.slots = recorder.slots
        self.instructions = recorder.instructions
        self.providers = recorder.providers
        self._provider_pins = recorder._provider_pins
        self.root = root
        self._bufs = [slot.buffer for slot in self.slots]
        self._pouts: List[tuple] = [()] * len(self.providers)
        self.param_slots = [s for s in self.slots if s.kind == "param"]
        self.dyn_slots = [s for s in self.slots if s.kind == "dyn"]
        self.extra_params: List[Tensor] = []

        instr_by_out = {instr.out: instr for instr in self.instructions}
        self._fold()
        for instr in self.instructions:
            instr.ins = tuple(self._bufs[p] for p in instr.parents)
        # Hot-loop prefilters: instructions needing per-run attr rebinding
        # (provider-drawn index arrays) and instructions actually executed
        # forward (folded, dead and view-aliased ones are skipped wholesale).
        self._dyn_instrs = [i for i in self.instructions if i.dyn_attrs and not i.folded]
        self._fwd_instrs = [
            (i, self._bufs[i.out])
            for i in self.instructions
            if not i.folded and not i.view_skip
        ]

        # Reversed eager DFS topological order over gradient edges, mirroring
        # Tensor.backward exactly — including its pop-time visited marking: a
        # shared node may be pushed by several children and its position is
        # decided by whichever push is popped first.  Reproducing that makes
        # the fan-in accumulation order (and thus every float) identical.
        visited = set()
        topo: List[int] = []
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            sid, processed = stack.pop()
            if processed:
                topo.append(sid)
                continue
            if sid in visited:
                continue
            visited.add(sid)
            stack.append((sid, True))
            instr = instr_by_out.get(sid)
            if instr is not None:
                for parent in instr.grad_parents:
                    if parent not in visited:
                        stack.append((parent, False))
        self.topo = topo

        self._schedule: List[Tuple[int, object]] = []
        grad_sids: List[int] = []
        for sid in reversed(topo):
            slot = self.slots[sid]
            if not slot.requires_grad:
                continue  # eager: constants never receive pending gradients
            grad_sids.append(sid)
            instr = instr_by_out.get(sid)
            if instr is not None:
                self._schedule.append((1, instr))
            else:
                self._schedule.append((0, slot))
        self._grad_sids = grad_sids
        root_slot = self.slots[root]
        self._seed = np.ones(root_slot.shape, dtype=root_slot.dtype)

        # Count gradient contributions per slot.  Eager backprop stores a
        # node's *first* contribution by reference (``_send`` keeps the vjp
        # output — often a broadcast view — without copying) and only
        # allocates when a second contribution arrives.  Mirror that: slots
        # with exactly one contributing edge receive the vjp output by
        # reference at run time, while fan-in slots get a persistent
        # accumulation buffer (copy first, add the rest).  Values are
        # unchanged — copying versus referencing is bitwise-neutral — but
        # the single-contribution case skips a full-size memcpy per edge.
        counts: Dict[int, int] = {}
        for tag, item in self._schedule:
            if not tag:
                continue
            for pos, psid in enumerate(item.parents):
                if item.needs[pos]:
                    counts[psid] = counts.get(psid, 0) + 1
        self._pending: Dict[int, np.ndarray] = {root: self._seed}
        self._multi_sids: List[int] = []
        for sid in grad_sids:
            if sid != root and counts.get(sid, 0) > 1:
                slot = self.slots[sid]
                self._pending[sid] = np.empty(slot.shape, dtype=slot.dtype)
                self._multi_sids.append(sid)
        for tag, item in self._schedule:
            if not tag:
                continue
            item.route = tuple(
                (pos, psid, counts.get(psid, 0) == 1, self.slots[psid].shape)
                for pos, psid in enumerate(item.parents)
                if item.needs[pos]
            )
        self._received = bytearray(len(self.slots))

    def _fold(self) -> None:
        """Mark the instructions replay never re-executes.

        Constant-folded: their inputs can never change between runs, so the
        recorded output buffers already hold the correct values (e.g. the
        ``1 - mask`` factual-split arithmetic over baked batch constants).
        Dead: the loss does not depend on them through any parent edge
        (e.g. DeR-CFR's propensity head outside the network loss).
        """
        foldable = [slot.kind == "const" for slot in self.slots]
        for instr in self.instructions:
            fold = (
                not instr.dyn_attrs
                and not self.slots[instr.out].requires_grad
                and all(foldable[p] for p in instr.parents)
            )
            instr.folded = fold
            foldable[instr.out] = fold
        live = {self.root}
        for instr in reversed(self.instructions):
            if instr.out in live:
                live.update(instr.parents)
            else:
                instr.folded = True

    @property
    def graph_nodes(self) -> int:
        """Nodes in the gradient-reachable subgraph (mirrors graph_node_count)."""
        return len(self.topo)

    @property
    def num_instructions(self) -> int:
        """Instructions in the recorded program."""
        return len(self.instructions)

    def set_optimizer_params(self, params: Sequence[Tensor]) -> None:
        """Declare optimizer-owned params; ones outside the recorded graph get
        ``grad = None`` per run (matching eager ``zero_grad`` + no touch)."""
        recorded = {id(slot.tensor) for slot in self.param_slots}
        self.extra_params = [p for p in params if id(p) not in recorded]

    def run(self) -> float:
        """Replay the recorded step; returns the loss value."""
        bufs = self._bufs
        for slot in self.param_slots:
            if slot.tensor.data is not slot.buffer:
                raise TapeStale("a parameter buffer was replaced since recording")
        pouts = self._pouts
        for i, fn in enumerate(self.providers):
            result = fn()
            pouts[i] = result if isinstance(result, tuple) else (result,)
        for slot in self.dyn_slots:
            src = pouts[slot.provider[0]][slot.provider[1]]
            if not isinstance(src, np.ndarray) or src.shape != slot.shape:
                raise TapeStale("a dynamic input changed shape since recording")
            np.copyto(slot.buffer, src)

        for instr in self._dyn_instrs:
            attrs = dict(instr.attrs)
            for key, pidx, pos in instr.dyn_attrs:
                attrs[key] = pouts[pidx][pos]
            instr.run_attrs = attrs
        for instr, out_buf in self._fwd_instrs:
            instr.fwd(out_buf, instr.ins, instr.run_attrs, instr.ctx)

        pending = self._pending
        received = self._received
        for sid in self._multi_sids:
            received[sid] = 0
        for tag, item in self._schedule:
            if tag:
                instr = item
                grads = instr.vjp(
                    pending[instr.out], instr.ins, bufs[instr.out],
                    instr.run_attrs, instr.ctx, instr.needs,
                )
                for pos, psid, single, shape in instr.route:
                    g = grads[pos]
                    if g is None:
                        continue
                    if single:
                        # Sole contribution: store by reference, like eager
                        # ``_send`` does for a node's first gradient.
                        pending[psid] = g if g.shape == shape else _unbroadcast(g, shape)
                    else:
                        buf = pending[psid]
                        ub = _unbroadcast(g, shape)
                        if received[psid]:
                            np.add(buf, ub, out=buf)
                        else:
                            np.copyto(buf, ub)
                            received[psid] = 1
            else:
                slot = item
                slot.tensor.grad = pending[slot.index]
        for param in self.extra_params:
            param.grad = None
        return float(bufs[self.root])


# --------------------------------------------------------------------------- #
# Stacked multi-seed replay
# --------------------------------------------------------------------------- #
# Ops whose base kernels apply unchanged to (K, ...) stacked buffers: pure
# elementwise ufunc sequences, so each leading-axis slice is computed exactly
# as the per-slice call would compute it.
_ELEMENTWISE = {
    "add", "neg", "mul", "div", "pow", "exp", "log", "sqrt", "abs", "tanh",
    "sigmoid", "relu", "elu", "softplus", "cos", "sin", "clip", "maximum",
}


def _align(buf: np.ndarray, target_ndim: int) -> Optional[np.ndarray]:
    """View ``(K,) + s`` as ``(K,) + (1,)*pad + s`` so trailing-dim broadcasting
    against the stacked output matches the per-slice broadcast exactly.

    Returns ``None`` when no aliasing view exists (caller falls back to the
    per-slice loop for that instruction).
    """
    if buf.ndim == target_ndim:
        return buf
    new_shape = (buf.shape[0],) + (1,) * (target_ndim - buf.ndim) + buf.shape[1:]
    view = buf.reshape(new_shape)
    if not np.shares_memory(view, buf):
        return None
    return view


def _slice_view(buf: np.ndarray, k: int) -> np.ndarray:
    """Writable view of slice ``k`` (0-d slices need the reshape dance)."""
    if buf.ndim == 1:
        return buf[k : k + 1].reshape(())
    return buf[k]


def _attrs_equal(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for key, va in a.items():
        vb = b[key]
        if isinstance(va, np.ndarray) or isinstance(vb, np.ndarray):
            if not (
                isinstance(va, np.ndarray)
                and isinstance(vb, np.ndarray)
                and va.shape == vb.shape
                and va.dtype == vb.dtype
                and np.array_equal(va, vb)
            ):
                return False
        elif va != vb:
            return False
    return True


def _stacked_matmul_fwd(out, ins, attrs, ctx):
    if len(ins) == 2:
        np.matmul(ins[0], ins[1], out=out)
    else:
        x, w, b = ins
        np.matmul(x, w, out=out)
        np.add(out, b[:, None, :], out=out)


def _stacked_matmul_vjp(grad, ins, out, attrs, ctx, needs):
    x, w = ins[0], ins[1]
    ga = gw = None
    if needs[0]:
        ga = _scratch(ctx, "ga", x.shape, x.dtype)
        np.matmul(grad, w.transpose(0, 2, 1), out=ga)
    if needs[1]:
        gw = _scratch(ctx, "gw", w.shape, w.dtype)
        np.matmul(x.transpose(0, 2, 1), grad, out=gw)
    if len(ins) == 2:
        return (ga, gw)
    return (ga, gw, grad if needs[2] else None)


class _StackedInstr:
    __slots__ = ("style", "base", "ins", "out_buf", "ctx", "ctxs", "ins_k", "out_k", "fwd", "vjp")

    def __init__(self, style, base):
        self.style = style  # "view", "fold", "elem", "matmul", "slice"
        self.base = base
        self.ins: Tuple[np.ndarray, ...] = ()
        self.out_buf: Optional[np.ndarray] = None
        self.ctx: dict = {}
        self.ctxs: List[dict] = []
        self.ins_k: List[Tuple[np.ndarray, ...]] = []
        self.out_k: List[np.ndarray] = []
        self.fwd = None
        self.vjp = None


class StackedProgram:
    """K structurally-identical :class:`ReplayProgram`\\ s fused along a leading
    axis: one run trains K per-seed parameter sets, each slice bitwise equal
    to replaying its source program alone.

    Elementwise chains and matmuls execute batched over ``(K, ...)`` buffers;
    every reduction (sums, loss means, unbroadcasts) loops per slice so the
    floating-point summation order of each slice is untouched.  Programs with
    dynamic providers, declared inputs, or mismatched structure are rejected
    with :class:`StackError` (callers fall back to serial replay).
    """

    def __init__(self, programs: Sequence[ReplayProgram]) -> None:
        if len(programs) < 2:
            raise StackError("stacking requires at least two programs")
        base = programs[0]
        K = len(programs)
        self.K = K
        for prog in programs:
            if prog.providers or any(s.kind in ("input", "dyn") for s in prog.slots):
                raise StackError("programs with per-step inputs or providers cannot be stacked")
        self._verify(programs)

        self._base = base
        nslots = len(base.slots)
        sbufs: List[Optional[np.ndarray]] = [None] * nslots
        self.params: List[Tensor] = []
        self.param_sources: List[Tuple[Tensor, ...]] = []
        self._param_bufs: List[np.ndarray] = []

        # Leaves first: params and consts are stacked copies of the slices.
        for sid, slot in enumerate(base.slots):
            if slot.kind == "param":
                stacked = np.stack([p.slots[sid].buffer for p in programs])
                tensor = Tensor(0.0, requires_grad=True, name=slot.tensor.name)
                tensor.data = stacked
                self.params.append(tensor)
                self.param_sources.append(tuple(p.slots[sid].tensor for p in programs))
                self._param_bufs.append(stacked)
                sbufs[sid] = stacked
            elif slot.kind == "const":
                sbufs[sid] = np.stack([p.slots[sid].buffer for p in programs])

        # Op outputs in recording order so view instructions can alias their
        # (already materialised) stacked parents.
        self._instrs: List[_StackedInstr] = []
        for instr in base.instructions:
            slot = base.slots[instr.out]
            if instr.folded:
                sbufs[instr.out] = np.stack([p.slots[instr.out].buffer for p in programs])
                self._instrs.append(_StackedInstr("fold", instr))
                continue
            if instr.view_skip:
                sbufs[instr.out] = self._stacked_view(instr, sbufs[instr.parents[0]], slot)
                si = _StackedInstr("view", instr)
                si.ins = tuple(sbufs[p] for p in instr.parents)
                si.out_buf = sbufs[instr.out]
                si.vjp = instr.vjp
                self._instrs.append(si)
                continue
            out_buf = np.empty((K,) + slot.shape, dtype=slot.dtype)
            sbufs[instr.out] = out_buf
            si = self._build_instr(instr, sbufs, out_buf, slot, K)
            self._instrs.append(si)
        self._sbufs = sbufs

        # Backward schedule mirrors the base program's (verified identical
        # across slices); pending gradients carry the leading K axis.
        root_slot = base.slots[base.root]
        self.root = base.root
        self._seed = np.ones((K,) + root_slot.shape, dtype=root_slot.dtype)
        self._pending: Dict[int, np.ndarray] = {base.root: self._seed}
        self._grad_sids = list(base._grad_sids)
        for sid in self._grad_sids:
            if sid != base.root:
                slot = base.slots[sid]
                self._pending[sid] = np.empty((K,) + slot.shape, dtype=slot.dtype)
        self._received = bytearray(nslots)
        instr_by_out = {si.base.out: si for si in self._instrs}
        self._schedule: List[Tuple[int, object]] = []
        param_by_sid = {}
        pi = 0
        for sid, slot in enumerate(base.slots):
            if slot.kind == "param":
                param_by_sid[sid] = self.params[pi]
                pi += 1
        for sid in reversed(base.topo):
            if not base.slots[sid].requires_grad:
                continue
            si = instr_by_out.get(sid)
            if si is not None:
                self._schedule.append((1, si))
            else:
                self._schedule.append((0, (sid, param_by_sid[sid])))

    # -- construction helpers ----------------------------------------------
    def _verify(self, programs: Sequence[ReplayProgram]) -> None:
        base = programs[0]
        for prog in programs[1:]:
            if len(prog.slots) != len(base.slots) or len(prog.instructions) != len(base.instructions):
                raise StackError("programs differ in recorded structure")
            for sa, sb in zip(base.slots, prog.slots):
                if (
                    sa.kind != sb.kind
                    or sa.shape != sb.shape
                    or sa.dtype != sb.dtype
                    or sa.requires_grad != sb.requires_grad
                ):
                    raise StackError("programs differ in slot layout")
            for ia, ib in zip(base.instructions, prog.instructions):
                if (
                    ia.op != ib.op
                    or ia.out != ib.out
                    or ia.parents != ib.parents
                    or ia.grad_parents != ib.grad_parents
                    or ia.view_skip != ib.view_skip
                    or ia.folded != ib.folded
                    or ia.needs != ib.needs
                    or not _attrs_equal(ia.attrs, ib.attrs)
                ):
                    raise StackError("programs differ in instruction stream")

    def _stacked_view(self, instr, parent_buf, slot) -> np.ndarray:
        if parent_buf is None:
            raise StackError("view instruction precedes its parent buffer")
        K = self.K
        if instr.op == "reshape":
            view = parent_buf.reshape((K,) + slot.shape)
        elif instr.op == "transpose":
            axes = instr.attrs["axes"]
            if axes is None:
                axes = tuple(range(parent_buf.ndim - 1, 0, -1))
            else:
                axes = tuple(int(a) % (parent_buf.ndim - 1) + 1 for a in axes)
            view = parent_buf.transpose((0,) + axes)
        elif instr.op == "getitem":
            index = instr.attrs["index"]
            if not isinstance(index, tuple):
                index = (index,)
            view = parent_buf[(slice(None),) + index]
        else:  # pragma: no cover - _VIEW_OPS is closed
            raise StackError(f"unexpected view op {instr.op!r}")
        if view.shape != (K,) + slot.shape or not np.shares_memory(view, parent_buf):
            raise StackError(f"cannot form a stacked view for op {instr.op!r}")
        return view

    def _build_instr(self, instr, sbufs, out_buf, slot, K) -> _StackedInstr:
        parent_bufs = []
        for p in instr.parents:
            buf = sbufs[p]
            if buf is None:
                raise StackError("instruction precedes its parent buffer")
            parent_bufs.append(buf)
        if instr.op in _ELEMENTWISE:
            target = out_buf.ndim
            aligned = [_align(buf, target) for buf in parent_bufs]
            if all(a is not None for a in aligned):
                si = _StackedInstr("elem", instr)
                si.ins = tuple(aligned)
                si.out_buf = out_buf
                si.fwd = instr.fwd
                si.vjp = instr.vjp
                return si
        if instr.op in ("matmul", "linear") and all(b.ndim == 3 for b in parent_bufs[:2]):
            bias_ok = len(parent_bufs) == 2 or parent_bufs[2].ndim == 2
            if bias_ok:
                si = _StackedInstr("matmul", instr)
                si.ins = tuple(parent_bufs)
                si.out_buf = out_buf
                si.fwd = _stacked_matmul_fwd
                si.vjp = _stacked_matmul_vjp
                return si
        # Per-slice fallback: loop the base kernel over leading-axis views so
        # reductions keep each slice's exact summation order.
        si = _StackedInstr("slice", instr)
        si.out_buf = out_buf
        si.ctxs = [dict() for _ in range(K)]
        si.ins_k = [tuple(_slice_view(buf, k) for buf in parent_bufs) for k in range(K)]
        si.out_k = [_slice_view(out_buf, k) for k in range(K)]
        si.fwd = instr.fwd
        si.vjp = instr.vjp
        return si

    # -- execution ----------------------------------------------------------
    @property
    def graph_nodes(self) -> int:
        """Nodes in the base program's gradient subgraph."""
        return self._base.graph_nodes

    def _route_stacked(self, psid: int, g: np.ndarray, pending, received) -> None:
        buf = pending[psid]
        if g.shape == buf.shape:
            if received[psid]:
                np.add(buf, g, out=buf)
            else:
                np.copyto(buf, g)
                received[psid] = 1
            return
        slice_shape = buf.shape[1:]
        first = not received[psid]
        for k in range(self.K):
            ub = _unbroadcast(g[k], slice_shape)
            target = _slice_view(buf, k)
            if first:
                np.copyto(target, ub)
            else:
                np.add(target, ub, out=target)
        received[psid] = 1

    def run(self) -> np.ndarray:
        """Replay the stacked step; returns the ``(K,)`` loss vector."""
        for tensor, buf in zip(self.params, self._param_bufs):
            if tensor.data is not buf:
                raise TapeStale("a stacked parameter buffer was replaced since recording")
        K = self.K
        for si in self._instrs:
            style = si.style
            if style in ("fold", "view"):
                continue
            if style == "slice":
                base = si.base
                for k in range(K):
                    si.fwd(si.out_k[k], si.ins_k[k], base.attrs, si.ctxs[k])
            else:
                si.fwd(si.out_buf, si.ins, si.base.attrs, si.ctx)

        pending = self._pending
        received = self._received
        for sid in self._grad_sids:
            received[sid] = 0
        received[self.root] = 1
        for tag, item in self._schedule:
            if not tag:
                sid, tensor = item
                tensor.grad = pending[sid]
                continue
            si = item
            base = si.base
            parents = base.parents
            needs = base.needs
            if si.style == "slice" or si.style == "view":
                grad_buf = pending[base.out]
                if si.style == "view":
                    ctxs = None
                    ins_k = [tuple(_slice_view(self._sbufs[p], k) for p in parents) for k in range(K)]
                    out_k = [_slice_view(si.out_buf, k) for k in range(K)]
                else:
                    ctxs = si.ctxs
                    ins_k = si.ins_k
                    out_k = si.out_k
                all_grads = [
                    si.vjp(
                        _slice_view(grad_buf, k), ins_k[k], out_k[k],
                        base.attrs, ctxs[k] if ctxs is not None else {}, needs,
                    )
                    for k in range(K)
                ]
                for pos in range(len(parents)):
                    if not needs[pos]:
                        continue
                    if all(all_grads[k][pos] is None for k in range(K)):
                        continue
                    psid = parents[pos]
                    buf = pending[psid]
                    first = not received[psid]
                    slice_shape = buf.shape[1:]
                    for k in range(K):
                        g = all_grads[k][pos]
                        if g is None:
                            continue
                        ub = _unbroadcast(g, slice_shape)
                        target = _slice_view(buf, k)
                        if first:
                            np.copyto(target, ub)
                        else:
                            np.add(target, ub, out=target)
                    received[psid] = 1
            else:
                grads = si.vjp(
                    pending[base.out], si.ins, si.out_buf,
                    base.attrs, si.ctx, needs,
                )
                for pos in range(len(parents)):
                    if not needs[pos]:
                        continue
                    g = grads[pos]
                    if g is None:
                        continue
                    self._route_stacked(parents[pos], g, pending, received)
        return self._sbufs[self.root]
