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

Memory plan
-----------
A program plans where its kernels' buffers live; the arithmetic and its
order stay those of eager mode.  Everything a run needs only while it
runs lies in one :class:`~repro.nn.kernels.Pool`, the fit's (or the
program's own when none is lent), laid out from offset 0:

* **Op outputs.**  Every live, non-folded op output gets an offset when
  the program is built, and the recorded arrays are dropped then: between
  the recording and the first run the program holds none of them.
  Outputs of view ops over them are views again after each binding.
* **Workspace.**  Forward-only scratch (a kernel's ``_tmp`` buffers, such
  as ELU's ``t`` or the RBF-MMD sweep's rows and tile) comes from one
  :class:`~repro.nn.kernels.Workspace` over the pool, keyed by name and
  shared by every instruction.  This is safe because eager mode hands such
  a buffer out as a plain temporary, so no VJP can read one.
* **Gradient arena.**  The buffers the VJPs take in ``ctx`` (their
  gradients and scratch) and the fan-in buffers get offsets in one arena,
  laid out after the first run by interval colouring over the backward
  schedule (:meth:`ReplayProgram._plan`).  A buffer is born at the VJP that
  writes it, or a fan-in buffer at its first contribution, and dies after
  the last step that reads a gradient held in it, views included.  Two
  buffers share bytes only when their lifetimes do not overlap.
* **Kept out of the pool:** whatever lives from one run to the next, that
  is ``const``, ``param``, ``input`` and ``dyn`` slots, folded outputs and
  the root seed; parameters' gradients, so ``param.grad`` stays valid
  until the next step as in eager mode; and what a forward saves for its
  VJP.

Each run claims the pool, binds its views to the pool's buffer and drops
them when it ends (:meth:`ReplayProgram.evict`).  Between runs another
tenant (the trainer's weight step) uses the same bytes and ends its turn
the same way, so when a claim grows the pool no view of the old buffer is
left.  Until the plan exists, the recorded op outputs and the first run's
``ctx`` buffers each live in an anonymous mapping of their own, so the
recording and the first run leave nothing behind in malloc's heap for the
pool to sit on.

:data:`POISON_FREED` (tests only) fills the whole pool with NaN at each
claim, each arena range after its last reader, and the workspace after
each forward call, so a read of a dead buffer shows in the results;
:data:`PLAN_MEMORY` off (tests only) builds unplanned programs that keep
their recorded arrays.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .kernels import Kernel, Pool, TapeStale, Workspace, _unbroadcast, aligned, mapped, region
from .tensor import Tensor, _TAPE

__all__ = [
    "GraphReplayError",
    "TapeStale",
    "TapeRecorder",
    "ReplayProgram",
    "dynamic",
    "recording_active",
]


#: Lay each program's op outputs, forward-only scratch and (after its
#: first run) gradient buffers out in a pool.  Read when a program is
#: built; tests switch it off to measure an unplanned program.
PLAN_MEMORY = True

#: Fill the whole pool with NaN at each claim, each arena range after its
#: last reader, and the workspace after each forward call, so that
#: a read of a dead buffer shows as NaN in a result.  Read at run time;
#: tests switch it on.
POISON_FREED = False


class GraphReplayError(RuntimeError):
    """An autodiff feature incompatible with ``graph_replay`` was requested."""


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
        if PLAN_MEMORY and out.data.base is None and out.data.flags.c_contiguous:
            # The program lays its op outputs out in a pool; until it is
            # built, each lives in a mapping of its own, so the recording
            # leaves no op output's bytes behind in malloc's heap.
            moved = mapped(out.data.shape, out.data.dtype)
            np.copyto(moved, out.data)
            out.data = moved
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

    def finalize(self, loss: Tensor, pool: Optional[Pool] = None) -> Optional["ReplayProgram"]:
        """Build the replay program, or ``None`` when recording aborted.

        ``pool`` is the pool the program's memory plan lays its buffers out
        in (by default one of its own).
        """
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
        return ReplayProgram(self, root, pool)


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

    With :data:`PLAN_MEMORY` the program lays its buffers out in a
    :attr:`pool` (see "Memory plan" above): its op outputs when it is built,
    its kernels' forward-only scratch in :attr:`workspace`, and, at the end
    of its first run, its gradient buffers in :attr:`arena` (:meth:`_plan`).
    """

    def __init__(self, recorder: TapeRecorder, root: int, pool: Optional[Pool] = None) -> None:
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
        live = self._fold()
        # Hot-loop prefilter: instructions needing per-run attr rebinding
        # (provider-drawn index arrays).
        self._dyn_instrs = [i for i in self.instructions if i.dyn_attrs and not i.folded]

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
        self._pending: Dict[int, np.ndarray] = {}
        #: The fan-in buffers kept out of the pool, by slot: all of them
        #: until the plan, then those holding a parameter's gradient.
        self._kept: Dict[int, np.ndarray] = {}
        self._multi_sids: List[int] = []
        for sid in grad_sids:
            if sid != root and counts.get(sid, 0) > 1:
                slot = self.slots[sid]
                self._kept[sid] = np.empty(slot.shape, dtype=slot.dtype)
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

        #: ``_schedule`` with a ``(2, (start, stop))`` entry after each arena
        #: range's last reader; the run reads it under :data:`POISON_FREED`.
        self._poisoned = self._schedule
        self.pool: Optional[Pool] = None
        self.workspace: Optional[Workspace] = None
        #: Pool offsets of the op outputs laid out there, by slot.
        self._outputs: List[Tuple[int, int]] = []
        #: View instructions whose outputs view a pooled output.
        self._derived: List[_Instr] = []
        #: Arena buffers: ``(dict holding it, key, offset, dtype, shape)``.
        self._placed: List[tuple] = []
        self._arena: Tuple[int, int] = (0, 0)
        self._planned = False
        if PLAN_MEMORY:
            self.pool = pool if pool is not None else Pool()
            self._lay_out_outputs(live)
        self._bind(None)

    def _fold(self) -> set:
        """Mark the instructions replay never re-executes; return the live slots.

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
        return live

    def _lay_out_outputs(self, live: set) -> None:
        """Give the op outputs that every run rewrites offsets in the pool.

        The recorded arrays go, along with those of dead instructions, so
        that only folded outputs and the slots a run does not write keep
        memory of their own.  Non-parameter slots drop their tensors.
        """
        moved = set()
        offset = 0
        for instr in self.instructions:
            sid, slot = instr.out, self.slots[instr.out]
            if sid in live:
                if instr.folded or (instr.view_skip and instr.parents[0] not in moved):
                    continue  # its values persist, or it views memory that does
                if instr.view_skip:
                    self._derived.append(instr)
                else:
                    self._outputs.append((sid, offset))
                    offset += aligned(math.prod(slot.shape) * slot.dtype.itemsize)
            moved.add(sid)
            self._bufs[sid] = slot.buffer = None
        for slot in self.slots:
            if slot.kind != "param":
                slot.tensor = None
        self.workspace = Workspace(self.pool, origin=offset)
        for instr in self.instructions:
            instr.ctx[Workspace] = self.workspace

    @property
    def graph_nodes(self) -> int:
        """Nodes in the gradient-reachable subgraph (mirrors graph_node_count)."""
        return len(self.topo)

    @property
    def num_instructions(self) -> int:
        """Instructions in the recorded program."""
        return len(self.instructions)

    @property
    def arena(self) -> Optional[np.ndarray]:
        """The planned gradient arena's bytes in the pool (``None`` before the plan)."""
        if not self._planned:
            return None
        start, stop = self._arena
        return self.pool.buffer[start:stop]

    def set_optimizer_params(self, params: Sequence[Tensor]) -> None:
        """Declare optimizer-owned params; ones outside the recorded graph get
        ``grad = None`` per run (matching eager ``zero_grad`` + no touch)."""
        recorded = {id(slot.tensor) for slot in self.param_slots}
        self.extra_params = [p for p in params if id(p) not in recorded]

    def _bind(self, buffer: Optional[np.ndarray]) -> None:
        """Point every pooled buffer at ``buffer``'s bytes (``None``: drop them)."""
        bufs = self._bufs
        pending = self._pending
        pending.clear()
        for sid, offset in self._outputs:
            slot = self.slots[sid]
            bufs[sid] = None if buffer is None else region(buffer, offset, slot.dtype, slot.shape)
        for instr in self._derived:
            base = bufs[instr.parents[0]]
            view = None if base is None else instr.fwd(None, (base,), instr.attrs, {})
            if view is not None and not np.may_share_memory(view, base):
                raise TapeStale("a view op no longer views its input")
            bufs[instr.out] = view
        if self.workspace is not None:
            self.workspace.bind(buffer)
        for owner, key, offset, dtype, shape in self._placed:
            owner[key] = None if buffer is None else region(buffer, offset, dtype, shape)
        if buffer is not None or self.pool is None:  # an unplanned program's are its own
            pending[self.root] = self._seed
            pending.update(self._kept)
        for instr in self.instructions:
            instr.ins = tuple(bufs[p] for p in instr.parents)
        # Instructions actually executed forward (folded, dead and
        # view-aliased ones are skipped wholesale).
        self._fwd_instrs = [
            (i, bufs[i.out]) for i in self.instructions if not i.folded and not i.view_skip
        ]

    def evict(self) -> None:
        """End the program's turn in its pool: drop every view of it."""
        self._bind(None)

    def run(self) -> float:
        """Replay the recorded step; returns the loss value."""
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
        if self.pool is None:
            return self._execute()
        self.pool.reserve(self.workspace.end)  # the layout so far: outputs, scratch, arena
        self._bind(self.pool.claim())
        try:
            return self._execute()
        finally:
            self.evict()

    def _execute(self) -> float:
        """The forward and backward of one run, in the bound buffers."""
        bufs = self._bufs
        pouts = self._pouts
        for instr in self._dyn_instrs:
            attrs = dict(instr.attrs)
            for key, pidx, pos in instr.dyn_attrs:
                attrs[key] = pouts[pidx][pos]
            instr.run_attrs = attrs
        poison = POISON_FREED
        if poison and self.workspace is not None:
            for instr, out_buf in self._fwd_instrs:
                instr.fwd(out_buf, instr.ins, instr.run_attrs, instr.ctx)
                for buf in self.workspace.buffers.values():
                    _poison(buf)
        else:
            for instr, out_buf in self._fwd_instrs:
                instr.fwd(out_buf, instr.ins, instr.run_attrs, instr.ctx)
        # The first run notes what the forward wrote into ctx: the VJPs
        # read it, so the plan leaves it where it is.
        saved = None
        if self.pool is not None and not self._planned:
            saved = {id(value) for instr in self.instructions for value in instr.ctx.values()}

        pending = self._pending
        received = self._received
        for sid in self._multi_sids:
            received[sid] = 0
        for tag, item in self._poisoned if poison else self._schedule:
            if tag == 1:
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
            elif tag:
                _poison(self.pool.buffer[item[0]:item[1]])  # an arena range after its last reader
            else:
                slot = item
                slot.tensor.grad = pending[slot.index]
        for param in self.extra_params:
            param.grad = None
        loss = float(bufs[self.root])
        if saved is not None:
            self._plan(saved)
        return loss

    def _plan(self, saved: set) -> None:
        """Lay the gradient buffers of the first run out in one arena.

        See "Memory plan" above.  Planned are the fan-in buffers and the
        ctx arrays the VJPs took in this run: ids not in ``saved``, which
        the forward wrote.  A step's buffers overlap in lifetime, so a VJP
        never writes where its input gradient lies.  A buffer that holds a
        parameter's gradient stays where it is, out of the pool.  The arena
        follows the workspace in the pool, and the next run binds the plan.
        """
        end = len(self._schedule)
        grads = dict(self._pending)
        # Per planned buffer, by the id of the array owning its memory:
        # [array, the dict that holds it, its key there, birth step, death step].
        spans: Dict[int, list] = {}
        reader: Dict[int, int] = {}  # slot -> the step that reads its gradient
        for step, (tag, item) in enumerate(self._schedule):
            if not tag:
                reader[item.index] = end
                continue
            reader[item.out] = step
            for key, value in item.ctx.items():
                if isinstance(value, np.ndarray) and id(value) not in saved:
                    spans[id(_owner(value))] = [value, item.ctx, key, step, step]
            for _, psid, single, _ in item.route:
                if not single and id(grads[psid]) not in spans:
                    spans[id(grads[psid])] = [grads[psid], self._pending, psid, step, step]
        # A gradient left in _pending, view or not, keeps the array that
        # owns its memory alive until the gradient's reader.
        for sid, grad in grads.items():
            span = spans.get(id(_owner(grad)))
            if span is not None:
                span[4] = max(span[4], reader[sid])

        self._kept = {}
        order = []
        for span in sorted(spans.values(), key=lambda span: -span[0].nbytes):
            if span[4] < end:
                order.append(span)
            elif span[1] is self._pending:
                self._kept[span[2]] = span[0]
        # Largest first, each at the lowest offset free of every placed
        # buffer whose lifetime overlaps its own.
        placed: List[Tuple[int, int, int, int]] = []  # (start, stop, birth, death)
        for array, _, _, birth, death in order:
            nbytes = aligned(array.nbytes)
            start = 0
            for lo, hi, other_birth, other_death in sorted(placed):
                if other_birth <= death and birth <= other_death:
                    if start + nbytes <= lo:
                        break
                    start = max(start, hi)
            placed.append((start, start + nbytes, birth, death))

        base = self.workspace.end
        self._arena = (base, base + max((hi for _, hi, _, _ in placed), default=0))
        dead: Dict[int, list] = {}
        for (array, owner, key, _, death), (start, _, _, _) in zip(order, placed):
            self._placed.append((owner, key, base + start, array.dtype, array.shape))
            dead.setdefault(death, []).append((base + start, base + start + array.nbytes))
        self._poisoned = []
        for step, entry in enumerate(self._schedule):
            self._poisoned.append(entry)
            self._poisoned.extend((2, memory) for memory in dead.get(step, ()))
        self._planned = True
        self.workspace.end = self._arena[1]  # a later region goes past the arena


def _owner(array: np.ndarray) -> np.ndarray:
    """The array that owns ``array``'s memory (for a mapped array, its bytes)."""
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def _poison(buf: np.ndarray) -> None:
    """Set every byte of ``buf`` to 0xFF: a NaN in every float dtype."""
    buf.view(np.uint8).fill(0xFF)
