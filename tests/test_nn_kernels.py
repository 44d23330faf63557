"""The op table (:mod:`repro.nn.kernels`) is the only definition of every op.

* every eager op's forward and backward run its table kernels, once each,
  so eager autodiff and graph replay share one ``fwd``/``vjp`` per op;
* the table holds exactly the engine's 35 ops, and the module imports
  nothing from the rest of the package;
* an eager node keeps only what its VJP reads (ELU's forward scratch is a
  temporary, not node state), and its VJP keeps no gradient it returns,
  which a replay program's keeps for its plan to place, bit for bit the
  same;
* ELU's in-place form equals the textbook ``np.where`` forms bit for bit,
  and rejects any alpha outside (0, inf);
* the ``getitem`` VJP, which assigns when the index names distinct rows,
  accumulates exactly as ``np.add.at``, also when replay redraws the index;
* an ``rff_features`` node keeps ``v * w + phi`` only when its values need
  a gradient, and its value is the old form's bit for bit either way;
* the eager array functions ``linear``, ``elu`` and ``sigmoid``, which the
  kernels and compiled serving share, let the first ufunc allocate and
  equal the old allocate-then-fill forms bit for bit, in shape and dtype.
"""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.kernels import KERNELS, Kernel, Workspace, elu, linear, sigmoid
from repro.nn.modules import resolve_activation
from repro.nn.tape import TapeRecorder, dynamic
from repro.nn.tensor import Tensor, concatenate, stack


def _normal(*shape):
    return lambda rng: rng.normal(size=shape)


def _positive(*shape):
    return lambda rng: np.abs(rng.normal(size=shape)) + 0.5


def _unit(*shape):
    return lambda rng: rng.uniform(0.1, 0.9, size=shape)


_FREQS = np.random.default_rng(5).normal(size=(2, 3))
_PHASES = np.random.default_rng(6).uniform(0.0, 6.0, size=(2, 3))

#: op name -> (graph over requires_grad leaves, leaf makers)
OP_CASES = {
    "add": (lambda a, b: a + b, [_normal(3, 4), _normal(3, 4)]),
    "neg": (lambda a: -a, [_normal(3, 4)]),
    "mul": (lambda a, b: a * b, [_normal(3, 4), _normal(4)]),
    "div": (lambda a, b: a / b, [_normal(3, 4), _positive(3, 4)]),
    "pow": (lambda a: a ** 2.5, [_positive(3, 4)]),
    "matmul": (lambda a, b: a @ b, [_normal(3, 4), _normal(4, 2)]),
    "sum": (lambda a: a.sum(axis=1), [_normal(3, 4)]),
    "exp": (lambda a: a.exp(), [_normal(3, 4)]),
    "log": (lambda a: a.log(), [_positive(3, 4)]),
    "sqrt": (lambda a: a.sqrt(), [_positive(3, 4)]),
    "abs": (lambda a: a.abs(), [_normal(3, 4)]),
    "tanh": (lambda a: a.tanh(), [_normal(3, 4)]),
    "sigmoid": (lambda a: a.sigmoid(), [_normal(3, 4)]),
    "relu": (lambda a: a.relu(), [_normal(3, 4)]),
    "elu": (lambda a: a.elu(), [_normal(3, 4)]),
    "softplus": (lambda a: a.softplus(), [_normal(3, 4)]),
    "cos": (lambda a: a.cos(), [_normal(3, 4)]),
    "sin": (lambda a: a.sin(), [_normal(3, 4)]),
    "clip": (lambda a: a.clip(-0.5, None), [_normal(3, 4)]),
    "maximum": (lambda a, b: a.maximum(b), [_normal(3, 4), _normal(3, 4)]),
    "reshape": (lambda a: a.reshape(4, 3), [_normal(3, 4)]),
    "transpose": (lambda a: a.transpose(), [_normal(3, 4)]),
    "getitem": (lambda a: a[1:, [0, 2]], [_normal(3, 4)]),
    "concatenate": (lambda a, b: concatenate([a, b], axis=1), [_normal(3, 4), _normal(3, 2)]),
    "stack": (lambda a, b: stack([a, b], axis=1), [_normal(3, 4), _normal(3, 4)]),
    "linear": (F.linear, [_normal(3, 4), _normal(4, 2), _normal(2)]),
    "bce_with_logits": (F.bce_with_logits, [_normal(5), _unit(5), _positive(5)]),
    "mse_loss": (F.mse_loss, [_normal(5), _normal(5)]),
    "weighted_mse_loss": (F.weighted_mse_loss, [_normal(5), _normal(5), _positive(5)]),
    "bce": (F.weighted_binary_cross_entropy, [_unit(5), _unit(5), _positive(5)]),
    "l2_penalty": (lambda a, b: F.l2_penalty([a, b]), [_normal(3, 4), _normal(2)]),
    "normalize_rows": (F.normalize_rows, [_normal(3, 4)]),
    "rff_features": (lambda v: F.rff_features(v, _FREQS, _PHASES), [_normal(5, 2)]),
    "weighted_pair_sq_cross_cov": (
        lambda f, p: F.weighted_pair_sq_cross_cov(f, p, np.array([0, 1]), np.array([2, 2])),
        [_normal(3, 2, 5), _positive(5)],
    ),
    "weighted_rbf_mmd": (
        lambda rc, rt, wc, wt: F.weighted_rbf_mmd(rc, rt, wc, wt, 1.3),
        [_normal(3, 2), _normal(4, 2), _positive(3), _positive(4)],
    ),
}


def test_table_holds_exactly_the_engine_ops():
    assert len(KERNELS) == 35
    assert set(KERNELS) == set(OP_CASES)
    for name, kernel in KERNELS.items():
        assert kernel.name == name


@pytest.mark.parametrize("op", sorted(OP_CASES))
def test_eager_op_runs_its_table_kernels_once(op, monkeypatch):
    build, makers = OP_CASES[op]
    kernel = KERNELS[op]
    calls = {"fwd": 0, "vjp": 0}

    def fwd(*args):
        calls["fwd"] += 1
        return kernel.fwd(*args)

    def vjp(*args):
        calls["vjp"] += 1
        return kernel.vjp(*args)

    monkeypatch.setitem(KERNELS, op, Kernel(op, fwd, vjp))
    rng = np.random.default_rng(0)
    leaves = [Tensor(make(rng), requires_grad=True) for make in makers]
    out = build(*leaves)
    assert calls == {"fwd": 1, "vjp": 0}
    out.backward(np.ones_like(out.data))
    assert calls == {"fwd": 1, "vjp": 1}
    assert all(leaf.grad is not None for leaf in leaves)
    # The released node keeps neither its op state nor its parents.
    assert out._parents == ()


def test_kernels_module_imports_nothing_from_the_package():
    """Anywhere in the module, a function body included: the op table is the
    package's leaf, which every other module of ``repro.nn`` builds on."""
    tree = ast.parse(pathlib.Path(kernels.__file__).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    relative = [ast.unparse(node) for node in imports if isinstance(node, ast.ImportFrom) and node.level]
    absolute = [
        ast.unparse(node)
        for node in imports
        for name in ([node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names])
        if name and name.split(".")[0] == "repro"
    ]
    assert imports and relative == [] and absolute == []


def test_eager_elu_node_keeps_only_its_mask():
    """Forward-only scratch must not live until backward (page faults, RSS).

    The VJP rebuilds the ELU slope from the output (or the input), so the
    eager node keeps no array at all, not even a mask.
    """
    x = Tensor(np.random.default_rng(1).normal(size=(6, 5)), requires_grad=True)
    out = x.elu()
    kernel, attrs, ctx = out._backward
    assert kernel is KERNELS["elu"]
    assert ctx == {}


def test_an_eager_vjp_keeps_no_gradient_it_returns():
    """Eager mode frees a gradient once its parent used it; a replay
    program's ctx (it holds the program's workspace) keeps the same bits."""
    rng = np.random.default_rng(2)
    a, b, grad = (rng.normal(size=(4, 3)) for _ in range(3))
    for op, ins, needs in [("mul", (a, b), (True, True)), ("neg", (a,), (True,))]:
        kernel = KERNELS[op]
        out = kernel.fwd(None, ins, None, {})
        ctx: dict = {}
        eager = kernel.vjp(grad, ins, out, None, ctx, needs)
        assert ctx == {}
        planned_ctx = {Workspace: Workspace()}
        planned = kernel.vjp(grad, ins, out, None, planned_ctx, needs)
        kept = [value for value in planned_ctx.values() if isinstance(value, np.ndarray)]
        assert len(kept) == len(planned)
        for got, want in zip(planned, eager):
            assert any(got is buffer for buffer in kept)
            np.testing.assert_array_equal(got, want)


# --------------------------------------------------------------------------- #
# ELU: one in-place form, pinned to the textbook expressions bit for bit
# --------------------------------------------------------------------------- #
def _textbook_elu(x, alpha):
    """The ELU forward and local slope as ``np.where`` forms."""
    pos = x > 0.0
    out = np.where(pos, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))
    return out, np.where(pos, 1.0, out + alpha)


def _assert_same_bits(actual, expected):
    """Bit-for-bit equality, except for the sign of a NaN (float32 exp drops it)."""
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    nan = np.isnan(expected)
    np.testing.assert_array_equal(np.isnan(actual), nan)
    uint = np.uint64 if expected.dtype == np.float64 else np.uint32
    np.testing.assert_array_equal(actual[~nan].view(uint), expected[~nan].view(uint))


def _elu_inputs(dtype):
    info = np.finfo(dtype)
    special = [
        0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
        2.0 ** -60, -(2.0 ** -60), info.tiny, -info.tiny,
        info.smallest_subnormal, -info.smallest_subnormal,
        -746.0, -1e4, -info.max, 1.0, -1.0,
    ]
    rng = np.random.default_rng(8)
    values = np.concatenate([np.array(special, dtype=dtype), 4.0 * rng.normal(size=300).astype(dtype)])
    grad = rng.normal(size=values.size).astype(dtype)
    grad[::7] = -0.0
    return values, grad


@pytest.mark.parametrize("alpha", [1.0, 1.3])
@pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
def test_elu_equals_the_textbook_form_bit_for_bit(dtype, alpha):
    """Eager (fresh output) and replay (reused buffers) routes, forward and VJP."""
    x, grad = _elu_inputs(dtype)
    with np.errstate(all="ignore"):
        out, slope = _textbook_elu(x, alpha)
        expected_grad = grad * slope
        kernel, attrs = KERNELS["elu"], {"alpha": alpha}
        node_ctx = {}
        eager = kernel.fwd(None, (x,), attrs, node_ctx)
        _assert_same_bits(eager, out)
        _assert_same_bits(kernel.vjp(grad, (x,), eager, attrs, node_ctx, (True,))[0], expected_grad)
        ctx, buffer = {}, np.empty_like(x)
        for _ in range(2):  # the second run reuses the first run's scratch
            assert kernel.fwd(buffer, (x,), attrs, ctx) is buffer
            _assert_same_bits(buffer, out)
            _assert_same_bits(kernel.vjp(grad, (x,), buffer, attrs, ctx, (True,))[0], expected_grad)


@pytest.mark.parametrize("alpha", [1.0, 1.3])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_elu_tensor_and_replay_equal_the_textbook_form(dtype, alpha):
    x_values, grad = _elu_inputs(np.dtype(dtype).type)  # the tensors keep this dtype
    with np.errstate(all="ignore"):
        out, slope = _textbook_elu(x_values, alpha)
        x = Tensor(x_values, requires_grad=True)
        y = x.elu(alpha)
        y.backward(grad)
        _assert_same_bits(y.data, out)
        _assert_same_bits(x.grad, grad * slope)

        leaf = Tensor(x_values, requires_grad=True)
        with TapeRecorder() as recorder:
            loss = (leaf.elu(alpha) * grad).sum()
            loss.backward()
        program = recorder.finalize(loss)
        leaf.grad = None
        program.run()
        _assert_same_bits(leaf.grad, grad * slope)


@pytest.mark.parametrize("alpha", [-2.0, 0.0, float("nan"), float("inf")])
def test_elu_rejects_alpha_outside_the_positive_reals(alpha):
    x = Tensor(np.array([-1.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="alpha"):
        x.elu(alpha)
    with pytest.raises(ValueError, match="alpha"):
        F.elu(x, alpha)
    with pytest.raises(ValueError, match="alpha"):
        resolve_activation("elu")(x, alpha)


# --------------------------------------------------------------------------- #
# getitem: assignment scatters for distinct rows, np.add.at otherwise
# --------------------------------------------------------------------------- #
_GATHER_INDICES = {
    "increasing": np.array([0, 2, 3]),
    "duplicates": np.array([0, 2, 2, 4]),
    "negative-alias": np.array([-5, 0]),  # strictly increasing, both name row 0
    "boolean-mask": np.array([True, False, True, True, False]),
    "unsorted-unique": np.array([3, 0, 4]),
    "slice": slice(1, 4),
    "empty": np.array([], dtype=np.int64),
}


@pytest.mark.parametrize("name", sorted(_GATHER_INDICES))
def test_getitem_vjp_accumulates_as_add_at(name):
    index = _GATHER_INDICES[name]
    x = np.random.default_rng(2).normal(size=(5, 3))
    grad = np.random.default_rng(3).normal(size=x[index].shape)
    grad.reshape(-1)[::2] = -0.0  # add.at into zeros lands these as +0.0
    expected = np.zeros_like(x)
    np.add.at(expected, index, grad)
    (full,) = KERNELS["getitem"].vjp(grad, (x,), None, {"index": index}, {}, (True,))
    np.testing.assert_array_equal(full.view(np.uint64), expected.view(np.uint64))


def test_replayed_gather_follows_an_index_redrawn_every_run():
    """Unique on one run and duplicated on the next: replay still equals eager."""
    draws = [np.array([0, 2, 3]), np.array([1, 1, 3]), np.array([0, 1, 4]), np.array([4, 0, 4])]
    pending = iter(draws)
    rng = np.random.default_rng(4)
    x_values, weights = rng.normal(size=(5, 3)), rng.normal(size=(3, 3))
    x = Tensor(x_values.copy(), requires_grad=True)
    with TapeRecorder() as recorder:
        loss = (x[dynamic(lambda: next(pending))] * weights).sum()
        loss.backward()
    program = recorder.finalize(loss)
    assert program is not None, recorder.aborted
    for index in draws[1:]:
        value = program.run()
        eager = Tensor(x_values.copy(), requires_grad=True)
        eager_loss = (eager[index] * weights).sum()
        eager_loss.backward()
        assert value == eager_loss.item()
        np.testing.assert_array_equal(x.grad.view(np.uint64), eager.grad.view(np.uint64))


# --------------------------------------------------------------------------- #
# RFF features: v * w + phi is kept only for a gradient
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("matrix", [False, True], ids=["one-draw", "draw-per-column"])
def test_rff_node_without_a_gradient_keeps_no_inner_and_equals_the_old_form(matrix):
    """Without a gradient the kernel forms v * w + phi in the output itself."""
    rng = np.random.default_rng(7)
    values = rng.normal(size=(5, 2) if matrix else (5,))
    freqs, phases = (_FREQS, _PHASES) if matrix else (_FREQS[0], _PHASES[0])
    if matrix:
        inner = values.T[:, None, :] * freqs[:, :, None] + phases[:, :, None]
    else:
        inner = values.reshape(-1, 1) * freqs + phases
    expected = np.multiply(np.cos(inner), 2.0 ** 0.5)
    kernel = KERNELS["rff_features"]
    for values_grad in (False, True):
        attrs = {"frequencies": freqs, "phis": phases, "values_grad": values_grad}
        ctx: dict = {}
        out = kernel.fwd(None, [values], attrs, ctx)
        assert ("inner" in ctx) is values_grad
        np.testing.assert_array_equal(out.view(np.uint64), expected.view(np.uint64))
    constant = F.rff_features(values, freqs, phases)
    np.testing.assert_array_equal(constant.data.view(np.uint64), expected.view(np.uint64))
    leaf = Tensor(values, requires_grad=True)
    assert F.rff_features(leaf, freqs, phases)._backward[1]["values_grad"] is True
    # Into a caller's buffer (the weight step's pool region): a constant, no node.
    buffer = np.full(expected.shape, np.nan)
    into = F.rff_features(values, freqs, phases, out=buffer)
    assert into.data is buffer and into._backward is None
    np.testing.assert_array_equal(buffer.view(np.uint64), expected.view(np.uint64))
    with pytest.raises(ValueError, match="no gradient"):
        F.rff_features(leaf, freqs, phases, out=buffer)


# --------------------------------------------------------------------------- #
# The eager array functions compiled serving shares: the old forms, bit for bit
# --------------------------------------------------------------------------- #
def _old_linear(x, w, b=None):
    return x @ w if b is None else (x @ w) + b


def _old_elu(x, alpha):
    t = np.empty(x.shape, dtype=x.dtype)
    np.minimum(x, 0.0, out=t)
    np.exp(t, out=t)
    np.subtract(t, 1.0, out=t)
    if alpha != 1.0:
        np.multiply(t, alpha, out=t)
    out = np.maximum(x, 0.0)
    return np.add(out, t, out=out)


def _old_sigmoid(x):
    t = np.empty_like(x)
    np.maximum(x, -60.0, out=t)
    np.minimum(t, 60.0, out=t)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.add(t, 1.0, out=t)
    return np.divide(1.0, t, out=t)


def _same(actual, expected):
    assert type(actual) is type(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


#: name -> (x shape, w shape, b shape or None)
_LINEAR_SHAPES = {
    "matrix": ((5, 4), (4, 3), (3,)),
    "no-bias": ((5, 4), (4, 3), None),
    "one-row-vector": ((4,), (4, 3), (3,)),
    "stacked-heads": ((5, 4), (2, 4, 3), (2, 1, 3)),
    "stacked-one-row": ((1, 4), (2, 4, 3), (2, 1, 3)),
    "bias-broadcasts-up": ((5, 4), (4, 1), (3,)),
    "bias-adds-a-dim": ((4,), (4, 3), (2, 3)),
    "scalar-product": ((4,), (4,), ()),
    "zero-rows": ((0, 4), (4, 3), (3,)),
}


@pytest.mark.parametrize("name", sorted(_LINEAR_SHAPES))
@pytest.mark.parametrize(
    "dtypes",
    [("float64",) * 3, ("float32",) * 3, ("float32", "float32", "float64"), ("float64", "float32", "float32")],
    ids=["float64", "float32", "float64-bias", "float32-weights"],
)
def test_linear_array_function_equals_the_old_form(name, dtypes):
    x_shape, w_shape, b_shape = _LINEAR_SHAPES[name]
    rng = np.random.default_rng(3)
    x = rng.normal(size=x_shape).astype(dtypes[0])
    w = rng.normal(size=w_shape).astype(dtypes[1])
    b = None if b_shape is None else np.asarray(rng.normal(size=b_shape)).astype(dtypes[2])
    _same(linear(x, w, b), _old_linear(x, w, b))
    ins = (x, w) if b is None else (x, w, b)
    _same(KERNELS["linear"].fwd(None, ins, None, {}), _old_linear(x, w, b))


@pytest.mark.parametrize("alpha", [1.0, 1.3])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", [(7,), (4, 5), (2, 3, 5)], ids=["1-D", "2-D", "stacked"])
def test_elu_and_sigmoid_array_functions_equal_the_old_forms(shape, dtype, alpha):
    x = (5.0 * np.random.default_rng(4).normal(size=shape)).astype(dtype)
    x.flat[0] = np.nan
    x.flat[1] = -100.0
    _same(elu(x, alpha), _old_elu(x, alpha))
    _same(sigmoid(x), _old_sigmoid(x))
    _same(KERNELS["elu"].fwd(None, (x,), {"alpha": alpha}, {}), _old_elu(x, alpha))
    _same(KERNELS["sigmoid"].fwd(None, (x,), None, {}), _old_sigmoid(x))
