"""Property-based finite-difference gradient checks for the autodiff core.

Every differentiable operation of :mod:`repro.nn` — tensor ops, functional
ops and parameterised modules — is checked against central finite
differences on seeded random inputs of random shapes.  The scenario-matrix
stress tests (and every training run) stand on this core, so drift in any
backward rule must fail loudly here.

The pattern: build a graph from ``requires_grad`` leaves, contract the
output to a scalar through a *fixed random projection* (so every output
element's gradient is exercised, not just the sum), backpropagate, and
compare each leaf's ``grad`` with ``(f(x + eps) - f(x - eps)) / (2 eps)``
evaluated element-wise.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.modules import MLP, Linear, Module, RepresentationNetwork, Sequential
from repro.nn.tensor import Tensor, concatenate, stack

EPS = 1e-6
RTOL = 1e-4
ATOL = 1e-6

# Shared hypothesis knobs: the checks are pure NumPy and fast, but keep the
# example counts modest — the op matrix below is wide.
GRADCHECK_SETTINGS = dict(max_examples=8, deadline=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dims = st.integers(min_value=1, max_value=4)


def scalar_loss(output: Tensor, seed: int) -> Tensor:
    """Contract ``output`` to a scalar via a fixed random projection."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    weights = rng.normal(size=output.shape)
    return (output * Tensor(weights)).sum()


def numeric_gradients(
    build: Callable[..., Tensor], arrays: Sequence[np.ndarray], seed: int
) -> List[np.ndarray]:
    """Central-difference gradients of the projected scalar wrt each array."""

    def evaluate(values: Sequence[np.ndarray]) -> float:
        out = build(*[Tensor(np.asarray(v, dtype=np.float64)) for v in values])
        return float(scalar_loss(out, seed).data)

    gradients: List[np.ndarray] = []
    for index, array in enumerate(arrays):
        grad = np.zeros_like(array, dtype=np.float64)
        iterator = np.nditer(array, flags=["multi_index"])
        while not iterator.finished:
            position = iterator.multi_index
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[index][position] += EPS
            minus[index][position] -= EPS
            grad[position] = (evaluate(plus) - evaluate(minus)) / (2.0 * EPS)
            iterator.iternext()
        gradients.append(grad)
    return gradients


def check_gradients(build: Callable[..., Tensor], *arrays: np.ndarray, seed: int = 0) -> None:
    """Assert autograd and finite-difference gradients agree on ``build``."""
    arrays = tuple(np.asarray(a, dtype=np.float64) for a in arrays)
    leaves = [Tensor(a.copy(), requires_grad=True) for a in arrays]
    loss = scalar_loss(build(*leaves), seed)
    loss.backward()
    expected = numeric_gradients(build, arrays, seed)
    for leaf, want in zip(leaves, expected):
        assert leaf.grad is not None, "no gradient reached a requires_grad leaf"
        np.testing.assert_allclose(leaf.grad, want, rtol=RTOL, atol=ATOL)


def _away_from(x: np.ndarray, points: Sequence[float], margin: float = 0.05) -> np.ndarray:
    """Nudge values off non-differentiable points (kinks, clip edges)."""
    for point in points:
        close = np.abs(x - point) < margin
        x = np.where(close, point + np.sign(x - point + 0.5 * margin) * margin * 2, x)
    return x


# --------------------------------------------------------------------- #
# Elementwise unary operations
# --------------------------------------------------------------------- #
UNARY_OPS = {
    "neg": (lambda t: -t, lambda x: x),
    "exp": (lambda t: t.exp(), lambda x: x),
    "log": (lambda t: t.log(), lambda x: np.abs(x) + 0.5),
    "sqrt": (lambda t: t.sqrt(), lambda x: np.abs(x) + 0.5),
    "abs": (lambda t: t.abs(), lambda x: _away_from(x, [0.0])),
    "tanh": (lambda t: t.tanh(), lambda x: x),
    "sigmoid": (lambda t: t.sigmoid(), lambda x: x),
    "relu": (lambda t: t.relu(), lambda x: _away_from(x, [0.0])),
    "elu": (lambda t: t.elu(1.3), lambda x: _away_from(x, [0.0])),
    "softplus": (lambda t: t.softplus(), lambda x: x),
    "sin": (lambda t: t.sin(), lambda x: x),
    "cos": (lambda t: t.cos(), lambda x: x),
    "clip": (lambda t: t.clip(-0.5, 0.5), lambda x: _away_from(x, [-0.5, 0.5])),
    "clip_low_only": (lambda t: t.clip(-0.5, None), lambda x: _away_from(x, [-0.5])),
    "clip_high_only": (lambda t: t.clip(None, 0.5), lambda x: _away_from(x, [0.5])),
    "pow2": (lambda t: t ** 2, lambda x: x),
    "pow3": (lambda t: t ** 3, lambda x: x),
    "pow1.5": (lambda t: t ** 1.5, lambda x: np.abs(x) + 0.5),
    "reciprocal": (lambda t: 1.0 / t, lambda x: np.sign(x) * (np.abs(x) + 0.5)),
}


@pytest.mark.parametrize("name", sorted(UNARY_OPS))
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_unary_ops(name, seed, rows, cols):
    op, domain = UNARY_OPS[name]
    rng = np.random.default_rng(seed)
    x = domain(rng.normal(size=(rows, cols)))
    check_gradients(op, x, seed=seed)


# --------------------------------------------------------------------- #
# Broadcasting binary arithmetic
# --------------------------------------------------------------------- #
BINARY_OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
    "maximum": lambda a, b: a.maximum(b),
    "radd_scalar": lambda a, b: 2.5 + a + b,
    "rsub_scalar": lambda a, b: 2.5 - (a * b),
    "rdiv_scalar": lambda a, b: 1.5 / a + b,
}


@pytest.mark.parametrize("name", sorted(BINARY_OPS))
@pytest.mark.parametrize("broadcast", ["full", "row", "scalar"])
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_binary_ops_with_broadcasting(name, broadcast, seed, rows, cols):
    op = BINARY_OPS[name]
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    if broadcast == "full":
        b = rng.normal(size=(rows, cols))
    elif broadcast == "row":
        b = rng.normal(size=(1, cols))
    else:
        b = rng.normal(size=())
    if name in ("div", "rdiv_scalar"):
        a = np.sign(a) * (np.abs(a) + 0.5)
        b = np.sign(b) * (np.abs(b) + 0.5)
    if name == "maximum":
        # Ties are subgradient points; keep the operands separated.
        b = np.where(np.abs(a - b) < 0.05, b + 0.2, b)
    check_gradients(op, a, b, seed=seed)


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((3,), (3,)), ((3,), (3, 2)), ((2, 3), (3,)), ((2, 3), (3, 4)), ((1, 3), (3, 1))],
)
@given(seed=seeds)
@settings(**GRADCHECK_SETTINGS)
def test_matmul_operand_ranks(shape_a, shape_b, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=shape_a)
    b = rng.normal(size=shape_b)
    check_gradients(lambda x, y: x.matmul(y), a, b, seed=seed)


# --------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("reduction", ["sum", "mean", "var"])
@pytest.mark.parametrize("axis", [None, 0, 1])
@pytest.mark.parametrize("keepdims", [False, True])
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_reductions(reduction, axis, keepdims, seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    check_gradients(
        lambda t: getattr(t, reduction)(axis=axis, keepdims=keepdims), x, seed=seed
    )


def test_mean_over_axis_tuple():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(3, 4))
    check_gradients(lambda t: t.mean(axis=(0, 1)), x, seed=7)


# --------------------------------------------------------------------- #
# Shape manipulation and indexing
# --------------------------------------------------------------------- #
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_reshape_and_transpose(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    check_gradients(lambda t: t.reshape(cols * rows), x, seed=seed)
    check_gradients(lambda t: t.transpose(), x, seed=seed)
    check_gradients(lambda t: t.T.matmul(t), x, seed=seed)


@given(seed=seeds)
@settings(**GRADCHECK_SETTINGS)
def test_getitem_slices_and_fancy_indices(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(5, 3))
    index = rng.integers(0, 5, size=4)  # repeats accumulate gradient
    check_gradients(lambda t: t[0], x, seed=seed)
    check_gradients(lambda t: t[1:, :2], x, seed=seed)
    check_gradients(lambda t: t[index], x, seed=seed)


@pytest.mark.parametrize("axis", [0, 1])
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_concatenate_and_stack(axis, seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(rows, cols))
    c = rng.normal(size=(rows, cols))
    check_gradients(lambda *ts: concatenate(ts, axis=axis), a, b, c, seed=seed)
    check_gradients(lambda *ts: stack(ts, axis=axis), a, b, c, seed=seed)


# --------------------------------------------------------------------- #
# Functional interface
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("name", ["elu", "relu", "sigmoid", "tanh", "softplus"])
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_functional_activations(name, seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    if name in ("relu", "elu"):
        x = _away_from(x, [0.0])
    check_gradients(getattr(F, name), x, seed=seed)


@pytest.mark.parametrize("with_bias", [False, True])
@given(seed=seeds, rows=dims, inner=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_functional_linear(with_bias, seed, rows, inner, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, inner))
    weight = rng.normal(size=(inner, cols))
    if with_bias:
        bias = rng.normal(size=(cols,))
        check_gradients(lambda a, w, b: F.linear(a, w, b), x, weight, bias, seed=seed)
    else:
        check_gradients(lambda a, w: F.linear(a, w), x, weight, seed=seed)


@given(seed=seeds, n=st.integers(min_value=2, max_value=6))
@settings(**GRADCHECK_SETTINGS)
def test_functional_losses(seed, n):
    rng = np.random.default_rng(seed)
    prediction = rng.normal(size=(n,))
    target = rng.normal(size=(n,))
    weights = np.abs(rng.normal(size=(n,))) + 0.1
    check_gradients(lambda p: F.mse_loss(p, target), prediction, seed=seed)
    check_gradients(lambda p, w: F.weighted_mse_loss(p, target, w), prediction, weights, seed=seed)

    # Probabilities strictly inside the BCE clipping band.
    probabilities = 0.05 + 0.9 * (1.0 / (1.0 + np.exp(-rng.normal(size=(n,)))))
    labels = (rng.uniform(size=n) < 0.5).astype(np.float64)
    check_gradients(lambda p: F.binary_cross_entropy(p, labels), probabilities, seed=seed)
    check_gradients(
        lambda p, w: F.weighted_binary_cross_entropy(p, labels, w),
        probabilities,
        weights,
        seed=seed,
    )


@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_functional_l2_penalty_and_normalize_rows(seed, rows, cols):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, cols))
    b = rng.normal(size=(cols,))
    check_gradients(lambda x, y: F.l2_penalty([x, y]), a, b, seed=seed)
    # Rows bounded away from zero norm, where normalisation is smooth.
    x = rng.normal(size=(rows, cols)) + np.sign(rng.normal(size=(rows, cols))) * 0.5
    check_gradients(F.normalize_rows, x, seed=seed)


# --------------------------------------------------------------------- #
# Fused kernels (single-node closed-form VJPs)
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("shape_x", [(3,), (4, 3)])
@given(seed=seeds, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_fused_linear_operand_ranks(shape_x, seed, cols):
    """The fused linear op must cover 1-D and 2-D inputs like matmul."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape_x)
    weight = rng.normal(size=(3, cols))
    bias = rng.normal(size=(cols,))
    check_gradients(lambda a, w, b: F.linear(a, w, b), x, weight, bias, seed=seed)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("shape", [(5,), (4, 2)])
@given(seed=seeds)
@settings(**GRADCHECK_SETTINGS)
def test_bce_with_logits_gradients(weighted, shape, seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=shape) * 2.0
    labels = (rng.uniform(size=shape) < 0.5).astype(np.float64)
    if weighted:
        weights = np.abs(rng.normal(size=shape)) + 0.1
        check_gradients(
            lambda z, w: F.bce_with_logits(z, labels, w), logits, weights, seed=seed
        )
    else:
        check_gradients(lambda z: F.bce_with_logits(z, labels), logits, seed=seed)


def test_bce_with_logits_matches_probability_path():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=12) * 3.0
    labels = (rng.uniform(size=12) < 0.5).astype(np.float64)
    weights = np.abs(rng.normal(size=12)) + 0.1
    fused = F.bce_with_logits(logits, labels, weights).item()
    composed = F.weighted_binary_cross_entropy(
        F.sigmoid(Tensor(logits)), labels, weights
    ).item()
    assert fused == pytest.approx(composed, rel=1e-6)


@given(seed=seeds, n=st.integers(min_value=2, max_value=6), features=dims)
@settings(**GRADCHECK_SETTINGS)
def test_rff_features_gradients(seed, n, features):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n,))
    frequencies = rng.normal(size=features)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=features)
    check_gradients(lambda v: F.rff_features(v, frequencies, phases), values, seed=seed)


@given(seed=seeds, n=st.integers(min_value=2, max_value=6), cols=dims, features=dims)
@settings(**GRADCHECK_SETTINGS)
def test_rff_features_matrix_gradients(seed, n, cols, features):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, cols))
    frequencies = rng.normal(size=(cols, features))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=(cols, features))
    check_gradients(lambda v: F.rff_features(v, frequencies, phases), values, seed=seed)


#: (columns, left, right) of the batched pair node: a column shared by
#: several pairs, a single pair among three columns, and a 2-column layer.
PAIR_LAYOUTS = {
    "repeated-columns": (3, [0, 0, 1, 2], [1, 2, 2, 0]),
    "single-pair": (3, [1], [2]),
    "two-columns": (2, [0], [1]),
}


@pytest.mark.parametrize("layout", sorted(PAIR_LAYOUTS))
@given(seed=seeds, n=st.integers(min_value=2, max_value=5), k=dims)
@settings(**GRADCHECK_SETTINGS)
def test_weighted_pair_sq_cross_cov_gradients(layout, seed, n, k):
    cols, left, right = PAIR_LAYOUTS[layout]
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(cols, k, n))
    # Unnormalised on purpose: at sum(probs) == 1 the gradient paths through
    # the weighted means vanish, and the check could not see them.
    probs = np.abs(rng.normal(size=n)) + 0.1
    check_gradients(
        lambda f, p: F.weighted_pair_sq_cross_cov(f, p, np.array(left), np.array(right)),
        features,
        probs,
        seed=seed,
    )


@given(seed=seeds, n_control=st.integers(min_value=2, max_value=4), n_treated=st.integers(min_value=2, max_value=4), features=dims)
@settings(max_examples=5, deadline=None)
def test_mmd_rbf_weighted_gradients(seed, n_control, n_treated, features):
    from repro.metrics.ipm import mmd_rbf_weighted

    rng = np.random.default_rng(seed)
    control = rng.normal(size=(n_control, features))
    treated = rng.normal(size=(n_treated, features))
    w_control = np.abs(rng.normal(size=(n_control,))) + 0.2
    w_treated = np.abs(rng.normal(size=(n_treated,))) + 0.2
    check_gradients(
        lambda c, t, wc, wt: mmd_rbf_weighted(c, t, wc, wt, sigma=1.3),
        control,
        treated,
        w_control,
        w_treated,
        seed=seed,
    )


@pytest.mark.parametrize("n_control, n_treated", [(1, 3), (4, 1), (3, 2)])
@given(seed=seeds, features=dims)
@settings(**GRADCHECK_SETTINGS)
def test_weighted_rbf_mmd_gradients(n_control, n_treated, seed, features):
    rng = np.random.default_rng(seed)
    control = rng.normal(size=(n_control, features))
    treated = rng.normal(size=(n_treated, features))
    # Unnormalised weights: the node uses them as given.
    w_control = np.abs(rng.normal(size=(n_control,))) + 0.2
    w_treated = np.abs(rng.normal(size=(n_treated,))) + 0.2
    check_gradients(
        lambda c, t, wc, wt: F.weighted_rbf_mmd(c, t, wc, wt, sigma=0.8),
        control,
        treated,
        w_control,
        w_treated,
        seed=seed,
    )


@given(seed=seeds, n=st.integers(min_value=3, max_value=6))
@settings(max_examples=5, deadline=None)
def test_weighted_hsic_rff_gradients(seed, n):
    from repro.metrics.hsic import RandomFourierFeatures, weighted_hsic_rff

    rng = np.random.default_rng(seed)
    features = (
        RandomFourierFeatures.draw(3, np.random.default_rng(seed + 1)),
        RandomFourierFeatures.draw(3, np.random.default_rng(seed + 2)),
    )
    col_a = rng.normal(size=(n,))
    col_b = rng.normal(size=(n,))
    weights = np.abs(rng.normal(size=(n,))) + 0.2
    check_gradients(
        lambda a, b, w: weighted_hsic_rff(a, b, w, features), col_a, col_b, weights, seed=seed
    )


@given(seed=seeds, n=st.integers(min_value=3, max_value=5), cols=st.integers(min_value=2, max_value=4))
@settings(max_examples=4, deadline=None)
def test_pairwise_decorrelation_loss_gradients(seed, n, cols):
    from repro.metrics.hsic import RandomFourierFeatures, pairwise_decorrelation_loss

    rng = np.random.default_rng(seed)
    draws = [RandomFourierFeatures.draw(3, np.random.default_rng(seed + i)) for i in range(cols)]
    matrix = rng.normal(size=(n, cols))
    weights = np.abs(rng.normal(size=(n,))) + 0.2
    check_gradients(
        lambda m, w: pairwise_decorrelation_loss(m, w, draws, max_pairs=None),
        matrix,
        weights,
        seed=seed,
    )


def test_pow_fractional_exponent_zero_edge():
    """x ** p with p < 1 must emit a zero (not inf) gradient at x == 0."""
    x = Tensor(np.array([0.0, 0.5, 2.0]), requires_grad=True)
    (x ** 0.5).sum().backward()
    assert np.all(np.isfinite(x.grad))
    np.testing.assert_allclose(x.grad, [0.0, 0.5 * 0.5 ** -0.5, 0.5 * 2.0 ** -0.5])
    # Away from zero the guard must not change anything: plain gradcheck.
    rng = np.random.default_rng(3)
    positive = np.abs(rng.normal(size=(3, 2))) + 0.5
    check_gradients(lambda t: t ** 0.7, positive, seed=3)


# --------------------------------------------------------------------- #
# Modules: gradients with respect to every registered parameter
# --------------------------------------------------------------------- #
def check_module_gradients(module: Module, x: np.ndarray, seed: int = 0) -> None:
    """Finite-difference check of d(loss)/d(parameter) for every parameter."""
    parameters = list(module.parameters())
    assert parameters, "module under test has no parameters"
    originals = [param.data.copy() for param in parameters]

    def evaluate(values: Sequence[np.ndarray]) -> float:
        for param, value in zip(parameters, values):
            param.data = value.copy()
        out = module(x)
        result = float(scalar_loss(out, seed).data)
        for param, original in zip(parameters, originals):
            param.data = original.copy()
        return result

    module.zero_grad()
    loss = scalar_loss(module(x), seed)
    loss.backward()

    for index, param in enumerate(parameters):
        numeric = np.zeros_like(param.data)
        iterator = np.nditer(param.data, flags=["multi_index"])
        while not iterator.finished:
            position = iterator.multi_index
            plus = [o.copy() for o in originals]
            minus = [o.copy() for o in originals]
            plus[index][position] += EPS
            minus[index][position] -= EPS
            numeric[position] = (evaluate(plus) - evaluate(minus)) / (2.0 * EPS)
            iterator.iternext()
        assert param.grad is not None
        np.testing.assert_allclose(param.grad, numeric, rtol=RTOL, atol=ATOL)


@given(seed=seeds, batch=dims, in_features=dims, out_features=dims)
@settings(max_examples=5, deadline=None)
def test_linear_module_gradients(seed, batch, in_features, out_features):
    rng = np.random.default_rng(seed)
    module = Linear(in_features, out_features, rng=rng)
    x = rng.normal(size=(batch, in_features))
    check_module_gradients(module, x, seed=seed)


@pytest.mark.parametrize("output_activation", [None, "sigmoid"])
@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_mlp_gradients(output_activation, seed):
    rng = np.random.default_rng(seed)
    module = MLP(
        3, hidden_sizes=(4, 3), out_features=2,
        activation="tanh", output_activation=output_activation, rng=rng,
    )
    x = rng.normal(size=(5, 3))
    check_module_gradients(module, x, seed=seed)


@pytest.mark.parametrize("normalize", [False, True])
@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_representation_network_gradients(normalize, seed):
    rng = np.random.default_rng(seed)
    module = RepresentationNetwork(
        3, hidden_sizes=(4, 3), activation="elu", normalize=normalize, rng=rng
    )
    x = rng.normal(size=(4, 3))
    check_module_gradients(module, x, seed=seed)


@given(seed=seeds)
@settings(max_examples=4, deadline=None)
def test_sequential_gradients(seed):
    rng = np.random.default_rng(seed)
    module = Sequential(Linear(3, 4, rng=rng), Linear(4, 2, rng=rng))
    x = rng.normal(size=(4, 3))
    check_module_gradients(module, x, seed=seed)


# --------------------------------------------------------------------- #
# Graph-level properties
# --------------------------------------------------------------------- #
@given(seed=seeds, rows=dims, cols=dims)
@settings(**GRADCHECK_SETTINGS)
def test_shared_leaf_accumulates_through_branches(seed, rows, cols):
    """A leaf used by several branches receives the summed gradient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, cols))
    check_gradients(lambda t: (t * t).sum() + t.tanh().sum() + (2.0 * t).mean(), x, seed=seed)


@given(seed=seeds)
@settings(**GRADCHECK_SETTINGS)
def test_composite_training_style_expression(seed):
    """A miniature SBRL-style loss: affine map, activation, weighted MSE."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(6, 3))
    w = rng.normal(size=(3, 1))
    b = rng.normal(size=(1,))
    target = rng.normal(size=(6, 1))
    weights = np.abs(rng.normal(size=(6, 1))) + 0.1

    def build(wt, bt):
        prediction = F.elu(F.linear(x, wt, bt))
        diff = prediction - Tensor(target)
        return (Tensor(weights) * diff * diff).mean()

    check_gradients(build, w, b, seed=seed)
