import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import central_difference, rel_error
from eggimpute import tensor as T
from eggimpute.tensor import Tensor


def weighted_sum_loss(op, weight):
    """Scalar probe: sum(W * op(x)) exposes the full Jacobian."""
    def f(x_data):
        out = op(Tensor(x_data))
        return float((out.data * weight).sum())
    return f


def check_unary(op, x, rng, tol=1e-5):
    t = Tensor(x, requires_grad=True)
    out = op(t)
    w = rng.normal(size=out.shape)
    loss = T.reduce_sum(T.mul(out, Tensor(w)))
    loss.backward()
    fd = central_difference(weighted_sum_loss(op, w), x)
    assert rel_error(t.grad, fd) < tol


UNARY_CASES = [
    ("exp", lambda t: T.exp(t), lambda r: r.normal(size=(4, 5))),
    ("log", lambda t: T.log(t), lambda r: r.uniform(0.5, 3.0, size=(4, 5))),
    ("relu", lambda t: T.relu(t), lambda r: r.normal(size=(4, 5)) + 0.3),
    ("sigmoid", lambda t: T.sigmoid(t), lambda r: r.normal(size=(4, 5))),
    ("layer_norm_row", lambda t: T.layer_norm_row(t), lambda r: r.normal(size=(4, 5))),
    ("reduce_sum", lambda t: T.reduce_sum(t), lambda r: r.normal(size=(4, 5))),
    ("reduce_sum_rows", lambda t: T.reduce_sum(t, axis=0), lambda r: r.normal(size=(4, 5))),
    ("reduce_sum_cols", lambda t: T.reduce_sum(t, axis=1), lambda r: r.normal(size=(4, 5))),
    ("pairwise_sq_dist", lambda t: T.pairwise_sq_dist(t), lambda r: r.normal(size=(5, 3))),
    ("transpose", lambda t: T.transpose(t), lambda r: r.normal(size=(4, 5))),
    ("slice_rows", lambda t: T.slice_rows(t, 1, 3), lambda r: r.normal(size=(4, 5))),
    ("scale", lambda t: T.scale(t, -2.5), lambda r: r.normal(size=(4, 5))),
    ("add_scalar", lambda t: T.add_scalar(t, 1.7), lambda r: r.normal(size=(4, 5))),
]


@pytest.mark.parametrize("name,op,make", UNARY_CASES, ids=[c[0] for c in UNARY_CASES])
def test_unary_gradients_match_finite_differences(name, op, make, rng):
    check_unary(op, make(rng), rng)


@pytest.mark.parametrize("shape_b", [(4, 5), (1, 5), (4, 1), (1, 1)])
@pytest.mark.parametrize("binop", [T.add, T.sub, T.mul], ids=["add", "sub", "mul"])
def test_binary_gradients_match_finite_differences(binop, shape_b, rng):
    a_data = rng.normal(size=(4, 5))
    b_data = rng.normal(size=shape_b)
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = binop(a, b)
    w = rng.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(w))).backward()
    fd_a = central_difference(lambda x: float((binop(Tensor(x), Tensor(b_data)).data * w).sum()),
                              a_data)
    fd_b = central_difference(lambda x: float((binop(Tensor(a_data), Tensor(x)).data * w).sum()),
                              b_data)
    assert rel_error(a.grad, fd_a) < 1e-5
    assert rel_error(b.grad, fd_b) < 1e-5


BROADCAST_SHAPES = {"full": lambda m, n: (m, n), "row": lambda m, n: (1, n),
                    "col": lambda m, n: (m, 1), "scalar": lambda m, n: (1, 1)}


@settings(max_examples=80)
@given(binop=st.sampled_from([T.add, T.sub, T.mul]), rows=st.integers(1, 5),
       cols=st.integers(1, 5), kind_a=st.sampled_from(list(BROADCAST_SHAPES)),
       kind_b=st.sampled_from(list(BROADCAST_SHAPES)), seed=st.integers(0, 2 ** 32 - 1))
def test_binary_gradients_over_random_shapes(binop, rows, cols, kind_a, kind_b, seed):
    """Either operand may be a full matrix, a (1 x n) row, an (m x 1)
    column or a (1 x 1) scalar."""
    gen = np.random.default_rng(seed)
    a_data = gen.normal(size=BROADCAST_SHAPES[kind_a](rows, cols))
    b_data = gen.normal(size=BROADCAST_SHAPES[kind_b](rows, cols))
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    out = binop(a, b)
    w = gen.normal(size=out.shape)
    T.reduce_sum(T.mul(out, Tensor(w))).backward()
    fd_a = central_difference(lambda x: float((binop(Tensor(x), Tensor(b_data)).data * w).sum()),
                              a_data)
    fd_b = central_difference(lambda x: float((binop(Tensor(a_data), Tensor(x)).data * w).sum()),
                              b_data)
    assert a.grad.shape == a_data.shape and b.grad.shape == b_data.shape
    assert rel_error(a.grad, fd_a) < 1e-5
    assert rel_error(b.grad, fd_b) < 1e-5


def _away_from_zero(gen, shape):
    return gen.choice([-1.0, 1.0], size=shape) * gen.uniform(0.2, 2.0, size=shape)


RANDOM_SHAPE_CASES = {
    "exp": (T.exp, lambda g, s: g.normal(size=s)),
    "log": (T.log, lambda g, s: g.uniform(0.5, 3.0, size=s)),
    "relu": (T.relu, _away_from_zero),
    "sigmoid": (T.sigmoid, lambda g, s: g.normal(size=s)),
    "reduce_sum": (T.reduce_sum, lambda g, s: g.normal(size=s)),
    "reduce_sum_rows": (lambda t: T.reduce_sum(t, axis=0), lambda g, s: g.normal(size=s)),
    "reduce_sum_cols": (lambda t: T.reduce_sum(t, axis=1), lambda g, s: g.normal(size=s)),
    "pairwise_sq_dist": (T.pairwise_sq_dist, lambda g, s: g.normal(size=s)),
    "transpose": (T.transpose, lambda g, s: g.normal(size=s)),
    "scale": (lambda t: T.scale(t, -1.3), lambda g, s: g.normal(size=s)),
    "add_scalar": (lambda t: T.add_scalar(t, 0.7), lambda g, s: g.normal(size=s)),
}


@settings(max_examples=80)
@given(name=st.sampled_from(sorted(RANDOM_SHAPE_CASES)), rows=st.integers(1, 5),
       cols=st.integers(1, 5), seed=st.integers(0, 2 ** 32 - 1))
def test_unary_gradients_over_random_shapes(name, rows, cols, seed):
    op, make = RANDOM_SHAPE_CASES[name]
    gen = np.random.default_rng(seed)
    check_unary(op, make(gen, (rows, cols)), gen)


@settings(max_examples=30)
@given(m=st.integers(1, 4), k=st.integers(1, 4), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_gradients_over_random_shapes(m, k, n, seed):
    """Each operand, without a bias and with one."""
    gen = np.random.default_rng(seed)
    b_data = gen.normal(size=(k, n))
    check_unary(lambda t: T.matmul(t, Tensor(b_data)), gen.normal(size=(m, k)), gen)
    a_data = gen.normal(size=(m, k))
    check_unary(lambda t: T.matmul(Tensor(a_data), t), b_data, gen)
    bias_data = gen.normal(size=(1, n))
    check_unary(lambda t: T.matmul(t, Tensor(b_data), bias=Tensor(bias_data)), a_data, gen)
    check_unary(lambda t: T.matmul(Tensor(a_data), t, bias=Tensor(bias_data)), b_data, gen)
    check_unary(lambda t: T.matmul(Tensor(a_data), Tensor(b_data), bias=t), bias_data, gen)


@settings(max_examples=60)
@given(m=st.integers(1, 6), k=st.integers(1, 6), n=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_matmul_with_bias_is_matmul_then_add_bit_for_bit(m, k, n, seed):
    """The value and every gradient, with ``a`` read by a second op as well
    (so its gradient sums two shares) and the bias shared by two rows of calls."""
    gen = np.random.default_rng(seed)
    data = [gen.normal(size=s) for s in ((m, k), (k, n), (1, n), (m, n), (m, k))]

    def run(linear):
        a, b, bias = (Tensor(x, requires_grad=True) for x in data[:3])
        out = linear(a, b, bias)
        again = linear(T.relu(a), b, bias)
        loss = T.reduce_sum(T.mul(out, Tensor(data[3]))) + T.reduce_sum(T.mul(a, Tensor(data[4])))
        (loss + T.reduce_sum(T.mul(again, again))).backward()
        return [x.tobytes() for x in (out.data, again.data, a.grad, b.grad, bias.grad)]

    assert run(lambda a, b, bias: T.matmul(a, b, bias=bias)) == \
        run(lambda a, b, bias: T.matmul(a, b) + bias)


def test_matmul_rejects_a_bias_that_is_not_one_row_of_its_width():
    a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4)))
    for shape in ((2, 4), (1, 3), (4, 1)):
        with pytest.raises(ValueError, match="bias must be 1 x 4"):
            T.matmul(a, b, bias=Tensor(np.zeros(shape)))


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal(T.matmul(eye, m).data, m.data)


def test_matmul_hand_example():
    out = T.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    assert np.array_equal(out.data, [[3.0], [7.0]])


def test_matmul_gradient_matches_finite_differences(rng):
    a_data = rng.normal(size=(5, 4))
    b_data = rng.normal(size=(4, 3))
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    T.reduce_sum(T.matmul(a, b)).backward()
    fd = central_difference(lambda x: float((x @ b_data).sum()), a_data)
    assert rel_error(a.grad, fd) < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


def test_backward_rejects_non_scalar():
    t = Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (t + t).backward()


def test_backward_simple_square():
    x = Tensor([[3.0]], requires_grad=True)
    T.mul(x, x).backward()
    assert x.grad[0, 0] == pytest.approx(6.0)


def test_backward_unreachable_leaf_has_no_gradient():
    x = Tensor([[3.0]], requires_grad=True)
    y = Tensor([[2.0]], requires_grad=True)
    T.mul(x, x).backward()
    assert y.grad is None


def test_backward_accumulates_over_paths():
    x = Tensor([[2.0]], requires_grad=True)
    # loss = x*x + 3x -> d = 2x + 3 = 7
    loss = T.mul(x, x) + T.scale(x, 3.0)
    loss.backward()
    assert x.grad[0, 0] == pytest.approx(7.0)


def test_backward_deterministic(rng):
    x_data = rng.normal(size=(3, 3))
    grads = []
    for _ in range(2):
        x = Tensor(x_data, requires_grad=True)
        T.reduce_sum(T.exp(T.matmul(x, T.transpose(x)))).backward()
        grads.append(x.grad.copy())
    assert np.array_equal(grads[0], grads[1])


def test_backward_frees_the_tape_it_walks(rng):
    w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    hidden = T.relu(T.matmul(Tensor(rng.normal(size=(5, 3))), w))
    probe = weakref.ref(hidden.data)
    loss = T.reduce_sum(hidden)
    del hidden  # only loss still holds the interior node
    loss.backward()
    gc.collect()
    assert probe() is None
    assert w.grad is not None and loss.item() > 0


def test_second_backward_reaches_no_leaf(rng):
    x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    loss = T.reduce_sum(T.mul(x, x))
    loss.backward()
    assert np.array_equal(x.grad, 2 * x.data)
    x.grad = None
    loss.backward()
    assert x.grad is None


def test_backward_on_a_constant_loss_is_a_no_op():
    """A loss no recorded op made (a zero term, or ops on constants only)
    has no node: backward returns and reaches no leaf."""
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    for loss in (Tensor(np.zeros((1, 1))), T.reduce_sum(T.exp(Tensor(np.ones((2, 2)))))):
        loss.backward()
        assert not loss.requires_grad
    assert x.grad is None
    with pytest.raises(ValueError, match="scalar"):
        Tensor(np.zeros((2, 1))).backward()


def recording_rule(calls, name, factor):
    """A gradient rule that logs ``name`` to ``calls`` and returns ``factor * g``."""
    def rule(g):
        calls.append(name)
        return factor * g
    return rule


def test_backward_never_runs_the_rule_of_an_operand_that_needs_no_gradient():
    x = Tensor(np.ones((2, 3)), requires_grad=True)
    const = Tensor(np.full((2, 3), 3.0))
    calls = []
    out = T._make(x.data + const.data, (x, recording_rule(calls, "x", 2.0)),
                  (const, recording_rule(calls, "const", 1.0)))
    assert out._node.parents == (x._node, None) and len(out._node.rules) == 2
    T.reduce_sum(out).backward()
    assert calls == ["x"] and const.grad is None
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_an_operand_used_twice_receives_both_shares_in_operand_order(rng):
    x = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    w = rng.normal(size=(3, 2))
    T.reduce_sum(T.mul(T.mul(x, x), Tensor(w))).backward()
    assert np.array_equal(x.grad, w * x.data + w * x.data)

    y = Tensor(np.zeros((1, 1)), requires_grad=True)
    calls = []
    out = T._make(y.data, (y, recording_rule(calls, "left", 2.0)),
                  (y, recording_rule(calls, "right", 3.0)))
    assert out._node.parents == (y._node, y._node)
    T.reduce_sum(out).backward()
    assert calls == ["left", "right"] and y.grad[0, 0] == 5.0


def test_no_tape_ops_record_no_parents():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with T.no_tape():
        y = T.exp(T.matmul(x, x)) + x
    assert y._node is None and not y.requires_grad and y.grad is None
    assert np.array_equal(y.data, np.exp(np.full((2, 2), 2.0)) + 1)


def test_no_tape_restores_recording_after_nesting_and_exceptions():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(RuntimeError):
        with T.no_tape():
            with T.no_tape():
                pass
            assert T.exp(x)._node is None  # the inner block restored "off"
            raise RuntimeError("inside the block")
    assert T.exp(x)._node.parents == (x._node,)


def test_backward_inside_no_tape_raises():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    loss = T.reduce_sum(T.mul(x, x))
    with T.no_tape():
        with pytest.raises(ValueError, match="no_tape"):
            loss.backward()
    assert x.grad is None
    loss.backward()
    assert np.array_equal(x.grad, 2 * x.data)


def test_log_domain_error():
    with pytest.raises(ValueError):
        T.log(Tensor([[0.0, 1.0]]))


def test_pairwise_sq_dist_identical_rows():
    d = T.pairwise_sq_dist(Tensor(np.ones((3, 4))))
    assert np.array_equal(d.data, np.zeros((3, 3)))


def test_pairwise_sq_dist_unit_distance():
    d = T.pairwise_sq_dist(Tensor([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(d.data, [[0.0, 1.0], [1.0, 0.0]])


def test_pairwise_sq_dist_symmetric_zero_diagonal(rng):
    d = T.pairwise_sq_dist(Tensor(rng.normal(size=(6, 3)))).data
    assert np.array_equal(d, d.T)
    assert np.array_equal(np.diag(d), np.zeros(6))
    assert (d >= 0).all()


def test_layer_norm_row_standardizes():
    out = T.layer_norm_row(Tensor([[1.0, 2.0, 3.0]])).data
    assert out.mean() == pytest.approx(0.0, abs=1e-9)
    assert out.var() == pytest.approx(1.0, rel=1e-4)


def test_concat_and_gather_gradients(rng):
    a_data = rng.normal(size=(3, 2))
    b_data = rng.normal(size=(3, 4))
    a = Tensor(a_data, requires_grad=True)
    b = Tensor(b_data, requires_grad=True)
    w = rng.normal(size=(3, 6))
    T.reduce_sum(T.mul(T.concat_cols([a, b]), Tensor(w))).backward()
    assert np.allclose(a.grad, w[:, :2])
    assert np.allclose(b.grad, w[:, 2:])

    table = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    idx = [0, 2, 2, 4]
    w2 = rng.normal(size=(4, 3))
    T.reduce_sum(T.mul(T.gather_rows(table, idx), Tensor(w2))).backward()
    expected = np.zeros((5, 3))
    np.add.at(expected, idx, w2)
    assert np.allclose(table.grad, expected)


@pytest.mark.parametrize("op, axis, message", [
    (T.concat_cols, 1, "concat_cols needs matching row counts"),
    (T.concat_rows, 0, "concat_rows needs matching column counts"),
])
def test_concat_passes_each_input_a_copy_of_its_gradient_slice(rng, op, axis, message):
    sizes = [2, 1, 3]
    parts = [Tensor(rng.normal(size=(s, 4) if axis == 0 else (4, s)), requires_grad=True)
             for s in sizes]
    w = rng.normal(size=(6, 4) if axis == 0 else (4, 6))
    T.reduce_sum(T.mul(op(parts), Tensor(w))).backward()
    for part, piece in zip(parts, np.split(w, np.cumsum(sizes)[:-1], axis)):
        assert np.array_equal(part.grad, piece) and part.grad.flags.c_contiguous
    with pytest.raises(ValueError, match=message):
        op([Tensor(np.zeros((2, 2))), Tensor(np.zeros((3, 3)))])


def test_gather_rows_out_of_range():
    with pytest.raises(ValueError):
        T.gather_rows(Tensor(np.zeros((3, 2))), [3])


def test_straight_through_forwards_hard_backwards_relaxed(rng):
    relaxed_data = rng.uniform(size=(3, 3))
    relaxed = Tensor(relaxed_data, requires_grad=True)
    hard = (relaxed_data > 0.5).astype(float)
    out = T.straight_through(relaxed, hard)
    assert np.array_equal(out.data, hard)
    w = rng.normal(size=(3, 3))
    T.reduce_sum(T.mul(out, Tensor(w))).backward()
    assert np.array_equal(relaxed.grad, w)


def test_batch_norm_train_statistics_and_gradient(rng):
    x_data = rng.normal(2.0, 3.0, size=(8, 4))
    state = T.BatchNormState(4, np.float64)
    x = Tensor(x_data, requires_grad=True)
    out = T.batch_norm_col(x, state, training=True)
    assert np.allclose(out.data.mean(axis=0), 0.0, atol=1e-9)
    assert np.allclose(out.data.var(axis=0), 1.0, atol=1e-3)
    w = rng.normal(size=(8, 4))
    T.reduce_sum(T.mul(out, Tensor(w))).backward()

    def f(x_raw):
        s = T.BatchNormState(4, np.float64)
        return float((T.batch_norm_col(Tensor(x_raw), s, True).data * w).sum())

    fd = central_difference(f, x_data)
    assert rel_error(x.grad, fd) < 1e-5


def test_batch_norm_eval_uses_running_statistics(rng):
    state = T.BatchNormState(2, np.float64)
    # two training passes move the running stats off their init
    for _ in range(2):
        T.batch_norm_col(Tensor(rng.normal(5.0, 2.0, size=(16, 2))), state, training=True)
    x_data = rng.normal(size=(4, 2))
    out = T.batch_norm_col(Tensor(x_data), state, training=False)
    expected = (x_data - state.running_mean) / np.sqrt(state.running_var + T.BN_EPS)
    assert np.allclose(out.data, expected)


def test_tensor_rejects_3d():
    with pytest.raises(ValueError):
        Tensor(np.zeros((2, 2, 2)))
