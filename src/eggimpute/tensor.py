"""Dense 2-D tensors with a reverse-mode autodiff tape.

Every tensor is a row-major matrix that keeps a floating array's dtype (any
other array becomes float64), and an op's output and gradients follow its
operands under numpy's promotion: float32 parameters and inputs give a
float32 tape, and float64 arrays, as the gradient checks pass, a float64
one; a node's first gradient takes the node's dtype.  A tensor that needs
a gradient also holds a node on the implicit tape; a recorded operation's
node keeps its operands' nodes and one gradient rule per operand, which maps
the result's gradient to that operand's share.  Nodes hold no values: each rule
closes over the arrays it reads (never over a tensor), and a constant
operand keeps no rule, so an output that no rule reads is freed as soon as
the forward drops it.  Calling ``backward`` on a scalar loss topologically
sorts the reachable nodes, runs the rules of the operands that need a
gradient, replaces the ``grad`` of each ``requires_grad`` leaf it reaches
(a leaf it does not reach keeps its old one) and frees the tape it walked,
so a second ``backward`` on the same loss reaches no leaf; on a constant
loss it does nothing.
Inside ``with no_tape():`` operations record nothing, which is how
evaluation runs.  Broadcasting is restricted to row vectors (1 x n),
column vectors (m x 1) and scalars.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_recording = True  # read by _make; switched off only by no_tape()
# sigmoid clips its input to +-LOGIT_CLIP: exp stays finite in float32 (it would up to 88),
# and sigmoid(-30) = 9.4e-14 keeps values and gradients clear of float32's subnormal
# range; at a clip of 88 the egg-impute benchmark's traced sampler time doubled (SkylakeX,
# OpenBLAS), as an elementwise product with 7% subnormal values runs about 12x slower
LOGIT_CLIP = 30.0


@contextmanager
def no_tape():
    """Run the block without recording: ops return tensors with no parents."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class _Node:
    """One tensor's place on the tape: the operands' nodes (None for a constant),
    one rule each (None for a constant's), the incoming gradient, and the shape
    and dtype of the tensor's data.  A node holds no values; each rule closes over
    just the arrays it reads."""

    __slots__ = ("parents", "rules", "grad", "shape", "dtype")

    def __init__(self, data, parents=(), rules=()):
        self.parents, self.rules, self.grad = parents, rules, None
        self.shape, self.dtype = data.shape, data.dtype


class Tensor:
    """A 2-D floating matrix, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self._node = _Node(arr) if requires_grad else None

    @property
    def shape(self):
        return self.data.shape

    @property
    def requires_grad(self):
        return self._node is not None

    @property
    def grad(self):
        return None if self._node is None else self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def item(self):
        if self.data.size != 1:
            raise ValueError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def backward(self):
        """Replace the ``grad`` of each leaf this scalar reaches with its gradient,
        unlinking each interior node (and dropping its gradient) once its rules have run;
        a leaf it does not reach keeps its old ``grad`` (``training.train`` clears them
        first), a constant operand has no rule to run, and a constant loss reaches no leaf."""
        if self.data.shape != (1, 1):
            raise ValueError(f"backward needs a scalar (1x1) loss, got {self.data.shape}")
        if not _recording:
            raise ValueError("backward inside no_tape(): nothing was recorded")
        root = self._node
        if root is None:
            return
        order = []
        seen = set()
        stack = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if p is not None and id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        root.grad = np.ones((1, 1), root.dtype)
        while order:
            node = order.pop()
            parents, rules, grad = node.parents, node.rules, node.grad
            if not rules:
                continue
            node.parents, node.rules, node.grad = (), (), None
            for parent, rule in zip(parents, rules):
                if parent is None:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros(parent.shape, parent.dtype)
                parent.grad += rule(grad)


def _make(data, *rules):
    """``data`` as a tensor whose node keeps one ``(parent, rule)`` pair per
    operand, ``rule`` mapping its gradient to that operand's share; a constant
    operand keeps neither.  Untracked unless recording and some operand needs
    a gradient."""
    out = Tensor(data)
    if _recording and any(parent._node is not None for parent, _ in rules):
        out._node = _Node(out.data, tuple(parent._node for parent, _ in rules),
                          tuple(rule if parent._node is not None else None
                                for parent, rule in rules))
    return out


def _unbroadcast(grad, shape):
    """Sum a gradient back down to the broadcast operand's shape."""
    if grad.shape == shape:
        return grad
    out = grad
    if shape[0] == 1 and grad.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and grad.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != shape:
        raise ValueError(f"cannot reduce grad {grad.shape} to {shape}")
    return out


def _check_broadcast(a, b):
    for da, db in zip(a.shape, b.shape):
        if da != db and da != 1 and db != 1:
            raise ValueError(f"incompatible shapes {a.shape} and {b.shape}")


# -- arithmetic ---------------------------------------------------------

def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """``a @ b``, plus a 1 x n ``bias`` row in the same node when given."""
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    x, w = a.data, b.data
    rules = (a, lambda g: g @ w.T), (b, lambda g: x.T @ g)
    if bias is None:
        return _make(x @ w, *rules)
    if bias.shape != (1, b.shape[1]):
        raise ValueError(f"matmul bias must be 1 x {b.shape[1]}, got {bias.shape}")
    return _make(x @ w + bias.data, *rules, (bias, lambda g: g.sum(axis=0, keepdims=True)))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    sa, sb = a.shape, b.shape
    return _make(a.data + b.data, (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(g, sb)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)
    sa, sb = a.shape, b.shape
    return _make(a.data - b.data, (a, lambda g: _unbroadcast(g, sa)),
                 (b, lambda g: _unbroadcast(-g, sb)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product (with row/column-vector broadcasting)."""
    _check_broadcast(a, b)
    x, y, sa, sb = a.data, b.data, a.shape, b.shape
    return _make(x * y, (a, lambda g: _unbroadcast(g * y, sa)),
                 (b, lambda g: _unbroadcast(g * x, sb)))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _make(a.data * c, (a, lambda g: g * c))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _make(a.data + float(c), (a, lambda g: g))


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _make(out_data, (a, lambda g: g * out_data))


def log(a: Tensor) -> Tensor:
    x = a.data
    if np.any(x <= 0):
        raise ValueError("log of non-positive value; mask the input first")
    return _make(np.log(x), (a, lambda g: g / x))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(a.data * mask, (a, lambda g: g * mask))


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-np.clip(a.data, -LOGIT_CLIP, LOGIT_CLIP)))
    return _make(out_data, (a, lambda g: g * out_data * (1.0 - out_data)))


# -- reductions ---------------------------------------------------------

def reduce_sum(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        out_data = a.data.sum().reshape(1, 1)
    else:
        out_data = a.data.sum(axis=axis, keepdims=True)
    shape = a.shape
    return _make(out_data, (a, lambda g: np.broadcast_to(g, shape).copy()))


def _standardize(a: Tensor, axis: int, eps: float):
    """Zero mean, unit variance along ``axis``; returns (out, mean, var)."""
    mean = a.data.mean(axis=axis, keepdims=True)
    var = a.data.var(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = a.data - mean
    xhat *= inv_std

    def grad_a(g):
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        out = g - gm
        out -= xhat * gx
        out *= inv_std
        return out

    return _make(xhat, (a, grad_a)), mean, var


def layer_norm_row(a: Tensor) -> Tensor:
    """Per-row standardization without learnable affine parameters."""
    return _standardize(a, 1, 1e-5)[0]


def pairwise_sq_dist(a: Tensor) -> Tensor:
    """D[i, j] = squared Euclidean distance between rows i and j."""
    x = a.data
    sq = (x ** 2).sum(axis=1, keepdims=True)
    gram = x @ x.T
    gram *= 2.0
    d = sq + sq.T
    d -= gram
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)

    def grad_a(g):
        s = g + g.T
        out = s.sum(axis=1, keepdims=True) * x
        out -= s @ x
        out *= 2.0
        return out

    return _make(d, (a, grad_a))


# -- structure ----------------------------------------------------------

def transpose(a: Tensor) -> Tensor:
    return _make(a.data.T.copy(), (a, lambda g: g.T))


def _concat(tensors, axis) -> Tensor:
    """Join 2-D tensors along ``axis``; each part's gradient is a copy of its slice."""
    tensors = list(tensors)
    if any(t.shape[1 - axis] != tensors[0].shape[1 - axis] for t in tensors):
        raise ValueError(f"concat_{('rows', 'cols')[axis]} needs matching "
                         f"{('column', 'row')[axis]} counts")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def part_rule(t, lo, hi):
        index = (slice(None), slice(lo, hi)) if axis else slice(lo, hi)
        return t, lambda g: g[index].copy()

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 *map(part_rule, tensors, offsets[:-1], offsets[1:]))


def concat_cols(tensors) -> Tensor:
    return _concat(tensors, 1)


def concat_rows(tensors) -> Tensor:
    return _concat(tensors, 0)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    shape, dtype = a.shape, a.data.dtype

    def grad_a(g):
        full = np.zeros(shape, dtype)
        full[start:stop, :] = g
        return full

    return _make(a.data[start:stop, :].copy(), (a, grad_a))


def gather_rows(table: Tensor, indices) -> Tensor:
    """Embedding lookup: rows of ``table`` selected by integer indices."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"index out of range for table with {table.shape[0]} rows")
    shape, dtype = table.shape, table.data.dtype

    def grad_table(g):
        full = np.zeros(shape, dtype)
        np.add.at(full, idx, g)
        return full

    return _make(table.data[idx, :].copy(), (table, grad_table))


def straight_through(relaxed: Tensor, hard_values) -> Tensor:
    """Forward the hard values, backward the relaxed path unchanged."""
    hard = np.asarray(hard_values, dtype=np.float64)
    if hard.shape != relaxed.shape:
        raise ValueError(f"hard values {hard.shape} must match relaxed {relaxed.shape}")
    return _make(hard.copy(), (relaxed, lambda g: g.copy()))


# -- batch normalization ------------------------------------------------

BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # weight of each training batch in the running stats


class BatchNormState:
    """Running per-column statistics for batch normalization."""

    def __init__(self, width, dtype):
        self.running_mean = np.zeros((1, width), dtype)
        self.running_var = np.ones((1, width), dtype)


def batch_norm_col(a: Tensor, state: BatchNormState, training: bool) -> Tensor:
    """Column-wise standardization; batch statistics while training,
    running statistics in evaluation mode (no learnable affine)."""
    if a.shape[1] != state.running_mean.shape[1]:
        raise ValueError(f"batch norm width mismatch: {a.shape[1]} vs {state.running_mean.shape[1]}")
    if training:
        out, mean, var = _standardize(a, 0, BN_EPS)
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
        return out

    inv_std = 1.0 / np.sqrt(state.running_var + BN_EPS)
    return _make((a.data - state.running_mean) * inv_std, (a, lambda g: g * inv_std))
