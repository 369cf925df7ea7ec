"""Dense 2-D tensors with a reverse-mode autodiff tape.

Every tensor is a row-major float64 matrix.  Operations record their
backward rule on the implicit tape (the parent graph); calling
``backward`` on a scalar loss topologically sorts the reachable graph,
accumulates gradients into every ``requires_grad`` leaf and frees the
tape it walked, so a second ``backward`` on the same loss reaches no leaf.
Inside ``with no_tape():`` operations record nothing, which is how
evaluation runs.  Broadcasting is restricted to row vectors (1 x n),
column vectors (m x 1) and scalars.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

_recording = True  # read by _make; switched off only by no_tape()


@contextmanager
def no_tape():
    """Run the block without recording: ops return tensors with no parents."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


class Tensor:
    """A 2-D float64 matrix, optionally tracked on the autodiff tape."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"tensors are 2-D, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = _parents
        self._backward_fn = _backward_fn

    @property
    def shape(self):
        return self.data.shape

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
        """Accumulate gradients of this scalar into all reachable leaves,
        unlinking each interior node (and dropping its gradient) once its rule has run."""
        if self.data.shape != (1, 1):
            raise ValueError(f"backward needs a scalar (1x1) loss, got {self.data.shape}")
        if not _recording:
            raise ValueError("backward inside no_tape(): nothing was recorded")
        order = []
        seen = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones((1, 1))
        while order:
            node = order.pop()
            backward_fn, grad = node._backward_fn, node.grad
            if backward_fn is None:
                continue
            node._parents, node._backward_fn, node.grad = (), None, None
            for parent, contrib in backward_fn(grad):
                if not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.data)
                parent.grad += contrib


def _needs_grad(*ts):
    return any(t.requires_grad for t in ts)


def _make(data, parents, backward_fn):
    if _recording and _needs_grad(*parents):
        return Tensor(data, requires_grad=True, _parents=tuple(parents), _backward_fn=backward_fn)
    return Tensor(data)


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

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")

    def bwd(g):
        return [(a, g @ b.data.T), (b, a.data.T @ g)]

    return _make(a.data @ b.data, (a, b), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def bwd(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(g, b.shape))]

    return _make(a.data + b.data, (a, b), bwd)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast(a, b)

    def bwd(g):
        return [(a, _unbroadcast(g, a.shape)), (b, _unbroadcast(-g, b.shape))]

    return _make(a.data - b.data, (a, b), bwd)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Hadamard product (with row/column-vector broadcasting)."""
    _check_broadcast(a, b)

    def bwd(g):
        return [(a, _unbroadcast(g * b.data, a.shape)),
                (b, _unbroadcast(g * a.data, b.shape))]

    return _make(a.data * b.data, (a, b), bwd)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return [(a, g * c)]

    return _make(a.data * c, (a,), bwd)


def add_scalar(a: Tensor, c: float) -> Tensor:
    def bwd(g):
        return [(a, g)]

    return _make(a.data + float(c), (a,), bwd)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)

    def bwd(g):
        return [(a, g * out_data)]

    return _make(out_data, (a,), bwd)


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0):
        raise ValueError("log of non-positive value; mask the input first")

    def bwd(g):
        return [(a, g / a.data)]

    return _make(np.log(a.data), (a,), bwd)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def bwd(g):
        return [(a, g * mask)]

    return _make(a.data * mask, (a,), bwd)


def sigmoid(a: Tensor) -> Tensor:
    out_data = 1.0 / (1.0 + np.exp(-np.clip(a.data, -500, 500)))

    def bwd(g):
        return [(a, g * out_data * (1.0 - out_data))]

    return _make(out_data, (a,), bwd)


# -- reductions ---------------------------------------------------------

def reduce_sum(a: Tensor, axis=None) -> Tensor:
    if axis is None:
        out_data = a.data.sum().reshape(1, 1)
    else:
        out_data = a.data.sum(axis=axis, keepdims=True)

    def bwd(g):
        return [(a, np.broadcast_to(g, a.shape).copy())]

    return _make(out_data, (a,), bwd)


def _standardize(a: Tensor, axis: int, eps: float):
    """Zero mean, unit variance along ``axis``; returns (out, mean, var)."""
    mean = a.data.mean(axis=axis, keepdims=True)
    var = a.data.var(axis=axis, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (a.data - mean) * inv_std

    def bwd(g):
        gm = g.mean(axis=axis, keepdims=True)
        gx = (g * xhat).mean(axis=axis, keepdims=True)
        return [(a, inv_std * (g - gm - xhat * gx))]

    return _make(xhat, (a,), bwd), mean, var


def layer_norm_row(a: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-row standardization without learnable affine parameters."""
    return _standardize(a, 1, eps)[0]


def pairwise_sq_dist(a: Tensor) -> Tensor:
    """D[i, j] = squared Euclidean distance between rows i and j."""
    sq = (a.data ** 2).sum(axis=1, keepdims=True)
    d = sq + sq.T - 2.0 * (a.data @ a.data.T)
    np.maximum(d, 0.0, out=d)
    np.fill_diagonal(d, 0.0)

    def bwd(g):
        s = g + g.T
        return [(a, 2.0 * (s.sum(axis=1, keepdims=True) * a.data - s @ a.data))]

    return _make(d, (a,), bwd)


# -- structure ----------------------------------------------------------

def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        return [(a, g.T)]

    return _make(a.data.T.copy(), (a,), bwd)


def _concat(tensors, axis) -> Tensor:
    """Join 2-D tensors along ``axis``; each gradient piece is a copy of its slice."""
    tensors = list(tensors)
    if any(t.shape[1 - axis] != tensors[0].shape[1 - axis] for t in tensors):
        raise ValueError(f"concat_{('rows', 'cols')[axis]} needs matching "
                         f"{('column', 'row')[axis]} counts")
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])

    def bwd(g):
        return [(t, piece.copy()) for t, piece in zip(tensors, np.split(g, offsets[1:-1], axis))]

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def concat_cols(tensors) -> Tensor:
    return _concat(tensors, 1)


def concat_rows(tensors) -> Tensor:
    return _concat(tensors, 0)


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    def bwd(g):
        full = np.zeros_like(a.data)
        full[start:stop, :] = g
        return [(a, full)]

    return _make(a.data[start:stop, :].copy(), (a,), bwd)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Embedding lookup: rows of ``table`` selected by integer indices."""
    idx = np.asarray(indices, dtype=np.int64).ravel()
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ValueError(f"index out of range for table with {table.shape[0]} rows")

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return [(table, full)]

    return _make(table.data[idx, :].copy(), (table,), bwd)


def straight_through(relaxed: Tensor, hard_values) -> Tensor:
    """Forward the hard values, backward the relaxed path unchanged."""
    hard = np.asarray(hard_values, dtype=np.float64)
    if hard.shape != relaxed.shape:
        raise ValueError(f"hard values {hard.shape} must match relaxed {relaxed.shape}")

    def bwd(g):
        return [(relaxed, g.copy())]

    return _make(hard.copy(), (relaxed,), bwd)


# -- batch normalization ------------------------------------------------

BN_MOMENTUM, BN_EPS = 0.1, 1e-5  # weight of each training batch in the running stats


class BatchNormState:
    """Running per-column statistics for batch normalization."""

    def __init__(self, width):
        self.running_mean = np.zeros((1, width))
        self.running_var = np.ones((1, width))


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
    out_data = (a.data - state.running_mean) * inv_std

    def bwd(g):
        return [(a, g * inv_std)]

    return _make(out_data, (a,), bwd)
