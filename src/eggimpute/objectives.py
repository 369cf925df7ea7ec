"""Loss terms and their weighted combination.

Imputation losses run over cells the surrogate mask removed (mask value
0); the homophily penalty runs over relaxed edge values between
differently-labelled batch rows, normalized by the squared node count so
its weight is batch-size independent.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .tensor import Tensor

TERMS = ("task", "numeric", "categorical", "homophily", "triplet")  # compute_losses' keys


@dataclass
class LossWeights:
    task: float = 1.0  # alpha
    imputation: float = 1.0  # beta
    homophily: float = 0.1  # gamma
    triplet: float = 0.0  # eta
    margin: float = 0.05

    def validate(self):
        for name, value in asdict(self).items():
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"weights.{name} must be finite and >= 0, got {value!r}")


def numeric_imputation_loss(truth, pred: Tensor, numeric_mask) -> Tensor:
    """Mean squared error over surrogate-masked numeric cells."""
    weight = ((numeric_mask == 0) & np.isfinite(truth)).astype(np.float64)
    count = weight.sum()
    if count == 0:
        return Tensor(np.zeros((1, 1)))
    diff = pred - Tensor(np.nan_to_num(truth))
    return T.scale(T.reduce_sum(T.mul(T.mul(diff, diff), Tensor(weight))), 1.0 / count)


def _masked_log_likelihood(logits: Tensor, targets, weight):
    """Sum of log softmax(logits)[target] over rows with weight 1 (callers negate it)."""
    n, c = logits.shape
    onehot = np.zeros((n, c))
    active = weight > 0
    onehot[np.arange(n)[active], targets[active]] = 1.0
    shift = Tensor(logits.data.max(axis=1, keepdims=True))  # constant, for stability
    z = logits - shift
    log_norm = T.log(T.reduce_sum(T.exp(z), axis=1))
    log_probs = z - log_norm
    return T.reduce_sum(T.mul(log_probs, Tensor(onehot * weight[:, None])))


def categorical_imputation_loss(truth_cat, cat_logits, cat_mask) -> Tensor:
    """Mean cross-entropy over surrogate-masked categorical cells."""
    total = None
    count = 0
    for col, logits in enumerate(cat_logits):
        targets = truth_cat[:, col]
        weight = ((cat_mask[:, col] == 0) & (targets >= 0)).astype(np.float64)
        count += weight.sum()
        term = _masked_log_likelihood(logits, targets, weight)
        total = term if total is None else total + term
    if total is None or count == 0:
        return Tensor(np.zeros((1, 1)))
    return T.scale(total, -1.0 / count)


def task_loss(task_logits: Tensor, labels) -> Tensor:
    """Mean cross-entropy over all batch rows: one categorical column, every cell masked."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= task_logits.shape[1]:
        raise ValueError("label out of range for task head")
    return categorical_imputation_loss(labels[:, None], [task_logits],
                                       np.zeros((len(labels), 1)))


def homophily_loss(samples, labels) -> Tensor:
    """Penalize relaxed edges between rows of different classes.

    Prototype rows (beyond the labelled batch rows) carry no penalty.
    Summed over blocks; each block normalized by its node count squared.
    """
    labels = np.asarray(labels)
    n = len(labels)
    total = None
    for sample in samples:
        m = sample.relaxed.shape[0]
        interclass = np.zeros((m, m))
        interclass[:n, :n] = (labels[:, None] != labels[None, :]).astype(np.float64)
        term = T.scale(T.reduce_sum(T.mul(sample.relaxed, Tensor(interclass))), 1.0 / (m * m))
        total = term if total is None else total + term
    return total if total is not None else Tensor(np.zeros((1, 1)))


def _draw_triplets(dist, labels, rng):
    """Anchors, positives and negatives of up to n triplets, as a per-anchor loop draws them.

    That loop draws an anchor with ``rng.integers(n)`` and, when the anchor's
    class has s > 0 other members, a positive with ``rng.choice`` over them
    and a negative with ``rng.choice(other, p=w / w.sum())``, where
    ``w = 1 / clip(sqrt(d), 0.1, 10)``.  Here the generator sees the same calls
    in the same order (those ``choice`` calls draw ``integers(0, s)`` and
    ``random()``), so its stream carries on across batches as before; the
    picks then follow in array passes.  The positive skips the anchor's own
    slot in its class's member list, and the negative counts the entries of
    ``choice``'s normalized cumulative weights at or below the uniform, in one
    2-D pass per anchor class.
    """
    n = len(labels)
    label = np.unique(labels, return_inverse=True)[1]
    members = np.argsort(label, kind="stable")  # each class's rows, in order
    size = np.bincount(label)
    start = np.cumsum(size) - size
    slot = np.empty(n, dtype=np.int64)
    slot[members] = np.arange(n) - start[label[members]]
    peers = (size[label] - 1).tolist()  # other members of each row's class
    integers, random = rng.integers, rng.random
    anchors, offsets, uniforms = [], [], []
    for _ in range(n):
        a = int(integers(n))
        if peers[a]:
            anchors.append(a)
            offsets.append(int(integers(0, peers[a])))
            uniforms.append(random())
    anchors, offsets = np.array(anchors, dtype=np.int64), np.array(offsets, dtype=np.int64)
    uniforms = np.array(uniforms)
    cls = label[anchors]
    positives = members[start[cls] + offsets + (offsets >= slot[anchors])]
    negatives = np.empty(len(anchors), dtype=np.int64)
    for c in np.unique(cls):
        mine = np.flatnonzero(cls == c)
        other = np.flatnonzero(label != c)
        w = 1.0 / np.clip(np.sqrt(dist[np.ix_(anchors[mine], other)]), 0.1, 10.0)
        cdf = np.cumsum(w / w.sum(axis=1, keepdims=True), axis=1)
        cdf /= cdf[:, -1:]
        negatives[mine] = other[(cdf <= uniforms[mine, None]).sum(axis=1)]
    return anchors, positives, negatives


def triplet_regularizer(h_graph: Tensor, labels, margin, rng) -> Tensor:
    """Hinge loss over as many sampled (anchor, positive, negative) triplets as rows.

    Negatives are drawn with probability proportional to clamped inverse
    distance to the anchor (distance-weighted sampling).  A non-finite
    distance makes the loss NaN, for ``total_loss`` to report.
    """
    labels = np.asarray(labels)
    if len(np.unique(labels)) < 2:
        return Tensor(np.zeros((1, 1)))
    dist = T.pairwise_sq_dist(h_graph)
    if not np.isfinite(dist.data).all():
        return Tensor(np.full((1, 1), np.nan))
    anchors, positives, negatives = _draw_triplets(dist.data, labels, rng)
    t = len(anchors)
    if not t:
        return Tensor(np.zeros((1, 1)))
    sign = np.zeros((t, dist.shape[1]))  # +1 at each triplet's positive, -1 at its negative
    sign[np.arange(t), positives] = 1.0
    sign[np.arange(t), negatives] = -1.0
    gap = T.reduce_sum(T.mul(T.gather_rows(dist, anchors), Tensor(sign)), axis=1)
    return T.scale(T.reduce_sum(T.relu(T.add_scalar(gap, margin))), 1.0 / t)


def total_loss(parts, weights: LossWeights) -> Tensor:
    """The weighted sum of ``compute_losses``' terms; a non-finite term raises."""
    for name, term in parts.items():
        if not np.isfinite(term.data).all():
            raise FloatingPointError(f"non-finite loss term {name!r}")
    total = T.scale(parts["task"], weights.task) + \
        T.scale(parts["numeric"] + parts["categorical"], weights.imputation) + \
        T.scale(parts["homophily"], weights.homophily)
    if weights.triplet > 0:
        total = total + T.scale(parts["triplet"], weights.triplet)
    return total


def compute_losses(batch, out, weights: LossWeights, rng=None) -> dict:
    """Each loss term for one forward output, by its name in ``TERMS``."""
    num_mask = batch.surrogate_mask[:, batch.numeric_cols]
    numeric = numeric_imputation_loss(batch.truth_numeric, out.numeric_pred, num_mask)
    cat_mask = batch.surrogate_mask[:, batch.categorical_cols]
    categorical = categorical_imputation_loss(batch.truth_categorical, out.cat_logits, cat_mask)
    task = task_loss(out.task_logits, batch.labels)
    homophily = homophily_loss(out.samples, batch.labels)
    if weights.triplet > 0 and out.projection is not None:
        trip_rng = rng if rng is not None else np.random.default_rng(0)
        n = len(batch.labels)
        triplet = triplet_regularizer(T.slice_rows(out.projection, 0, n),
                                      batch.labels, weights.margin, trip_rng)
    else:
        triplet = Tensor(np.zeros((1, 1)))
    return dict(zip(TERMS, (task, numeric, categorical, homophily, triplet)))
