"""Loss terms and their weighted combination.

Imputation losses run over cells the surrogate mask removed (mask value
0), and are 0 on the tape when a batch removes none, so their head takes a
zero step; the homophily penalty runs over relaxed edge values between
differently-labelled batch rows, normalized by the squared node count so
its weight is batch-size independent.  The triplet regularizer draws its
triplets in three generator calls and picks each positive and negative by
inverting a cumulative weight along its anchor's row.  Each term builds its
constants (targets, masks, one-hots, the zero of a term with nothing to
score) in the dtype of the activation they meet, so a float32 forward gives
a float32 loss.
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
    """Mean squared error over surrogate-masked numeric cells; 0 on the tape when
    there is none, so the numeric head takes a zero step."""
    scored = (numeric_mask == 0) & np.isfinite(truth)
    dtype = pred.data.dtype
    diff = pred - Tensor(np.nan_to_num(truth).astype(dtype))
    return T.scale(T.reduce_sum(T.mul(T.mul(diff, diff), Tensor(scored.astype(dtype)))),
                   1.0 / max(scored.sum(), 1))


def _masked_log_likelihood(logits: Tensor, targets, weight):
    """Sum of log softmax(logits)[target] over rows with weight 1 (callers negate it)."""
    n, c = logits.shape
    onehot = np.zeros((n, c), logits.data.dtype)
    active = weight > 0
    onehot[np.arange(n)[active], targets[active]] = 1.0
    shift = Tensor(logits.data.max(axis=1, keepdims=True))  # constant, for stability
    z = logits - shift
    log_norm = T.log(T.reduce_sum(T.exp(z), axis=1))
    log_probs = z - log_norm
    return T.reduce_sum(T.mul(log_probs, Tensor(onehot * weight[:, None])))


def categorical_imputation_loss(truth_cat, cat_logits, cat_mask) -> Tensor:
    """Mean cross-entropy over surrogate-masked categorical cells of one head or
    more; 0 on the tape when there is none, so the heads take a zero step."""
    scored = (cat_mask == 0) & (truth_cat >= 0)
    weights = scored.astype(cat_logits[0].data.dtype)
    terms = [_masked_log_likelihood(logits, truth_cat[:, col], weights[:, col])
             for col, logits in enumerate(cat_logits)]
    return T.scale(sum(terms[1:], terms[0]), -1.0 / max(scored.sum(), 1))


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
    n, m = len(labels), samples[0].relaxed.shape[0]  # every block has the same m nodes
    interclass = np.zeros((m, m), samples[0].relaxed.data.dtype)
    interclass[:n, :n] = labels[:, None] != labels[None, :]
    terms = [T.scale(T.reduce_sum(T.mul(s.relaxed, Tensor(interclass))), 1.0 / (m * m))
             for s in samples]
    return sum(terms[1:], terms[0])


def _draw_triplets(dist, labels, rng):
    """Anchors, positives and negatives of up to n triplets, from three draws:
    n anchors, less those of a class with no other member, then one offset and
    one uniform per kept anchor.  Each pick is the first column of the anchor's
    row whose cumulative weight exceeds its draw: for the positive, the count of
    the anchor's other class members against the offset; for the negative, the
    weight ``1 / clip(sqrt(d), 0.1, 10)`` of the other classes' rows against the
    uniform's share of its total.  ``labels`` hold two classes or more."""
    label = np.unique(labels, return_inverse=True)[1]
    n = len(label)
    anchors = rng.integers(n, size=n)
    anchors = anchors[np.bincount(label)[label[anchors]] > 1]
    same = label[anchors, None] == label
    peer = same & (anchors[:, None] != np.arange(n))
    offsets = rng.integers(0, peer.sum(axis=1))
    uniforms = rng.random(len(anchors))
    cdf = np.cumsum(np.where(same, 0.0, 1.0 / np.clip(np.sqrt(dist[anchors]), 0.1, 10.0)), axis=1)
    positives = (np.cumsum(peer, axis=1) <= offsets[:, None]).sum(axis=1)
    negatives = (cdf <= (uniforms * cdf[:, -1])[:, None]).sum(axis=1)
    return anchors, positives, negatives


def triplet_regularizer(h_graph: Tensor, labels, margin, rng) -> Tensor:
    """Hinge loss over as many sampled (anchor, positive, negative) triplets as rows.

    Negatives are drawn with probability proportional to clamped inverse
    distance to the anchor (distance-weighted sampling).  A non-finite
    distance makes the loss NaN, for ``total_loss`` to report.
    """
    labels = np.asarray(labels)
    dtype = h_graph.data.dtype
    if len(np.unique(labels)) < 2:
        return Tensor(np.zeros((1, 1), dtype))
    dist = T.pairwise_sq_dist(h_graph)
    if not np.isfinite(dist.data).all():
        return Tensor(np.full((1, 1), np.nan, dtype))
    anchors, positives, negatives = _draw_triplets(dist.data, labels, rng)
    t = len(anchors)
    if not t:
        return Tensor(np.zeros((1, 1), dtype))
    # +1 at each triplet's positive, -1 at its negative
    sign = np.zeros((t, dist.shape[1]), dtype)
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
    zero = Tensor(np.zeros((1, 1), out.task_logits.data.dtype))  # a term with no input
    num_mask = batch.surrogate_mask[:, batch.numeric_cols]
    numeric = numeric_imputation_loss(batch.truth_numeric, out.numeric_pred, num_mask)
    cat_mask = batch.surrogate_mask[:, batch.categorical_cols]
    categorical = (categorical_imputation_loss(batch.truth_categorical, out.cat_logits, cat_mask)
                   if out.cat_logits else zero)  # a table with no categorical column
    task = task_loss(out.task_logits, batch.labels)
    homophily = homophily_loss(out.samples, batch.labels)
    triplet = zero
    if weights.triplet > 0 and out.projection is not None:
        trip_rng = rng if rng is not None else np.random.default_rng(0)
        n = len(batch.labels)
        triplet = triplet_regularizer(T.slice_rows(out.projection, 0, n),
                                      batch.labels, weights.margin, trip_rng)
    return dict(zip(TERMS, (task, numeric, categorical, homophily, triplet)))
