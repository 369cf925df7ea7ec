"""Imputation metrics, downstream random-forest accuracy, and the
count-of-wins / unified-average-ranking aggregation statistics.

All imputation metrics run exclusively over initially-missing cells with
known ground truth, on the z-scored scale.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

# every scored metric, in results-column order
LOWER_IS_BETTER = {"rmse": True, "mae": True, "cat_accuracy": False,
                   "downstream_accuracy": False}


@dataclass
class MetricReport:
    dataset: str
    mechanism: str
    rate: float
    method: str
    seed: int
    rmse: float = None
    mae: float = None
    cat_accuracy: float = None
    downstream_accuracy: float = None
    train_seconds: float = None
    inference_seconds: float = None


def _support(truth, imputed, eval_mask, idx):
    """Truth and imputation of the scored cells of columns ``idx`` (initially
    missing, truth known), column by column."""
    t, p = truth[:, idx].T, imputed[:, idx].T
    missing = (eval_mask[:, idx].T == 0) & np.isfinite(t)
    return t[missing], p[missing]


def rmse(truth, imputed, eval_mask, numeric_idx):
    t, p = _support(truth, imputed, eval_mask, numeric_idx)
    if t.size == 0:
        return None
    return float(np.sqrt(((t - p) ** 2).mean()))


def mae(truth, imputed, eval_mask, numeric_idx):
    t, p = _support(truth, imputed, eval_mask, numeric_idx)
    if t.size == 0:
        return None
    return float(np.abs(t - p).mean())


def cat_accuracy(truth, imputed, eval_mask, categorical_idx):
    t, p = _support(truth, imputed, eval_mask, categorical_idx)
    if t.size == 0:
        return None
    return int((p == t).sum()) / t.size


# -- random forest ------------------------------------------------------

MAX_DEPTH = 12  # depth cap of every forest tree
# Scanned samples per array pass of the forest grower: a round of many large
# nodes is sorted, scored and routed in slices of about this size, so its
# temporaries stay cache-sized (a few MB at most) whatever the table's size.
_SLICE = 1 << 15


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "prediction")

    def __init__(self, prediction=None):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.prediction = prediction


def _best_splits(xs, ys, k, counts):
    """Each node's best gini split, scored in one pass over its sorted scans.

    Node g holds ``counts[g].sum()`` samples and ``k`` scans: its samples'
    values ``xs`` and labels ``ys`` sorted by each drawn feature, all nodes'
    scans concatenated in order.  A split between ``xs[p]`` and ``xs[p+1]``
    counts only if its midpoint threshold t parts them (``xs[p] <= t <
    xs[p+1]``), so the samples at or before p are the ones going left.  The
    lowest score wins, the first in scan order (features as drawn, positions
    left to right) among equal ones, if it is below the node's gini by over
    1e-12.  Returns, per node, the flat index p of the winning split (or -1)
    and the class counts of its left side (0 without a split).
    """
    num_nodes, num_classes = counts.shape
    size = counts.sum(axis=1)
    ends = np.cumsum(np.repeat(size, k))
    starts = ends - np.repeat(size, k)
    with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or an overflowed sum
        mid = 0.5 * (xs[:-1] + xs[1:])
    candidate = np.zeros(len(xs), dtype=bool)
    candidate[:-1] = (xs[:-1] <= mid) & (mid < xs[1:])
    candidate[ends - 1] = False
    at = np.flatnonzero(candidate)
    scan = np.searchsorted(ends, at, side="right")
    node = scan // k
    n = size[node]
    n_left = at - starts[scan] + 1
    n_right = n - n_left
    left = np.empty((len(at), num_classes))
    for c in range(num_classes):
        seen = np.cumsum(ys == c)
        left[:, c] = seen[at] - (seen[starts] - (ys[starts] == c))[scan]
    right = counts[node] - left
    score = n_left / n * (1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)) + \
        n_right / n * (1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1))
    parent = 1.0 - ((counts / size[:, None]) ** 2).sum(axis=1)
    # each node's lowest score, the first in scan order among equal ones
    heads = np.flatnonzero(np.diff(node, prepend=-1))
    lowest = np.repeat(np.minimum.reduceat(score, heads), np.diff(heads, append=len(at)))
    hits = np.flatnonzero(score == lowest)
    pick = hits[np.diff(node[hits], prepend=-1) > 0]
    won = pick[score[pick] < parent[node[pick]] - 1e-12]
    best = np.full(num_nodes, -1)
    best_left = np.zeros((num_nodes, num_classes), dtype=np.int64)
    best[node[won]] = at[won]
    best_left[node[won]] = left[won]
    return best, best_left


def _ragged_arange(lengths):
    """0..n-1 for each n in ``lengths``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def _slices(sizes):
    """Indices of consecutive items, in groups whose sizes add up to about ``_SLICE``."""
    return np.split(np.arange(len(sizes)), np.flatnonzero(np.diff(np.cumsum(sizes) // _SLICE)) + 1)


def _grow(x, y, rng, n_trees, num_classes, n_features):
    """Every tree of a forest, grown together one depth per round; the roots.

    One generator draws every tree's bootstrap, then each round the feature
    subset of every node that may split, in node order: by tree, then left to
    right.  ``rows`` holds the last depth's nodes' samples, node by node.  A
    node is a leaf at the depth cap, when pure, or when no split parts its
    samples; a split sends a sample left when ``x <= threshold``, as
    ``rf_predict`` does.  A round runs in slices of about ``_SLICE`` scanned
    samples.
    """
    n, d = x.shape
    rank = np.empty(x.shape, dtype=np.int64)
    for f in range(d):  # dense ranks tie exactly where the values do (-0.0 with 0.0, NaN last)
        rank[:, f] = np.unique(x[:, f], return_inverse=True)[1]
    rows, node = rng.integers(0, n, size=n_trees * n), np.arange(n_trees)
    counts = np.bincount(np.repeat(node * num_classes, n) + y[rows],
                         minlength=n_trees * num_classes).reshape(n_trees, num_classes)
    predictions, splits = [counts.argmax(axis=1)], []
    for _ in range(MAX_DEPTH):
        size = counts.sum(axis=1)
        grows = np.count_nonzero(counts, axis=1) >= 2
        if not grows.any():
            break
        starts, size = (np.cumsum(size) - size)[grows], size[grows]
        node, counts = node[grows], counts[grows]
        features = np.argsort(rng.random((len(node), d)), axis=1)[:, :n_features]
        parts = [_split(x, y, rank, rows, starts[i], features[i], counts[i])
                 for i in _slices(n_features * size)]
        feature, threshold, left, rows = (np.concatenate(p) for p in zip(*parts))
        split = np.flatnonzero(left.any(axis=1))
        if not split.size:
            break
        # the next depth: each split node's left child, then its right
        counts = np.column_stack((left[split], counts[split] - left[split])).reshape(-1, num_classes)
        child = sum(map(len, predictions)) + np.arange(len(counts))
        predictions.append(counts.argmax(axis=1))
        splits.append((node[split], feature[split], threshold[split], child[::2], child[1::2]))
        node = child
    nodes = [_TreeNode(p) for p in np.concatenate(predictions).tolist()]
    for split in splits:
        for i, f, thr, left, right in zip(*(a.tolist() for a in split)):
            nd = nodes[i]
            nd.feature, nd.threshold = f, thr
            nd.left, nd.right = nodes[left], nodes[right]
    return nodes[:n_trees]


def _split(x, y, rank, rows, starts, features, counts):
    """The best split of each node, whose samples are ``rows[start:start + size]``:
    feature, threshold, the class counts going left (all 0 without a split),
    and the split nodes' samples, each node's left child's then its right's."""
    num_nodes, k = features.shape
    size = counts.sum(axis=1)
    scan_size = np.repeat(size, k)
    # each drawn feature's scan of its node's samples, sorted by rank (ties in any order)
    scans = rows[np.repeat(np.repeat(starts, k), scan_size) + _ragged_arange(scan_size)]
    scan_feature = np.repeat(features.ravel(), scan_size)
    by_rank = np.argsort(np.repeat(np.arange(num_nodes * k), scan_size) * len(x)
                         + rank[scans, scan_feature])
    scans, scan_feature = scans[by_rank], scan_feature[by_rank]
    xs = x[scans, scan_feature]
    best, left = _best_splits(xs, y[scans], k, counts)
    found = best >= 0
    feature = np.zeros(num_nodes, dtype=np.int64)
    threshold = np.zeros(num_nodes)
    at = best[found]
    feature[found] = scan_feature[at]
    threshold[found] = 0.5 * (xs[at] + xs[at + 1])
    owner = np.repeat(np.flatnonzero(found), size[found])
    routed = rows[np.repeat(starts[found], size[found]) + _ragged_arange(size[found])]
    goes_left = x[routed, feature[owner]] <= threshold[owner]
    return feature, threshold, left, routed[np.argsort(2 * owner + ~goes_left, kind="stable")]


def _predict_tree(node, x):
    out = np.empty(len(x), dtype=np.int64)
    stack = [(node, np.arange(len(x)))]
    while stack:
        nd, rows = stack.pop()
        if nd.feature is None:
            out[rows] = nd.prediction
            continue
        go_left = x[rows, nd.feature] <= nd.threshold
        stack.append((nd.left, rows[go_left]))
        stack.append((nd.right, rows[~go_left]))
    return out


@dataclass
class RandomForest:
    trees: list
    num_classes: int


def one_hot_features(values, schema):
    """Numeric columns pass through; categoricals expand to indicators."""
    parts = []
    for j, col in enumerate(values.T):
        if schema[j].kind == "numerical":
            parts.append(col[:, None])
        else:
            card = schema[j].cardinality
            onehot = np.zeros((len(col), card))
            idx = np.clip(col.astype(np.int64), 0, card - 1)
            onehot[np.arange(len(col)), idx] = 1.0
            parts.append(onehot)
    return np.concatenate(parts, axis=1) if parts else np.zeros((len(values), 0))


def rf_fit(x, y, n_trees=100, seed=0) -> RandomForest:
    """Bagged CART forest: gini splits, sqrt(d) features per split."""
    y = np.asarray(y, dtype=np.int64)
    num_classes = int(y.max()) + 1 if len(y) else 1
    if len(np.unique(y)) < 2:
        warnings.warn("single-class training target; forest is a constant predictor")
    n_features = max(1, int(np.sqrt(x.shape[1])))
    rng = np.random.default_rng(seed)
    trees = _grow(np.asarray(x), y, rng, n_trees, num_classes, n_features)
    return RandomForest(trees, num_classes)


def rf_predict(forest: RandomForest, x):
    votes = np.zeros((len(x), forest.num_classes), dtype=np.int64)
    for tree in forest.trees:
        pred = _predict_tree(tree, x)
        votes[np.arange(len(x)), pred] += 1
    return votes.argmax(axis=1)


def downstream_accuracy(imputed_train, y_train, imputed_test, y_test, schema, seed=0):
    x_train = one_hot_features(imputed_train, schema)
    x_test = one_hot_features(imputed_test, schema)
    forest = rf_fit(x_train, y_train, 100, seed)
    return float((rf_predict(forest, x_test) == np.asarray(y_test)).mean())


# -- aggregation --------------------------------------------------------

def _scored_cells(reports):
    """Yield (mechanism, rate, metric, [(method, value)], their ``_average_ranks``) for every
    dataset/mechanism/rate/seed group (one corruption and split) and metric that scores two
    methods or more; a ValueError if a method appears twice in a group."""
    groups = {}
    for r in reports:
        group = groups.setdefault((r.dataset, r.mechanism, r.rate, r.seed), {})
        if r.method in group:
            raise ValueError(f"the run {r.dataset}/{r.mechanism}/{r.rate}/{r.method}/{r.seed} "
                             f"has more than one row; each run may be counted once")
        group[r.method] = r
    for (_, mechanism, rate, _), group in groups.items():
        for metric in LOWER_IS_BETTER:
            scored = [(r.method, getattr(r, metric)) for r in group.values()
                      if getattr(r, metric) is not None]
            if len(scored) >= 2:
                yield mechanism, rate, metric, scored, _average_ranks(
                    [v for _, v in scored], LOWER_IS_BETTER[metric])


def count_of_wins(reports):
    """Per-method tally of best-metric finishes across dataset/mechanism/
    rate/seed groups: the methods that hold a group's best ``_average_ranks``
    rank, which ties credit alike, and whose value is not NaN."""
    wins = {}
    for _, _, _, scored, ranks in _scored_cells(reports):
        for (method, v), rank in zip(scored, ranks):
            wins[method] = wins.get(method, 0) + int(rank == ranks.min() and not np.isnan(v))
    return wins


def _average_ranks(values, lower_better):
    """Ranks, 1 = best: the values strictly better, plus (the values tied,
    itself included, + 1) / 2.  NaNs tie with each other below every number."""
    arr = np.asarray(values, dtype=np.float64)
    keyed = arr if lower_better else -arr
    ordered = np.sort(keyed)
    better = np.searchsorted(ordered, keyed, "left")
    tied = np.searchsorted(ordered, keyed, "right") - better
    return better + (tied + 1) / 2


def unified_average_ranking(reports):
    """Mean and standard deviation of per-(metric, rate) average ranks.

    Ranks are computed per dataset/mechanism/rate/seed group and metric, then
    averaged over datasets and seeds; the summary aggregates across metrics and
    noise levels.  Methods absent from a group are excluded from it.
    """
    per_cell = {}  # (metric, mechanism, rate) -> {method: [ranks]}
    for mechanism, rate, metric, scored, ranks in _scored_cells(reports):
        cell = per_cell.setdefault((metric, mechanism, rate), {})
        for (method, _), rank in zip(scored, ranks):
            cell.setdefault(method, []).append(rank)
    summary = {}  # method -> list of per-cell average ranks
    for cell in per_cell.values():
        for method, ranks in cell.items():
            summary.setdefault(method, []).append(float(np.mean(ranks)))
    return {method: {"mean_rank": float(np.mean(r)), "std_rank": float(np.std(r)),
                     "cells": len(r)}
            for method, r in summary.items()}
