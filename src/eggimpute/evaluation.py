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
# Samples per array pass of the forest grower: a round of many large nodes is
# scored and partitioned in slices of about this size, so its temporaries stay
# cache-sized (a few MB at most) whatever the table's size.
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
    scans concatenated in order.  The rule is the scalar scan's: features in
    the order drawn, positions left to right, ties (``x[p+1] <= x[p]``)
    skipped, and a split replaces the running best only if lower by over
    1e-12.  Returns, per node, the flat index p of the best split (between
    ``xs[p]`` and ``xs[p+1]``), or -1.
    """
    num_nodes, num_classes = counts.shape
    size = counts.sum(axis=1)
    ends = np.cumsum(np.repeat(size, k))
    starts = ends - np.repeat(size, k)
    best = np.full(num_nodes, -1)
    valid = np.ones(len(xs), dtype=bool)
    valid[:-1] = ~(xs[1:] <= xs[:-1])
    valid[ends - 1] = False
    at = np.flatnonzero(valid)
    if not at.size:
        return best
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
    left /= n_left[:, None]
    right /= n_right[:, None]
    score = n_left / n * (1.0 - (left ** 2).sum(axis=1)) + \
        n_right / n * (1.0 - (right ** 2).sum(axis=1))
    parent = 1.0 - ((counts / size[:, None]) ** 2).sum(axis=1)
    first = np.searchsorted(node, np.arange(num_nodes))  # each node's scored splits
    stop = np.append(first[1:], len(at))
    scored = first < stop
    lowest = np.full(num_nodes, np.inf)
    lowest[scored] = np.minimum.reduceat(score, first[scored])
    # the first lowest score wins unless an earlier split comes within 1e-12 of it
    hits = np.flatnonzero(score == lowest[node])
    hits = hits[np.append(True, node[hits[1:]] != node[hits[:-1]])]
    pick = np.zeros(num_nodes, dtype=np.int64)
    pick[node[hits]] = hits
    tangled = np.zeros(num_nodes, dtype=bool)
    g = np.flatnonzero(scored & (first < pick))
    if g.size:
        earlier = np.minimum.reduceat(score, np.column_stack((first[g], pick[g])).ravel())[::2]
        tangled[g] = ~(score[pick[g]] < earlier - 1e-12)
    for g in np.flatnonzero(tangled & (lowest < parent - 1e-12)):
        run = score[first[g]:stop[g]]
        running = parent[g]
        prior_min = np.minimum.accumulate(np.concatenate(([running], run)))[:-1]
        for i in np.flatnonzero(run < prior_min):  # only new minima can be accepted
            if run[i] < running - 1e-12:
                running, pick[g] = run[i], first[g] + i
    won = lowest < parent - 1e-12
    best[won] = at[pick[won]]
    return best


def _ragged_arange(lengths):
    """0..n-1 for each n in ``lengths``, concatenated."""
    ends = np.cumsum(lengths)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - lengths, lengths)


def _slices(sizes):
    """Indices of consecutive items, in groups whose sizes add up to about ``_SLICE``."""
    return np.split(np.arange(len(sizes)), np.flatnonzero(np.diff(np.cumsum(sizes) // _SLICE)) + 1)


class _LevelOrder:
    """Every tree of a forest, grown together one depth per round.

    One generator draws every tree's bootstrap, then each round the feature
    subset of every node that may split, in node order: by tree, then left to
    right.  Each tree's samples' rows, stably sorted by each feature, sit in
    ``order[t, f]``; a node owns the same span ``[lo, hi)`` of every feature's
    order, and a split partitions the span stably, so each child's orders are
    those sorting its samples would give.  A node is a leaf at the depth cap,
    when pure, or when no split parts its samples.  A round's temporaries are
    sliced to ``_SLICE`` samples.
    """

    def __init__(self, x, y, rng, n_trees, num_classes, n_features):
        self.x, self.y, self.rng = x, y, rng
        self.num_classes, self.n_features = num_classes, n_features
        n, d = x.shape
        boot = rng.integers(0, n, size=(n_trees, n))
        self.order = np.empty((n_trees, d, n), dtype=np.int32)
        for f in range(d):
            # dense ranks tie exactly where the values do (-0.0 with 0.0, NaN last), and
            # in the smallest unsigned type a stable sort of them is a radix sort
            rank = np.unique(x[:, f], return_inverse=True)[1].astype(np.min_scalar_type(n))
            self.order[:, f] = np.take_along_axis(
                boot, np.argsort(rank[boot], axis=1, kind="stable"), axis=1)
        self.root_counts = np.bincount(
            (np.arange(n_trees)[:, None] * num_classes + y[boot]).ravel(),
            minlength=n_trees * num_classes).reshape(n_trees, num_classes)
        self.predictions, self.splits = [], []

    def _make(self, counts):
        """New nodes of these class counts, numbered in order."""
        made = sum(map(len, self.predictions))
        self.predictions.append(counts.argmax(axis=1))
        return made + np.arange(len(counts))

    def grow(self):
        n_trees, d, n = self.order.shape
        trees, lo, hi = np.arange(n_trees), np.zeros(n_trees, dtype=np.int64), np.full(n_trees, n)
        counts, node = self.root_counts, self._make(self.root_counts)
        for _ in range(MAX_DEPTH):
            grows = np.count_nonzero(counts, axis=1) >= 2
            if not grows.any():
                break
            trees, lo, hi, node, counts = (a[grows] for a in (trees, lo, hi, node, counts))
            features = np.argsort(self.rng.random((len(trees), d)), axis=1)[:, :self.n_features]
            parts = [self._split(trees[i], features[i], lo[i], hi[i], counts[i])
                     for i in _slices(self.n_features * (hi - lo))]
            feature, threshold, n_left, left_counts = (np.concatenate(p) for p in zip(*parts))
            split = np.flatnonzero((n_left > 0) & (n_left < hi - lo))
            if not split.size:
                break
            trees, lo, hi, node = trees[split], lo[split], hi[split], node[split]
            feature, threshold, cut = feature[split], threshold[split], lo + n_left[split]
            for i in _slices(hi - lo):
                self._partition(trees[i], lo[i], hi[i], cut[i], feature[i])
            # the next depth: each split node's left child, then its right
            left = left_counts[split]
            counts = np.column_stack((left, counts[split] - left)).reshape(-1, self.num_classes)
            trees = np.repeat(trees, 2)
            lo, hi = np.column_stack((lo, cut)).ravel(), np.column_stack((cut, hi)).ravel()
            child = self._make(counts)
            self.splits.append((node, feature, threshold, child[::2], child[1::2]))
            node = child
        return self._trees(n_trees)

    def _split(self, trees, features, lo, hi, counts):
        """The best split of each node: feature, threshold, samples going left
        and their class counts (0 samples when the node has no split)."""
        k, d, n = self.n_features, self.x.shape[1], self.x.shape[0]
        size = np.repeat(hi - lo, k)
        scan_feature = features.ravel()
        rows = self.order.reshape(-1)[np.repeat((np.repeat(trees, k) * d + scan_feature) * n
                                                + np.repeat(lo, k), size)
                                      + _ragged_arange(size)]
        xs = self.x[rows, np.repeat(scan_feature, size)]
        ys = self.y[rows]
        best = _best_splits(xs, ys, k, counts)
        num_nodes = len(trees)
        feature = np.zeros(num_nodes, dtype=np.int64)
        threshold = np.zeros(num_nodes)
        n_left = np.zeros(num_nodes, dtype=np.int64)
        left_counts = np.zeros((num_nodes, self.num_classes), dtype=np.int64)
        found = np.flatnonzero(best >= 0)
        if found.size:
            at = best[found]
            scan = np.searchsorted(np.cumsum(size), at, side="right")
            feature[found] = scan_feature[scan]
            threshold[found] = 0.5 * (xs[at] + xs[at + 1])
            # the chosen scan is sorted, so the samples going left are a prefix of it
            span = size[scan]
            owner = np.repeat(np.arange(len(found)), span)
            cells = np.repeat(np.cumsum(size)[scan] - span, span) + _ragged_arange(span)
            goes = xs[cells] <= threshold[found][owner]
            n_left[found] = np.bincount(owner, weights=goes, minlength=len(found))
            left_counts[found] = np.bincount(
                owner[goes] * self.num_classes + ys[cells[goes]],
                minlength=len(found) * self.num_classes).reshape(-1, self.num_classes)
        return feature, threshold, n_left, left_counts

    def _partition(self, trees, lo, hi, cut, feature):
        """Stably partition each split node's span of every feature's order:
        the rows that go left are the head of the split feature's span."""
        d, n = self.x.shape[1], self.x.shape[0]
        size, flat = hi - lo, self.order.reshape(-1)
        at = _ragged_arange(size)
        cells = np.repeat(trees * d * n + lo, size) + at  # the spans of feature 0's order
        head = at < np.repeat(cut - lo, size)
        # a tree's nodes of one depth hold disjoint rows, so a row's side is kept per tree
        tree = np.repeat((trees - trees[0]) * n, size)
        goes = np.zeros((trees[-1] - trees[0] + 1) * n, dtype=bool)
        goes[tree[head] + flat[cells[head] + np.repeat(feature * n, size)[head]]] = True
        head_cells, tail_cells = cells[head], cells[~head]
        for f in range(d):
            rows = flat[cells + f * n]
            left = goes[tree + rows]
            flat[head_cells + f * n] = rows[left]
            flat[tail_cells + f * n] = rows[~left]

    def _trees(self, n_trees):
        nodes = [_TreeNode(p) for p in np.concatenate(self.predictions).tolist()]
        for split in self.splits:
            for i, f, thr, left, right in zip(*(a.tolist() for a in split)):
                nd = nodes[i]
                nd.feature, nd.threshold = f, thr
                nd.left, nd.right = nodes[left], nodes[right]
        return nodes[:n_trees]


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
    trees = _LevelOrder(np.asarray(x), y, rng, n_trees, num_classes, n_features).grow()
    return RandomForest(trees, num_classes)


def rf_predict(forest: RandomForest, x):
    votes = np.zeros((len(x), forest.num_classes), dtype=np.int64)
    for tree in forest.trees:
        pred = _predict_tree(tree, x)
        votes[np.arange(len(x)), pred] += 1
    return votes.argmax(axis=1)


def downstream_accuracy(imputed_train, y_train, imputed_test, y_test, schema, n_trees=100,
                        seed=0):
    x_train = one_hot_features(imputed_train, schema)
    x_test = one_hot_features(imputed_test, schema)
    forest = rf_fit(x_train, y_train, n_trees, seed)
    return float((rf_predict(forest, x_test) == np.asarray(y_test)).mean())


# -- aggregation --------------------------------------------------------

def _scored_cells(reports):
    """Yield (mechanism, rate, metric, [(method, value)]) for every dataset/mechanism/rate/seed
    group (one corruption and split) and metric that scores two methods or more; a
    ValueError if a method appears twice in a group."""
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
                yield mechanism, rate, metric, scored


def count_of_wins(reports):
    """Per-method tally of best-metric finishes across dataset/mechanism/
    rate/seed groups; ties credit every tied method."""
    wins = {}
    for _, _, metric, scored in _scored_cells(reports):
        values = [v for _, v in scored]
        best = min(values) if LOWER_IS_BETTER[metric] else max(values)
        for method, v in scored:
            wins[method] = wins.get(method, 0) + int(v == best)
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
    for mechanism, rate, metric, scored in _scored_cells(reports):
        ranks = _average_ranks([v for _, v in scored], LOWER_IS_BETTER[metric])
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
