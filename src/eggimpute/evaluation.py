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


def _numeric_support(truth, imputed, eval_mask, numeric_idx):
    cells = []
    for j in numeric_idx:
        missing = (eval_mask[:, j] == 0) & np.isfinite(truth[:, j])
        cells.append((truth[missing, j], imputed[missing, j]))
    if not cells:
        return np.array([]), np.array([])
    t = np.concatenate([c[0] for c in cells])
    p = np.concatenate([c[1] for c in cells])
    return t, p


def rmse(truth, imputed, eval_mask, numeric_idx):
    t, p = _numeric_support(truth, imputed, eval_mask, numeric_idx)
    if t.size == 0:
        return None
    return float(np.sqrt(((t - p) ** 2).mean()))


def mae(truth, imputed, eval_mask, numeric_idx):
    t, p = _numeric_support(truth, imputed, eval_mask, numeric_idx)
    if t.size == 0:
        return None
    return float(np.abs(t - p).mean())


def cat_accuracy(truth, imputed, eval_mask, categorical_idx):
    hits, total = 0, 0
    for j in categorical_idx:
        missing = (eval_mask[:, j] == 0) & np.isfinite(truth[:, j])
        hits += int((imputed[missing, j] == truth[missing, j]).sum())
        total += int(missing.sum())
    if total == 0:
        return None
    return hits / total


# -- random forest ------------------------------------------------------

MAX_DEPTH = 12  # depth cap of every forest tree


class _TreeNode:
    __slots__ = ("feature", "threshold", "left", "right", "prediction")

    def __init__(self, prediction=None):
        self.feature = None
        self.threshold = None
        self.left = None
        self.right = None
        self.prediction = prediction


def _best_split(x, y, feature_ids, num_classes):
    """Gini split search in scan order (features as given, positions left to
    right); a split replaces the running best only if lower by over 1e-12."""
    n = len(y)
    parent = np.bincount(y, minlength=num_classes)
    best_f, best_thr, best = None, None, 1.0 - ((parent / n) ** 2).sum()
    n_left = np.arange(1, n)
    n_right = n - n_left
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs = x[order, f]
        left = np.cumsum(np.eye(num_classes)[y[order][:-1]], axis=0)
        right = parent - left
        score = n_left / n * (1.0 - ((left / n_left[:, None]) ** 2).sum(axis=1)) + \
            n_right / n * (1.0 - ((right / n_right[:, None]) ** 2).sum(axis=1))
        score[xs[1:] <= xs[:-1]] = np.inf
        prior_min = np.minimum.accumulate(np.concatenate(([best], score)))[:-1]
        for i in np.flatnonzero(score < prior_min):  # only new minima can be accepted
            if score[i] < best - 1e-12:
                best_f, best_thr, best = f, 0.5 * (xs[i] + xs[i + 1]), score[i]
    return best_f, best_thr


def _grow(x, y, depth, n_features, num_classes, rng):
    counts = np.bincount(y, minlength=num_classes)
    node = _TreeNode(prediction=int(counts.argmax()))
    if depth >= MAX_DEPTH or len(np.unique(y)) < 2 or len(y) < 2:
        return node
    feature_ids = rng.choice(x.shape[1], size=n_features, replace=False)
    feature, threshold = _best_split(x, y, feature_ids, num_classes)
    if feature is None:
        return node
    go_left = x[:, feature] <= threshold
    if not go_left.any() or go_left.all():
        return node
    node.feature, node.threshold = feature, threshold
    node.left = _grow(x[go_left], y[go_left], depth + 1, n_features, num_classes, rng)
    node.right = _grow(x[~go_left], y[~go_left], depth + 1, n_features, num_classes, rng)
    return node


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
    seeds = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for s in seeds:
        rng = np.random.default_rng(s)
        rows = rng.integers(0, len(y), size=len(y))
        trees.append(_grow(x[rows], y[rows], 0, n_features, num_classes, rng))
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
    """Yield (mechanism, rate, metric, [(method, value)]) for every
    dataset/mechanism/rate group and metric that scores two methods or more."""
    groups = {}
    for r in reports:
        groups.setdefault((r.dataset, r.mechanism, r.rate), []).append(r)
    for (_, mechanism, rate), group in groups.items():
        for metric in LOWER_IS_BETTER:
            scored = [(r.method, getattr(r, metric)) for r in group
                      if getattr(r, metric) is not None]
            if len(scored) >= 2:
                yield mechanism, rate, metric, scored


def count_of_wins(reports):
    """Per-method tally of best-metric finishes across groups; ties credit
    every tied method."""
    wins = {}
    for _, _, metric, scored in _scored_cells(reports):
        values = [v for _, v in scored]
        best = min(values) if LOWER_IS_BETTER[metric] else max(values)
        for method, v in scored:
            wins[method] = wins.get(method, 0) + int(v == best)
    return wins


def _average_ranks(values, lower_better):
    """Competition-free ranks, 1 = best; ties get the average rank."""
    arr = np.asarray(values, dtype=np.float64)
    keyed = arr if lower_better else -arr
    order = np.argsort(keyed, kind="stable")
    ranks = np.empty(len(arr))
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and keyed[order[j + 1]] == keyed[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def unified_average_ranking(reports):
    """Mean and standard deviation of per-(metric, rate) average ranks.

    Ranks are computed per dataset/mechanism/rate group and metric, then
    averaged over datasets; the summary aggregates across metrics and
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
