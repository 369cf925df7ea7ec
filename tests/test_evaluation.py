import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggimpute import dataio, evaluation


def test_rmse_hand_example():
    truth = np.array([[1.0, 5.0], [2.0, 6.0]])
    imputed = np.array([[1.0, 4.0], [2.0, 8.0]])
    eval_mask = np.array([[1, 0], [1, 0]])
    out = evaluation.rmse(truth, imputed, eval_mask, [0, 1])
    assert out == pytest.approx(np.sqrt((1.0 + 4.0) / 2))


def test_rmse_ignores_observed_cells():
    truth = np.array([[1.0]])
    imputed = np.array([[99.0]])
    assert evaluation.rmse(truth, imputed, np.array([[1]]), [0]) is None


def test_mae_hand_example():
    truth = np.array([[0.0], [0.0]])
    imputed = np.array([[3.0], [-1.0]])
    eval_mask = np.zeros((2, 1), dtype=int)
    assert evaluation.mae(truth, imputed, eval_mask, [0]) == pytest.approx(2.0)


def test_cat_accuracy_hand_example():
    truth = np.array([[0.0, 1.0], [2.0, 1.0]])
    imputed = np.array([[0.0, 0.0], [2.0, 1.0]])
    eval_mask = np.array([[0, 0], [0, 1]])
    # three evaluated cells, two correct
    out = evaluation.cat_accuracy(truth, imputed, eval_mask, [0, 1])
    assert out == pytest.approx(2 / 3)


def test_metrics_skip_unknown_truth():
    truth = np.array([[np.nan], [4.0]])
    imputed = np.array([[1.0], [4.5]])
    eval_mask = np.zeros((2, 1), dtype=int)
    assert evaluation.rmse(truth, imputed, eval_mask, [0]) == pytest.approx(0.5)


# -- random forest ------------------------------------------------------

def _per_column_metrics(truth, imputed, eval_mask, numeric_idx, categorical_idx):
    """rmse, mae and cat_accuracy gathered one column at a time (oracle)."""
    cells = []
    for j in numeric_idx:
        missing = (eval_mask[:, j] == 0) & np.isfinite(truth[:, j])
        cells.append((truth[missing, j], imputed[missing, j]))
    t = np.concatenate([c[0] for c in cells]) if cells else np.array([])
    p = np.concatenate([c[1] for c in cells]) if cells else np.array([])
    rmse = float(np.sqrt(((t - p) ** 2).mean())) if t.size else None
    mae = float(np.abs(t - p).mean()) if t.size else None
    hits, total = 0, 0
    for j in categorical_idx:
        missing = (eval_mask[:, j] == 0) & np.isfinite(truth[:, j])
        hits += int((imputed[missing, j] == truth[missing, j]).sum())
        total += int(missing.sum())
    return rmse, mae, hits / total if total else None


@settings(max_examples=150)
@given(rows=st.integers(1, 30), kinds=st.lists(st.booleans(), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_metrics_match_the_per_column_oracle(rows, kinds, seed):
    """Numeric cells are summed in column-major order, so rmse and mae are
    bit-equal; unknown truth (NaN) is never scored."""
    gen = np.random.default_rng(seed)
    numeric_idx = [j for j, numeric in enumerate(kinds) if numeric]
    categorical_idx = [j for j, numeric in enumerate(kinds) if not numeric]
    truth = gen.normal(size=(rows, len(kinds)))
    truth[:, categorical_idx] = gen.integers(0, 3, size=(rows, len(categorical_idx)))
    truth[gen.random(truth.shape) < 0.1] = np.nan
    imputed = np.where(gen.random(truth.shape) < 0.5, truth, gen.integers(0, 3, truth.shape))
    eval_mask = (gen.random(truth.shape) < 0.6).astype(np.int8)
    got = (evaluation.rmse(truth, imputed, eval_mask, numeric_idx),
           evaluation.mae(truth, imputed, eval_mask, numeric_idx),
           evaluation.cat_accuracy(truth, imputed, eval_mask, categorical_idx))
    assert got == _per_column_metrics(truth, imputed, eval_mask, numeric_idx, categorical_idx)


# Oracles for the forest: a scalar CART scan with one gini call per candidate
# threshold, the per-node array split search, and the node-by-node level-order
# grower that ``evaluation.rf_fit``'s array grower must match node for node.

def _gini(counts):
    total = counts.sum()
    if total == 0:
        return 0.0
    p = counts / total
    return 1.0 - (p ** 2).sum()


def _scalar_best_split(x, y, feature_ids, num_classes):
    """Every threshold that parts two neighbours of a sorted feature is scored;
    the lowest score wins, the first of equal ones, if below the node's gini
    by over 1e-12."""
    n = len(y)
    parent_counts = np.bincount(y, minlength=num_classes)
    best = (None, None, np.inf)
    for f in feature_ids:
        order = np.argsort(x[:, f], kind="stable")
        xs, ys = x[order, f], y[order]
        left = np.zeros(num_classes)
        right = parent_counts.astype(np.float64).copy()
        for i in range(n - 1):
            left[ys[i]] += 1
            right[ys[i]] -= 1
            with np.errstate(over="ignore", invalid="ignore"):
                threshold = 0.5 * (xs[i] + xs[i + 1])
            if not xs[i] <= threshold < xs[i + 1]:
                continue
            score = (i + 1) / n * _gini(left) + (n - i - 1) / n * _gini(right)
            if score < best[2]:
                best = (f, threshold, score)
    if best[2] < _gini(parent_counts) - 1e-12:
        return best[0], best[1]
    return None, None


def _best_split(x, y, feature_ids, num_classes):
    """Gini split search of one node, all its drawn features in one pass."""
    n = len(y)
    if n < 2:
        return None, None
    parent = np.bincount(y, minlength=num_classes)
    cols = x[:, feature_ids]
    order = np.argsort(cols, axis=0, kind="stable")
    xs = np.take_along_axis(cols, order, axis=0).T  # F x n, each feature sorted
    left = np.cumsum(np.eye(num_classes)[y[order.T[:, :-1]]], axis=1)  # F x (n-1) x C
    right = parent - left
    n_left = np.arange(1, n)
    n_right = n - n_left
    score = n_left / n * (1.0 - ((left / n_left[:, None]) ** 2).sum(axis=2)) + \
        n_right / n * (1.0 - ((right / n_right[:, None]) ** 2).sum(axis=2))
    with np.errstate(over="ignore", invalid="ignore"):
        mid = 0.5 * (xs[:, :-1] + xs[:, 1:])
    score[~((xs[:, :-1] <= mid) & (mid < xs[:, 1:]))] = np.inf
    i = np.argmin(score.ravel())  # feature-major: the scan order
    f, pos = divmod(i, n - 1)
    if not score[f, pos] < 1.0 - ((parent / n) ** 2).sum() - 1e-12:
        return None, None
    return feature_ids[f], mid[f, pos]


def _leaf(y, num_classes):
    return evaluation._TreeNode(prediction=int(np.bincount(y, minlength=num_classes).argmax()))


def _level_order_forest(x, y, n_trees, seed):
    """The forest grown one depth at a time, node by node: one generator draws
    every bootstrap, then at each depth the features of each node that may
    split, by tree and then left to right."""
    y = np.asarray(y, dtype=np.int64)
    num_classes = int(y.max()) + 1 if len(y) else 1
    n, d = x.shape
    n_features = max(1, int(np.sqrt(d)))
    rng = np.random.default_rng(seed)
    level = [(_leaf(y[rows], num_classes), rows) for rows in rng.integers(0, n, size=(n_trees, n))]
    roots = [node for node, _ in level]
    for _ in range(evaluation.MAX_DEPTH):
        level = [(node, rows) for node, rows in level if len(np.unique(y[rows])) >= 2]
        if not level:
            break
        draws = np.argsort(rng.random((len(level), d)), axis=1)[:, :n_features]
        children = []
        for (node, rows), feature_ids in zip(level, draws):
            feature, threshold = _scalar_best_split(x[rows], y[rows], feature_ids, num_classes)
            if feature is None:
                continue
            go_left = x[rows, feature] <= threshold
            node.feature, node.threshold = feature, threshold
            node.left, node.right = (_leaf(y[side], num_classes)
                                     for side in (rows[go_left], rows[~go_left]))
            children += [(node.left, rows[go_left]), (node.right, rows[~go_left])]
        level = children
    return roots


def _nodes(tree):
    """(depth, feature, threshold, prediction) of every node, in preorder."""
    out, stack = [], [(tree, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((depth, node.feature, node.threshold, node.prediction))
        if node.feature is not None:
            stack += [(node.right, depth + 1), (node.left, depth + 1)]
    return out


def _scans(x, y, feature_ids):
    """A node's values and labels sorted by each drawn feature, concatenated."""
    order = np.argsort(x[:, feature_ids], axis=0, kind="stable")
    return np.take_along_axis(x[:, feature_ids], order, axis=0).T.ravel(), y[order.T].ravel()


def _batched_best_split(x, y, feature_ids, num_classes):
    """``evaluation._best_splits`` called on one node: (feature, threshold);
    its left class counts are those of the samples the threshold sends left."""
    xs, ys = _scans(x, y, feature_ids)
    counts = np.bincount(y, minlength=num_classes)[None]
    best, left = evaluation._best_splits(xs, ys, len(feature_ids), counts)
    if best[0] < 0:
        assert not left.any()
        return None, None
    feature, threshold = feature_ids[best[0] // len(y)], 0.5 * (xs[best[0]] + xs[best[0] + 1])
    goes = x[:, feature] <= threshold
    assert np.array_equal(left[0], np.bincount(y[goes], minlength=num_classes))
    return feature, threshold


def test_gini_oracle():
    assert _gini(np.array([5, 0])) == 0.0
    assert _gini(np.array([5, 5])) == pytest.approx(0.5)
    assert _gini(np.array([0, 0])) == 0.0


def test_best_split_on_separable_data():
    x = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    f, thr = _batched_best_split(x, y, [0], 2)
    assert f == 0
    assert 1.0 < thr < 10.0


def test_best_split_none_when_uninformative():
    x = np.ones((4, 1))
    y = np.array([0, 1, 0, 1])
    f, _ = _batched_best_split(x, y, [0], 2)
    assert f is None


@st.composite
def split_fixtures(draw):
    """Small tables with many ties: few distinct values per column, adjacent
    floats (whose midpoints round onto a neighbour), or continuous values,
    optionally with +-inf and NaN cells; 2-10 classes, not all of them present."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    num_classes = draw(st.integers(2, 10))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    gen = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["few", "adjacent", "continuous"]))
    if kind == "few":
        x = gen.integers(0, draw(st.integers(1, 6)), size=(n, d)).astype(np.float64)
    elif kind == "adjacent":
        x = 1 + gen.integers(0, 4, size=(n, d)) * 2.0 ** -52
    else:
        x = np.round(gen.normal(size=(n, d)), draw(st.integers(0, 3)))
    if draw(st.booleans()):
        x[gen.random(x.shape) < 0.1] = np.inf
        x[gen.random(x.shape) < 0.1] = -np.inf
        x[gen.random(x.shape) < 0.1] = np.nan
    y = gen.integers(0, draw(st.integers(1, num_classes)), size=n)
    feature_ids = gen.permutation(d)[:draw(st.integers(1, d))]
    return x, y, feature_ids, num_classes


@settings(max_examples=300)
@given(split_fixtures())
def test_best_split_matches_scalar_scan(fixture):
    want = _scalar_best_split(*fixture)
    assert _batched_best_split(*fixture) == want
    assert _best_split(*fixture) == want


def test_best_split_takes_the_lowest_of_near_ties():
    """Three splits score 0.4 up to rounding: feature 0 at 7.5 gives 0.4,
    feature 1 at 0.5 and 4.5 give 0.4 - 5.6e-17 and 0.4 - 1.1e-16.  The
    lowest wins, however close the others come."""
    x = np.array([[5.0, 9.0], [1.0, 0.0], [6.0, 8.0], [7.0, 3.0], [0.0, 2.0],
                  [9.0, 6.0], [8.0, 1.0], [3.0, 4.0], [2.0, 5.0], [4.0, 7.0]])
    y = np.array([1, 0, 0, 0, 1, 1, 1, 0, 1, 1])
    assert _batched_best_split(x, y, [0, 1], 2) == (1, 4.5)
    assert _scalar_best_split(x, y, [0, 1], 2) == (1, 4.5)
    assert _best_split(x, y, [0, 1], 2) == (1, 4.5)


def test_best_split_skips_a_midpoint_that_rounds_onto_its_right_neighbour():
    """The midpoint of 1 + 2**-52 and 1 + 2**-51 rounds to 1 + 2**-51, which
    parts nothing, so the pure split between them is not a candidate."""
    x = np.array([[1 + 2 ** -52], [1 + 2 ** -51], [5.0]])
    y = np.array([0, 1, 1])
    assert _batched_best_split(x, y, [0], 2) == (0, 3.0)
    assert _scalar_best_split(x, y, [0], 2) == (0, 3.0)
    assert _best_split(x, y, [0], 2) == (0, 3.0)


def test_best_splits_scores_several_nodes_as_each_alone():
    """One call over nodes of different sizes picks what one call per node picks."""
    gen = np.random.default_rng(4)
    nodes = []
    for n in (1, 2, 7, 30, 5):
        x = np.round(gen.normal(size=(n, 3)), 1)
        nodes.append((x, gen.integers(0, 3, n), gen.permutation(3)[:2], 3))
    xs, ys = (np.concatenate(part) for part in zip(*(_scans(*node[:3]) for node in nodes)))
    counts = np.stack([np.bincount(y, minlength=3) for _, y, _, _ in nodes])
    at, left = evaluation._best_splits(xs, ys, 2, counts)
    starts = np.cumsum([0] + [2 * len(y) for _, y, _, _ in nodes[:-1]])
    for (x, y, feature_ids, c), a, lc, start in zip(nodes, at, left, starts):
        want = _scalar_best_split(x, y, feature_ids, c)
        got = (None, None) if a < 0 else \
            (feature_ids[(a - start) // len(y)], 0.5 * (xs[a] + xs[a + 1]))
        assert got == want
        goes = x[:, want[0]] <= want[1] if a >= 0 else np.zeros(len(y), dtype=bool)
        assert np.array_equal(lc, np.bincount(y[goes], minlength=c))


def test_forest_matches_scalar_split_forest():
    """The forest equals the level-order forest built on the scalar scan."""
    gen = np.random.default_rng(3)
    x = np.round(gen.normal(size=(60, 5)), 1)
    y = gen.integers(0, 3, 60)
    forest = evaluation.rf_fit(x, y, n_trees=5, seed=2)
    oracle = _level_order_forest(x, y, 5, 2)
    assert [_nodes(t) for t in forest.trees] == [_nodes(t) for t in oracle]


@st.composite
def forest_fixtures(draw):
    """Rounded values (ties), optional +-inf and NaN cells, 1-9 classes (one
    class included), 1-150 rows, 1 tree or several."""
    n = draw(st.integers(1, 150))
    d = draw(st.integers(1, 9))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = np.round(gen.normal(size=(n, d)) * 3, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        x[gen.random(x.shape) < 0.1] = np.inf
        x[gen.random(x.shape) < 0.1] = -np.inf
        x[gen.random(x.shape) < 0.05] = np.nan
    y = gen.integers(0, draw(st.integers(1, 9)), size=n)
    return x, y, draw(st.sampled_from([1, 2, 7])), draw(st.integers(0, 2 ** 16))


def _assert_matches_the_level_order_forest(fixture):
    x, y, n_trees, seed = fixture
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        warnings.filterwarnings("ignore", "single-class training target")
        forest = evaluation.rf_fit(x, y, n_trees=n_trees, seed=seed)
        oracle = _level_order_forest(x, y, n_trees, seed)
    assert len(forest.trees) == n_trees
    assert [_nodes(t) for t in forest.trees] == [_nodes(t) for t in oracle]


@settings(max_examples=60, deadline=None)
@given(forest_fixtures())
def test_forest_matches_the_level_order_forest_node_for_node(fixture):
    _assert_matches_the_level_order_forest(fixture)


@pytest.mark.parametrize("slice_size", [1, 64])
@settings(max_examples=30, deadline=None)
@given(forest_fixtures())
def test_forest_sliced_inside_a_depth_matches_the_level_order_forest(slice_size, fixture):
    """Slices of 64 scanned samples cut a depth's nodes, their sort and their
    scoring into many passes; with 1, every node is a slice of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluation, "_SLICE", slice_size)
        _assert_matches_the_level_order_forest(fixture)


def test_forest_reaches_the_depth_cap_as_the_level_order_forest_does():
    gen = np.random.default_rng(7)
    x = gen.normal(size=(400, 4))
    y = gen.integers(0, 2, 400)  # noise: every tree splits down to the cap
    forest = evaluation.rf_fit(x, y, n_trees=3, seed=1)
    oracle = _level_order_forest(x, y, 3, 1)
    nodes = [_nodes(t) for t in forest.trees]
    assert nodes == [_nodes(t) for t in oracle]
    assert max(depth for tree in nodes for depth, *_ in tree) == evaluation.MAX_DEPTH


def test_forest_splits_a_node_whose_purest_cut_borders_nan():
    """Cutting between 1 and NaN would part the labels cleanly, but no
    threshold makes that cut; the root splits at 0.5 instead of staying a leaf."""
    x = np.tile([0.0, 1.0, np.nan, np.nan], 10)[:, None]
    y = np.tile([0, 0, 1, 1], 10)
    forest = evaluation.rf_fit(x, y, n_trees=1, seed=0)
    root = forest.trees[0]
    assert (root.feature, root.threshold) == (0, 0.5)
    assert (evaluation.rf_predict(forest, x) == y).mean() == 0.75


def test_forest_learns_separable_problem():
    gen = np.random.default_rng(0)
    x = np.vstack([gen.normal(0, 0.5, (40, 3)), gen.normal(4, 0.5, (40, 3))])
    y = np.array([0] * 40 + [1] * 40)
    forest = evaluation.rf_fit(x, y, n_trees=20, seed=0)
    pred = evaluation.rf_predict(forest, x)
    assert (pred == y).mean() > 0.95


def test_forest_deterministic():
    gen = np.random.default_rng(1)
    x = gen.normal(size=(30, 4))
    y = gen.integers(0, 2, 30)
    p1 = evaluation.rf_predict(evaluation.rf_fit(x, y, n_trees=10, seed=5), x)
    p2 = evaluation.rf_predict(evaluation.rf_fit(x, y, n_trees=10, seed=5), x)
    assert np.array_equal(p1, p2)


def test_forest_single_class_warns():
    x = np.zeros((5, 2))
    y = np.zeros(5, dtype=int)
    with pytest.warns(UserWarning, match="single-class"):
        forest = evaluation.rf_fit(x, y, n_trees=3)
    assert np.array_equal(evaluation.rf_predict(forest, x), np.zeros(5))


def test_one_hot_features_mixed():
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL),
              dataio.ColumnSchema("c", dataio.CATEGORICAL, cardinality=3)]
    values = np.array([[1.5, 2.0], [0.5, 0.0]])
    out = evaluation.one_hot_features(values, schema)
    assert out.shape == (2, 4)
    assert np.array_equal(out[0], [1.5, 0.0, 0.0, 1.0])
    assert np.array_equal(out[1], [0.5, 1.0, 0.0, 0.0])


def test_downstream_accuracy_end_to_end():
    ds = dataio.make_two_cluster(n=200, d=4, seed=0)
    acc = evaluation.downstream_accuracy(ds.values[:150], ds.targets[:150],
                                         ds.values[150:], ds.targets[150:], ds.schema)
    assert acc > 0.9


# -- aggregation --------------------------------------------------------

def make_report(method, rmse=None, mae=None, cat=None, acc=None,
                dataset="d", mechanism="mcar", rate=0.2, seed=0):
    return evaluation.MetricReport(dataset, mechanism, rate, method, seed,
                                   rmse=rmse, mae=mae, cat_accuracy=cat,
                                   downstream_accuracy=acc)


def test_count_of_wins_hand_fixture():
    """Fixture with known winners: method A wins rmse and mae in group 1,
    B wins rmse in group 2; accuracy ties credit both."""
    reports = [
        make_report("A", rmse=0.5, mae=0.4, acc=0.9),
        make_report("B", rmse=0.7, mae=0.6, acc=0.9),
        make_report("A", rmse=0.9, dataset="e"),
        make_report("B", rmse=0.2, dataset="e"),
    ]
    wins = evaluation.count_of_wins(reports)
    assert wins == {"A": 3, "B": 2}  # A: rmse+mae+acc tie; B: acc tie + group-2 rmse


def test_count_of_wins_skips_single_method_groups():
    reports = [make_report("A", rmse=0.5)]
    assert evaluation.count_of_wins(reports) == {}


def test_report_compares_methods_within_each_seed():
    """A beats B on seed 0 (rmse 0.5 < 0.6) and B beats A on seed 1 (0.7 < 0.9):
    one win each, ranks 1 and 2 per seed, so a mean rank of 1.5 each.  Pooling
    the seeds would give A the one win and ranks 1-4 for two methods."""
    reports = [make_report("A", rmse=0.5, seed=0), make_report("B", rmse=0.6, seed=0),
               make_report("A", rmse=0.9, seed=1), make_report("B", rmse=0.7, seed=1)]
    assert evaluation.count_of_wins(reports) == {"A": 1, "B": 1}
    ranking = evaluation.unified_average_ranking(reports)
    assert ranking == {m: {"mean_rank": 1.5, "std_rank": 0.0, "cells": 1} for m in "AB"}


def test_aggregation_rejects_a_method_twice_in_a_group():
    """A run evaluated twice would count twice: wins 2 for one run, ranks over 1-3 for two
    methods."""
    reports = [make_report("A", rmse=0.5), make_report("A", rmse=0.5), make_report("B", rmse=0.6)]
    for aggregate in (evaluation.count_of_wins, evaluation.unified_average_ranking):
        with pytest.raises(ValueError, match="the run d/mcar/0.2/A/0 has more than one row"):
            aggregate(reports)


def test_average_ranks_with_ties():
    ranks = evaluation._average_ranks([0.3, 0.1, 0.3, 0.2], lower_better=True)
    assert ranks.tolist() == [3.5, 1.0, 3.5, 2.0]
    ranks_hi = evaluation._average_ranks([0.9, 0.7, 0.8], lower_better=False)
    assert ranks_hi.tolist() == [1.0, 3.0, 2.0]


def _scanned_average_ranks(values, lower_better):
    """Average ranks by sorting and scanning each run of ties (oracle)."""
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


@settings(max_examples=300)
@given(values=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.5]),
                                 st.floats(-1e6, 1e6)), min_size=1, max_size=12),
       lower_better=st.booleans())
def test_average_ranks_match_the_scan_over_ties(values, lower_better):
    """Most draws repeat one of five values, so most lists hold ties."""
    ranks = evaluation._average_ranks(values, lower_better)
    want = _scanned_average_ranks(values, lower_better)
    assert ranks.dtype == want.dtype and ranks.tolist() == want.tolist()


def test_unified_average_ranking_hand_fixture():
    """Two datasets, one mechanism/rate cell.  A is best on rmse in both
    datasets (rank 1), B always second: mean ranks 1 and 2, std 0."""
    reports = [
        make_report("A", rmse=0.1), make_report("B", rmse=0.2),
        make_report("A", rmse=0.3, dataset="e"), make_report("B", rmse=0.4, dataset="e"),
    ]
    ranking = evaluation.unified_average_ranking(reports)
    assert ranking["A"] == {"mean_rank": 1.0, "std_rank": 0.0, "cells": 1}
    assert ranking["B"] == {"mean_rank": 2.0, "std_rank": 0.0, "cells": 1}


def test_unified_average_ranking_multiple_cells():
    reports = [
        # rmse cell: A better
        make_report("A", rmse=0.1, mae=0.5),
        make_report("B", rmse=0.2, mae=0.1),
    ]
    ranking = evaluation.unified_average_ranking(reports)
    # A: rank 1 on rmse, rank 2 on mae -> mean 1.5 over two cells
    assert ranking["A"]["mean_rank"] == pytest.approx(1.5)
    assert ranking["A"]["cells"] == 2
    assert ranking["B"]["mean_rank"] == pytest.approx(1.5)


def test_higher_is_better_metrics_rank_inverted():
    reports = [make_report("A", acc=0.9), make_report("B", acc=0.7)]
    ranking = evaluation.unified_average_ranking(reports)
    assert ranking["A"]["mean_rank"] == 1.0
    assert ranking["B"]["mean_rank"] == 2.0
