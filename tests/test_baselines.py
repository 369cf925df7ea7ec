import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggimpute import baselines, dataio


def numeric_ds(values):
    values = np.asarray(values, dtype=np.float64)
    schema = [dataio.ColumnSchema(f"c{j}", dataio.NUMERICAL)
              for j in range(values.shape[1])]
    return dataio.TabularDataset(schema, values,
                                 np.zeros(len(values), dtype=np.int64), 1)


def test_mean_impute_hand_example():
    ds = numeric_ds([[1.0, 10.0], [3.0, np.nan], [np.nan, 30.0]])
    mask = np.array([[1, 1], [1, 0], [0, 1]], dtype=np.int8)
    out = baselines.mean_impute(ds, mask, dataio.compute_stats(ds, mask))
    assert out[2, 0] == pytest.approx(2.0)   # mean of observed {1, 3}
    assert out[1, 1] == pytest.approx(20.0)  # mean of observed {10, 30}
    assert out[0, 0] == 1.0                  # observed cells untouched


def test_mean_impute_categorical_mode():
    schema = [dataio.ColumnSchema("c", dataio.CATEGORICAL, cardinality=3)]
    values = np.array([[0.0], [2.0], [2.0], [np.nan]])
    ds = dataio.TabularDataset(schema, values, np.zeros(4, dtype=np.int64), 1)
    mask = np.array([[1], [1], [1], [0]], dtype=np.int8)
    out = baselines.mean_impute(ds, mask, dataio.compute_stats(ds, mask))
    assert out[3, 0] == 2.0


def test_mean_impute_uses_supplied_stats():
    ds = numeric_ds([[np.nan]])
    mask = np.array([[0]], dtype=np.int8)
    stats = dataio.ColumnStats(means={0: 7.5}, sigmas={0: 1.0}, modes={})
    out = baselines.mean_impute(ds, mask, stats)
    assert out[0, 0] == 7.5


def brute_force_knn(values, mask, k_nn, schema, stats):
    """Independent oracle: exhaustive distance computation and donor vote."""
    obs = (mask == 1) & np.isfinite(values)
    filled = np.where(obs, np.nan_to_num(values), 0.0)
    n, d = values.shape
    out = values.copy()
    for i in range(n):
        dists = []
        for r in range(n):
            if r == i:
                continue
            overlap = obs[i] & obs[r]
            if not overlap.any():
                continue
            sq = ((filled[i, overlap] - filled[r, overlap]) ** 2).sum()
            dists.append((sq * d / overlap.sum(), r))
        dists.sort()
        donors = [r for _, r in dists[:k_nn]]
        for j in np.flatnonzero(~obs[i]):
            giving = [r for r in donors if obs[r, j]]
            if not giving:
                if schema[j].kind == "numerical":
                    out[i, j] = stats.means.get(j, 0.0)
                else:
                    out[i, j] = stats.modes.get(j, 0)
                continue
            if schema[j].kind == "numerical":
                out[i, j] = np.mean([filled[r, j] for r in giving])
            else:
                votes = np.bincount([int(filled[r, j]) for r in giving],
                                    minlength=schema[j].cardinality)
                out[i, j] = int(votes.argmax())
    return out


def test_knn_hand_example():
    """Row 3 is closest to rows 0 and 1; with k=2 the missing cell takes
    their column-1 mean."""
    ds = numeric_ds([[0.0, 10.0], [0.1, 12.0], [50.0, 99.0], [0.05, np.nan]])
    mask = np.ones((4, 2), dtype=np.int8)
    mask[3, 1] = 0
    out = baselines.knn_impute(ds, mask, k_nn=2, stats=dataio.compute_stats(ds, mask))
    assert out[3, 1] == pytest.approx(11.0)


def test_knn_matches_brute_force_on_random_fixtures():
    gen = np.random.default_rng(2024)
    for trial in range(25):
        values = gen.normal(size=(8, 5))
        mask = (gen.random((8, 5)) > 0.3).astype(np.int8)
        mask[:, 0] = 1  # keep one column observed so no row is empty
        ds = numeric_ds(values.copy())
        ds.values[mask == 0] = np.nan
        stats = dataio.compute_stats(ds, mask)
        ours = baselines.knn_impute(ds, mask, k_nn=3, stats=stats)
        oracle = brute_force_knn(ds.values.copy(), mask, 3, ds.schema, stats)
        assert np.allclose(ours, oracle, equal_nan=True), f"trial {trial}"


def _lexsorted_knn(ds, mask, k_nn, stats):
    """KNN before its distance helper was inlined and the donor order became
    a stable argsort (oracle)."""
    values = np.nan_to_num(ds.values)
    obs = (mask == 1) & np.isfinite(ds.values)
    n, d = values.shape
    imputed = ds.values.copy()
    for i in range(n):
        missing_cols = np.flatnonzero(~obs[i])
        if missing_cols.size == 0:
            continue
        filled = values * obs
        overlap = obs & obs[i]
        diff = np.where(overlap, filled - filled[i], 0.0)
        counts = overlap.sum(axis=1)
        dist = np.where(counts > 0, (diff ** 2).sum(axis=1) * d / np.maximum(counts, 1), np.inf)
        dist[i] = np.inf
        order = np.lexsort((np.arange(n), dist))
        donors = order[np.isfinite(dist[order])][:k_nn]
        for j in missing_cols:
            col = ds.schema[j]
            giving = donors[obs[donors, j]]
            if giving.size == 0:
                imputed[i, j] = baselines._fill_value(col, j, stats)
            elif col.kind == "numerical":
                imputed[i, j] = values[giving, j].mean()
            else:
                votes = np.bincount(values[giving, j].astype(np.int64),
                                    minlength=col.cardinality)
                imputed[i, j] = int(votes.argmax())
    return imputed


@settings(max_examples=150)
@given(distinct=st.integers(1, 4), copies=st.integers(2, 5), cols=st.integers(1, 4),
       categorical=st.booleans(), k_nn=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_knn_matches_the_lexsort_oracle_on_duplicate_rows(distinct, copies, cols, categorical,
                                                         k_nn, seed):
    """Each row has duplicates, so many donors tie on distance and the row
    index decides which of them vote."""
    gen = np.random.default_rng(seed)
    base = gen.integers(0, 3, size=(distinct, cols)).astype(float)
    values = base[gen.permutation(np.repeat(np.arange(distinct), copies))]
    schema = [dataio.ColumnSchema(f"c{j}", dataio.NUMERICAL) for j in range(cols)]
    if categorical:
        schema[-1] = dataio.ColumnSchema(f"c{cols - 1}", dataio.CATEGORICAL, cardinality=3)
    ds = dataio.TabularDataset(schema, values, np.zeros(len(values), dtype=np.int64), 1)
    mask = (gen.random(values.shape) > 0.3).astype(np.int8)
    ds.values[mask == 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # columns with no observed cell
        stats = dataio.compute_stats(ds, mask)
        got = baselines.knn_impute(ds, mask, k_nn, stats)
        want = _lexsorted_knn(ds, mask, k_nn, stats)
    assert np.array_equal(got, want, equal_nan=True)


def test_knn_categorical_majority_and_tie_break():
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL),
              dataio.ColumnSchema("c", dataio.CATEGORICAL, cardinality=3)]
    values = np.array([[0.0, 2.0], [0.1, 0.0], [0.2, 2.0], [0.05, np.nan]])
    ds = dataio.TabularDataset(schema, values, np.zeros(4, dtype=np.int64), 1)
    mask = np.ones((4, 2), dtype=np.int8)
    mask[3, 1] = 0
    stats = dataio.compute_stats(ds, mask)
    out = baselines.knn_impute(ds, mask, k_nn=3, stats=stats)
    assert out[3, 1] == 2.0  # majority vote among {2, 0, 2}
    # tie case: k=2 donors {2, 0} -> smallest class wins
    out2 = baselines.knn_impute(ds, mask, k_nn=2, stats=stats)
    assert out2[3, 1] == 0.0


def test_knn_falls_back_to_mean_without_donors():
    ds = numeric_ds([[1.0, np.nan], [2.0, np.nan], [3.0, 6.0]])
    mask = np.array([[1, 0], [1, 0], [1, 1]], dtype=np.int8)
    out = baselines.knn_impute(ds, mask, k_nn=1, stats=dataio.compute_stats(ds, mask))
    # nearest donor of row 0 is row 1, which also misses column 1
    assert np.isfinite(out[0, 1])


def test_knn_rejects_bad_k():
    ds = numeric_ds([[1.0], [2.0]])
    mask = np.ones((2, 1), dtype=np.int8)
    with pytest.raises(ValueError):
        baselines.knn_impute(ds, mask, k_nn=0, stats=dataio.compute_stats(ds, mask))


def test_knn_deterministic():
    gen = np.random.default_rng(7)
    values = gen.normal(size=(10, 4))
    mask = (gen.random((10, 4)) > 0.25).astype(np.int8)
    ds = numeric_ds(values)
    stats = dataio.compute_stats(ds, mask)
    a = baselines.knn_impute(ds, mask, k_nn=3, stats=stats)
    b = baselines.knn_impute(ds, mask, k_nn=3, stats=stats)
    assert np.array_equal(a, b)
