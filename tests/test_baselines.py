import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggimpute import baselines, dataio, missingness


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
    stats = dataio.ColumnStats(fill=np.array([7.5]), scale=np.array([1.0]))
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
                out[i, j] = stats.fill[j]
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
                imputed[i, j] = stats.fill[j]
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
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL), dataio.ColumnSchema("y", dataio.NUMERICAL),
              dataio.ColumnSchema("c", dataio.CATEGORICAL, cardinality=3)]
    values = np.array([[1.0, np.nan, np.nan], [2.0, np.nan, np.nan], [3.0, 6.0, 2.0]])
    ds = dataio.TabularDataset(schema, values, np.zeros(3, dtype=np.int64), 1)
    mask = np.array([[1, 0, 0], [1, 0, 0], [1, 1, 1]], dtype=np.int8)
    out = baselines.knn_impute(ds, mask, k_nn=1, stats=dataio.compute_stats(ds, mask))
    # the nearest donor of rows 0 and 1 is the other one, which misses both columns too
    assert out[0, 1] == out[1, 1] == 6.0  # the training mean
    assert out[0, 2] == out[1, 2] == 2.0  # the modal class


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


def _row_loop_knn(ds, mask, k_nn, stats):
    """KNN one target row at a time, scoring every row by the per-element
    formula (oracle: the implementation before candidate blocks)."""
    values = np.nan_to_num(ds.values)
    obs = (mask == 1) & np.isfinite(ds.values)
    n, d = values.shape
    observed = values * obs
    imputed = ds.values.copy()
    for i in range(n):
        missing_cols = np.flatnonzero(~obs[i])
        if missing_cols.size == 0:
            continue
        overlap = obs & obs[i]
        sq = (np.where(overlap, observed - observed[i], 0.0) ** 2).sum(axis=1)
        counts = overlap.sum(axis=1)
        dist = np.where(counts > 0, sq * d / np.maximum(counts, 1), np.inf)
        dist[i] = np.inf
        order = np.argsort(dist, kind="stable")  # distance, then row index
        donors = order[np.isfinite(dist[order])][:k_nn]
        for j in missing_cols:
            col = ds.schema[j]
            giving = donors[obs[donors, j]]
            if giving.size == 0:
                imputed[i, j] = stats.fill[j]
            elif col.kind == "numerical":
                imputed[i, j] = values[giving, j].mean()
            else:
                votes = np.bincount(values[giving, j].astype(np.int64),
                                    minlength=col.cardinality)
                imputed[i, j] = int(votes.argmax())
    return imputed


def _knn_table(kind, n, cols, gen):
    """An n x cols table of one kind that is hard to score in product form."""
    if kind == "rounded":  # duplicate rows and many tied distances
        return gen.integers(0, 3, size=(n, cols)).astype(float)
    if kind == "ulp":  # rows one ulp from another row
        values = gen.normal(size=(n, cols))
        near = gen.random(n) < 0.5
        values[near] = np.nextafter(values[gen.integers(0, n, near.sum())], np.inf)
        return values
    if kind == "offset":  # a large common offset: the product form cancels
        return 1e8 + 1e-3 * gen.normal(size=(n, cols))
    if kind == "huge":  # squares near and past overflow
        return gen.normal(size=(n, cols)) * 10.0 ** gen.uniform(100, 160, size=(n, 1))
    return gen.normal(size=(n, cols)) * 10.0 ** gen.uniform(-3, 3)


@settings(max_examples=120, deadline=None)
@given(data=st.data(), n=st.one_of(st.integers(2, 30), st.integers(150, 320)),
       cols=st.integers(1, 6), categorical=st.integers(0, 2),
       kind=st.sampled_from(["rounded", "ulp", "offset", "huge", "scaled"]),
       rate=st.sampled_from([0.0, 0.2, 0.6]), blank_row=st.booleans(),
       blank_col=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_knn_matches_the_row_loop_bit_for_bit(data, n, cols, categorical, kind, rate,
                                              blank_row, blank_col, seed):
    """Candidate blocks give the row loop's output on ties, near-duplicate
    rows, cancelling and overflowing magnitudes, categorical columns, empty
    rows and columns, every ``k_nn`` up to past n - 1, and tables of more
    than one block (320 rows of 4 columns already are)."""
    gen = np.random.default_rng(seed)
    k_nn = data.draw(st.one_of(st.integers(1, 8), st.integers(1, n + 1)), label="k_nn")
    values = _knn_table(kind, n, cols, gen)
    schema = [dataio.ColumnSchema(f"c{j}", dataio.NUMERICAL) for j in range(cols)]
    for j in range(max(0, cols - categorical), cols):
        values[:, j] = gen.integers(0, 3, size=n)
        schema[j] = dataio.ColumnSchema(f"c{j}", dataio.CATEGORICAL, cardinality=3)
    mask = (gen.random((n, cols)) >= rate).astype(np.int8)
    if blank_row:
        mask[gen.integers(n)] = 0
    if blank_col:
        mask[:, gen.integers(cols)] = 0
    ds = dataio.TabularDataset(schema, values, np.zeros(n, dtype=np.int64), 1)
    ds.values[mask == 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # empty columns, overflowing squares, NaN left
        stats = dataio.compute_stats(ds, mask)
        got = baselines.knn_impute(ds, mask, k_nn, stats)
        want = _row_loop_knn(ds, mask, k_nn, stats)
    assert np.array_equal(got, want, equal_nan=True)
    assert got.tobytes() == want.tobytes()  # the sign of zero too


def test_knn_candidates_are_few_on_an_ordinary_table():
    """The exact re-check scores about k rows per target, not every row, so
    the bit-for-bit test above does not pass through the keep-all path."""
    ds = dataio.make_two_cluster(n=800, d=8, seed=0)
    mask = missingness.corrupt(ds, "mcar", 0.2, seed=0)
    z = dataio.normalize(ds, dataio.compute_stats(ds, mask)).values
    obs = (mask == 1) & np.isfinite(z)
    targets = np.flatnonzero(~obs.all(axis=1))
    for k_nn in (1, 5, 10):
        blocks = list(baselines._candidates(np.nan_to_num(z) * obs, obs, targets, k_nn))
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate([rows for rows, _ in blocks]), targets)
        kept = np.concatenate([keep.sum(axis=1) for _, keep in blocks])
        assert kept.min() >= k_nn and kept.max() <= 2 * k_nn


def test_knn_row_whose_distance_overflows_is_no_donor():
    """Row 1's squared distance to row 0 is finite but times d it overflows,
    so row 1 is no donor and row 2, farther per shared column, is; the
    candidate bounds must overflow where the distance does."""
    big = np.sqrt(5.5e307)
    ds = numeric_ds([[0.0, 0.0, np.nan], [1e154, 0.0, 1.0], [big, np.nan, 2.0]])
    mask = np.isfinite(ds.values).astype(np.int8)
    stats = dataio.compute_stats(ds, mask)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the overflowing distance
        out = baselines.knn_impute(ds, mask, k_nn=1, stats=stats)
        want = _row_loop_knn(ds, mask, 1, stats)
    assert out[0, 2] == 2.0  # row 2's value, not the mean 1.5
    assert np.array_equal(out, want, equal_nan=True)
