import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggimpute import dataio, missingness, model


def big_numeric_dataset(n=1500, d=8, seed=0):
    gen = np.random.default_rng(seed)
    schema = [dataio.ColumnSchema(f"c{i}", dataio.NUMERICAL) for i in range(d)]
    values = gen.normal(size=(n, d))
    return dataio.TabularDataset(schema, values, gen.integers(0, 2, n), 2)


def test_mcar_rate_concentrates():
    ds = big_numeric_dataset()
    mask = missingness.corrupt_mcar(ds, 0.2, seed=0)
    assert 0.18 <= (1.0 - mask.mean()) <= 0.22


def test_mcar_zero_rate_keeps_everything():
    ds = big_numeric_dataset(n=50)
    mask = missingness.corrupt_mcar(ds, 0.0, seed=0)
    assert mask.all()


def test_mcar_deterministic():
    ds = big_numeric_dataset(n=100)
    a = missingness.corrupt_mcar(ds, 0.3, seed=9)
    b = missingness.corrupt_mcar(ds, 0.3, seed=9)
    assert np.array_equal(a, b)


def test_mcar_independent_of_values():
    """Missing frequency should not correlate with cell magnitude."""
    ds = big_numeric_dataset(n=4000, d=4)
    mask = missingness.corrupt_mcar(ds, 0.2, seed=1)
    high = ds.values > np.median(ds.values)
    rate_high = 1.0 - mask[high].mean()
    rate_low = 1.0 - mask[~high].mean()
    assert abs(rate_high - rate_low) < 0.02


def test_mar_observed_subset_is_complete():
    ds = big_numeric_dataset(n=800, d=10)
    mask = missingness.corrupt_mar(ds, 0.2, seed=3)
    complete_cols = [j for j in range(10) if mask[:, j].all()]
    assert len(complete_cols) == 3  # 30% of 10 columns stay observed


def test_mar_overall_rate_calibrated():
    ds = big_numeric_dataset(n=3000, d=10)
    mask = missingness.corrupt_mar(ds, 0.2, seed=5)
    assert abs((1.0 - mask.mean()) - 0.2) < 0.02


def test_mar_missingness_monotone_in_score():
    """Rows with higher logistic scores must lose more cells.

    Oracle: sort rows by their per-row missing count and check the count
    correlates with the observed-subset-driven probability ordering by
    splitting rows into missing-heavy and missing-light halves.
    """
    ds = big_numeric_dataset(n=4000, d=10, seed=11)
    mask = missingness.corrupt_mar(ds, 0.25, seed=11)
    complete = np.array([mask[:, j].all() for j in range(10)])
    rest = ~complete
    per_row = (mask[:, rest] == 0).mean(axis=1)
    heavy = per_row > np.median(per_row)
    # heavy rows and light rows should differ in their per-row missing rate;
    # under MCAR the two groups would be statistically indistinguishable, so a
    # large spread evidences the dependence on observed covariates
    assert per_row[heavy].mean() - per_row[~heavy].mean() > 0.1


def test_mnar_rate_calibrated_within_two_percent():
    ds = big_numeric_dataset(n=4000, d=6, seed=2)
    mask = missingness.corrupt_mnar(ds, 0.2, seed=2)
    assert abs((1.0 - mask.mean()) - 0.2) < 0.02


def test_mnar_higher_values_go_missing_more_often():
    ds = big_numeric_dataset(n=4000, d=6, seed=4)
    mask = missingness.corrupt_mnar(ds, 0.3, seed=4)
    missing_vals = ds.values[mask == 0]
    observed_vals = ds.values[mask == 1]
    assert missing_vals.mean() > observed_vals.mean() + 0.2


def test_corrupt_dispatch_and_unknown_mechanism():
    ds = big_numeric_dataset(n=30)
    assert np.array_equal(missingness.corrupt(ds, "mcar", 0.1, 0),
                          missingness.corrupt_mcar(ds, 0.1, 0))
    with pytest.raises(ValueError):
        missingness.corrupt(ds, "bogus", 0.1, 0)


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.3, "0.2", True, False])
@pytest.mark.parametrize("mechanism", ["mcar", "mar", "mnar"])
def test_corrupt_rejects_bad_rate(mechanism, rate):
    ds = big_numeric_dataset(n=30)
    with pytest.raises(ValueError, match=r"rate must be in \[0, 1\)"):
        missingness.corrupt(ds, mechanism, rate, 0)


def test_surrogate_mask_only_hits_observed_cells(rng):
    init = (rng.random((200, 6)) > 0.3).astype(np.int8)
    surr = missingness.surrogate_mask(init, 0.2, rng)
    # initially-missing cells are marked observed in the surrogate mask
    assert (surr[init == 0] == 1).all()
    removed = ((init == 1) & (surr == 0)).sum()
    assert 0.1 < removed / (init == 1).sum() < 0.3


def test_surrogate_mask_rate_zero_is_identity(rng):
    init = (rng.random((50, 4)) > 0.2).astype(np.int8)
    surr = missingness.surrogate_mask(init, 0.0, rng)
    assert surr.all()


@settings(max_examples=50)
@given(rows=st.integers(1, 30), cols=st.integers(1, 8), missing=st.floats(0.0, 1.0),
       rate=st.floats(0.0, 0.99), seed=st.integers(0, 2 ** 32 - 1))
def test_surrogate_mask_never_removes_initially_missing_cells(rows, cols, missing, rate, seed):
    gen = np.random.default_rng(seed)
    init = (gen.random((rows, cols)) >= missing).astype(np.int8)
    surr = missingness.surrogate_mask(init, rate, gen)
    assert surr.shape == init.shape and set(np.unique(surr)) <= {0, 1}
    assert (surr[init == 0] == 1).all()


@settings(max_examples=20)
@given(mechanism=st.sampled_from(["mar", "mnar"]), cols=st.integers(2, 8),
       rate=st.floats(0.05, 0.45), skewed=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_mar_and_mnar_hit_their_calibrated_rate(mechanism, cols, rate, skewed, seed):
    """The intercept is calibrated so the expected missing fraction is the
    rate; the realized one stays within five binomial standard errors."""
    gen = np.random.default_rng(seed)
    n = 3000
    values = gen.exponential(size=(n, cols)) if skewed else gen.normal(size=(n, cols))
    schema = [dataio.ColumnSchema(f"c{i}", dataio.NUMERICAL) for i in range(cols)]
    ds = dataio.TabularDataset(schema, values, gen.integers(0, 2, n), 2)
    mask = missingness.corrupt(ds, mechanism, rate, seed)
    corruptible = n * cols if mechanism == "mnar" else n * (cols - max(1, round(0.3 * cols)))
    per_cell = rate * n * cols / corruptible
    std_err = np.sqrt(per_cell * (1 - per_cell) / corruptible) * corruptible / (n * cols)
    assert abs((1.0 - mask.mean()) - rate) < 5 * std_err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mechanism", ["mar", "mnar"])
def test_mar_and_mnar_hit_their_rate_on_a_table_with_blank_cells(mechanism):
    """A blank cell scores as its column's mean, so the file's own missing
    cells, even a column with none present, leave the calibration intact."""
    gen = np.random.default_rng(0)
    values = gen.normal(size=(400, 6))
    values[gen.random(values.shape) < 0.05] = np.nan
    values[:, 4] = np.nan
    schema = [dataio.ColumnSchema(f"c{i}", dataio.NUMERICAL) for i in range(6)]
    ds = dataio.TabularDataset(schema, values, gen.integers(0, 2, 400), 2)
    assert np.isfinite(missingness._standardized(values)).all()
    mask = missingness.corrupt(ds, mechanism, 0.2, seed=0)
    assert abs((1.0 - mask.mean()) - 0.2) < 0.05


def _separate_mar_bits(ds, rate, seed):
    """MAR before the logistic draw became a shared helper (oracle)."""
    if ds.n_cols < 2:
        raise ValueError("MAR needs at least 2 columns")
    if rate == 0:
        return np.ones((ds.n_rows, ds.n_cols), dtype=np.int8)
    rng = np.random.default_rng(seed)
    n_obs = max(1, int(round(0.3 * ds.n_cols)))
    obs_cols = np.sort(rng.choice(ds.n_cols, size=n_obs, replace=False))
    rest = np.setdiff1d(np.arange(ds.n_cols), obs_cols)
    z = missingness._standardized(ds.values[:, obs_cols])
    weights = rng.normal(size=n_obs)
    scores = z @ weights
    target = rate * ds.n_cols / rest.size
    if target >= 1.0:
        raise ValueError(f"rate {rate} unreachable with {rest.size} corruptible columns")
    b = missingness._calibrate_intercept(np.repeat(scores, rest.size), target)
    probs = missingness._sigmoid(scores + b)
    bits = np.ones((ds.n_rows, ds.n_cols), dtype=np.int8)
    draws = rng.random((ds.n_rows, rest.size))
    bits[:, rest] = (draws >= probs[:, None]).astype(np.int8)
    return bits


def _separate_mnar_bits(ds, rate, seed):
    """MNAR before the logistic draw became a shared helper (oracle)."""
    if rate == 0:
        return np.ones((ds.n_rows, ds.n_cols), dtype=np.int8)
    rng = np.random.default_rng(seed)
    z = missingness._standardized(ds.values)
    b = missingness._calibrate_intercept(z.ravel(), rate)
    probs = missingness._sigmoid(z + b)
    return (rng.random(z.shape) >= probs).astype(np.int8)


@settings(max_examples=150)
@given(mechanism=st.sampled_from(["mar", "mnar"]), rows=st.integers(1, 40),
       cols=st.integers(2, 7), rate=st.sampled_from([0, 0.05, 0.2, 0.35, 0.5, 0.7]),
       ties=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_mar_and_mnar_bits_match_their_separate_oracles(mechanism, rows, cols, rate, ties, seed):
    """Both mechanisms draw through one logistic helper; their bits, and the
    unreachable-rate error, equal the separate bodies'."""
    gen = np.random.default_rng(seed)
    values = gen.integers(0, 3, size=(rows, cols)) if ties else gen.normal(size=(rows, cols))
    schema = [dataio.ColumnSchema(f"c{i}", dataio.NUMERICAL) for i in range(cols)]
    ds = dataio.TabularDataset(schema, values.astype(float), np.zeros(rows, dtype=np.int64), 1)
    oracle = _separate_mar_bits if mechanism == "mar" else _separate_mnar_bits
    try:
        want = oracle(ds, rate, seed)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            missingness.corrupt(ds, mechanism, rate, seed)
        return
    mask = missingness.corrupt(ds, mechanism, rate, seed)
    assert np.array_equal(mask, want) and mask.dtype == want.dtype


def test_preprocess_batch_masking_and_embedding(small_mixed_dataset):
    ds = small_mixed_dataset
    cfg = model.ModelConfig(hidden=8, prototypes=2, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=0)
    rows = np.arange(6)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    init[0, 0] = 0          # numeric initially missing
    init[1, 3] = 0          # categorical initially missing
    surr = np.ones((6, 4), dtype=np.int8)
    surr[2, 1] = 0          # numeric surrogate-masked
    surr[3, 3] = 0          # categorical surrogate-masked
    batch = missingness.preprocess_batch(ds, rows, init, surr)
    assert batch.inputs.shape == (6, 4)
    assert batch.inputs[0, 0] == 0.0 and batch.inputs[2, 1] == 0.0
    # masked categorical cells hold the missing-token index C_d = 3
    assert batch.inputs[1, 3] == 3 and batch.inputs[3, 3] == 3
    # the model's input MLP sees each categorical cell's embedding row
    seen = []
    mlp = params.mlp_fp
    params.mlp_fp = lambda x, training: seen.append(x.data) or mlp(x, training)
    model.encode(batch, params, "eval")
    x = seen[0]
    assert x.shape == (6, 3 + 4)
    assert x[0, 0] == 0.0 and x[2, 1] == 0.0
    table = params.embeddings[0].data
    assert np.array_equal(x[1, 3:], table[3])
    assert np.array_equal(x[3, 3:], table[3])
    visible_cat = int(ds.values[4, 3])
    assert np.array_equal(x[4, 3:], table[visible_cat])
    # truth arrays mark initially-missing cells as unknown
    assert np.isnan(batch.truth_numeric[0, 0])
    assert batch.truth_categorical[1, 0] == -1
    assert batch.truth_categorical[3, 0] == int(ds.values[3, 3])


def test_preprocess_batch_locality(small_mixed_dataset):
    """Changing a cell in one row must not change any other row's input."""
    ds = small_mixed_dataset
    rows = np.arange(8)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    surr = np.ones((8, 4), dtype=np.int8)
    base = missingness.preprocess_batch(ds, rows, init, surr).inputs
    ds2 = dataio.TabularDataset(ds.schema, ds.values.copy(), ds.targets,
                                ds.num_classes, ds.target_categories)
    ds2.values[5, 1] += 10.0
    changed = missingness.preprocess_batch(ds2, rows, init, surr).inputs
    diff_rows = np.where(np.any(base != changed, axis=1))[0]
    assert diff_rows.tolist() == [5]


def test_preprocess_batch_shape_validation(small_mixed_dataset):
    ds = small_mixed_dataset
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    bad_surr = np.ones((3, 4), dtype=np.int8)
    with pytest.raises(ValueError):
        missingness.preprocess_batch(ds, np.arange(6), init, bad_surr)


def test_preprocess_batch_rejects_batch_shaped_mask(small_mixed_dataset):
    """The initial mask covers the whole table and is indexed by ``rows``;
    a mask cut to the batch is refused with both shapes named."""
    ds = small_mixed_dataset
    batch_mask = np.ones((6, 4), dtype=np.int8)
    with pytest.raises(ValueError, match=r"\(6, 4\).*\(24, 4\)"):
        missingness.preprocess_batch(ds, np.arange(6), batch_mask, batch_mask.copy())


def test_mask_save_load_round_trip(tmp_path):
    ds = big_numeric_dataset(n=40, d=5)
    mask = missingness.corrupt_mcar(ds, 0.25, seed=8)
    path = tmp_path / "mask.csv"
    missingness.save_mask(mask, "mcar", 0.25, path)
    assert path.read_text().startswith("# mechanism=mcar rate=0.25\n")
    loaded = missingness.load_mask(path)
    assert loaded.dtype == np.int8
    assert np.array_equal(loaded, mask)


@pytest.mark.parametrize("n, d", [(1, 5), (5, 1), (1, 1)])
def test_mask_of_one_row_or_one_column_keeps_its_shape(tmp_path, n, d):
    mask = missingness.corrupt_mcar(big_numeric_dataset(n=n, d=d), 0.5, seed=1)
    missingness.save_mask(mask, "mcar", 0.5, tmp_path / "mask.csv")
    assert np.array_equal(missingness.load_mask(tmp_path / "mask.csv"), mask)
