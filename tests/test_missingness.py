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
    assert 0.18 <= mask.missing_fraction <= 0.22


def test_mcar_zero_rate_keeps_everything():
    ds = big_numeric_dataset(n=50)
    mask = missingness.corrupt_mcar(ds, 0.0, seed=0)
    assert mask.bits.all()


def test_mcar_deterministic():
    ds = big_numeric_dataset(n=100)
    a = missingness.corrupt_mcar(ds, 0.3, seed=9).bits
    b = missingness.corrupt_mcar(ds, 0.3, seed=9).bits
    assert np.array_equal(a, b)


def test_mcar_independent_of_values():
    """Missing frequency should not correlate with cell magnitude."""
    ds = big_numeric_dataset(n=4000, d=4)
    mask = missingness.corrupt_mcar(ds, 0.2, seed=1)
    high = ds.values > np.median(ds.values)
    rate_high = 1.0 - mask.bits[high].mean()
    rate_low = 1.0 - mask.bits[~high].mean()
    assert abs(rate_high - rate_low) < 0.02


def test_mar_observed_subset_is_complete():
    ds = big_numeric_dataset(n=800, d=10)
    mask = missingness.corrupt_mar(ds, 0.2, seed=3)
    complete_cols = [j for j in range(10) if mask.bits[:, j].all()]
    assert len(complete_cols) == 3  # 30% of 10 columns stay observed


def test_mar_overall_rate_calibrated():
    ds = big_numeric_dataset(n=3000, d=10)
    mask = missingness.corrupt_mar(ds, 0.2, seed=5)
    assert abs(mask.missing_fraction - 0.2) < 0.02


def test_mar_missingness_monotone_in_score():
    """Rows with higher logistic scores must lose more cells.

    Oracle: sort rows by their per-row missing count and check the count
    correlates with the observed-subset-driven probability ordering by
    splitting rows into missing-heavy and missing-light halves.
    """
    ds = big_numeric_dataset(n=4000, d=10, seed=11)
    mask = missingness.corrupt_mar(ds, 0.25, seed=11)
    complete = np.array([mask.bits[:, j].all() for j in range(10)])
    rest = ~complete
    per_row = (mask.bits[:, rest] == 0).mean(axis=1)
    heavy = per_row > np.median(per_row)
    # heavy rows and light rows should differ in their per-row missing rate;
    # under MCAR the two groups would be statistically indistinguishable, so a
    # large spread evidences the dependence on observed covariates
    assert per_row[heavy].mean() - per_row[~heavy].mean() > 0.1


def test_mnar_rate_calibrated_within_two_percent():
    ds = big_numeric_dataset(n=4000, d=6, seed=2)
    mask = missingness.corrupt_mnar(ds, 0.2, seed=2)
    assert abs(mask.missing_fraction - 0.2) < 0.02


def test_mnar_higher_values_go_missing_more_often():
    ds = big_numeric_dataset(n=4000, d=6, seed=4)
    mask = missingness.corrupt_mnar(ds, 0.3, seed=4)
    missing_vals = ds.values[mask.bits == 0]
    observed_vals = ds.values[mask.bits == 1]
    assert missing_vals.mean() > observed_vals.mean() + 0.2


def test_corrupt_dispatch_and_unknown_mechanism():
    ds = big_numeric_dataset(n=30)
    assert missingness.corrupt(ds, "mcar", 0.1, 0).mechanism == "mcar"
    with pytest.raises(ValueError):
        missingness.corrupt(ds, "bogus", 0.1, 0)


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.3])
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
    assert abs(mask.missing_fraction - rate) < 5 * std_err


def make_params(embed_width=4):
    cfg = model.ModelConfig(hidden=8, blocks=1, prototypes=2, embed_width=embed_width)
    return cfg


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
    batch = missingness.preprocess_batch(ds, rows, init, surr,
                                         params.embeddings, cfg.embed_width)
    x = batch.x.data
    assert x.shape == (6, 3 + 4)
    assert x[0, 0] == 0.0 and x[2, 1] == 0.0
    # masked categorical rows pick the missing-token embedding (index 3)
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
    cfg = model.ModelConfig(hidden=8, prototypes=2, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=0)
    rows = np.arange(8)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    surr = np.ones((8, 4), dtype=np.int8)
    base = missingness.preprocess_batch(ds, rows, init, surr,
                                        params.embeddings, cfg.embed_width).x.data
    ds2 = dataio.TabularDataset(ds.schema, ds.values.copy(), ds.targets,
                                ds.num_classes, ds.target_categories)
    ds2.values[5, 1] += 10.0
    changed = missingness.preprocess_batch(ds2, rows, init, surr,
                                           params.embeddings, cfg.embed_width).x.data
    diff_rows = np.where(np.any(base != changed, axis=1))[0]
    assert diff_rows.tolist() == [5]


def test_preprocess_batch_shape_validation(small_mixed_dataset):
    ds = small_mixed_dataset
    cfg = model.ModelConfig(hidden=8, prototypes=2, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=0)
    init = np.ones((ds.n_rows, 4), dtype=np.int8)
    bad_surr = np.ones((3, 4), dtype=np.int8)
    with pytest.raises(ValueError):
        missingness.preprocess_batch(ds, np.arange(6), init, bad_surr,
                                     params.embeddings, cfg.embed_width)


def test_preprocess_batch_rejects_batch_shaped_mask(small_mixed_dataset):
    """The initial mask covers the whole table and is indexed by ``rows``;
    a mask cut to the batch is refused with both shapes named."""
    ds = small_mixed_dataset
    cfg = model.ModelConfig(hidden=8, prototypes=2, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=0)
    batch_mask = np.ones((6, 4), dtype=np.int8)
    with pytest.raises(ValueError, match=r"\(6, 4\).*\(24, 4\)"):
        missingness.preprocess_batch(ds, np.arange(6), batch_mask, batch_mask.copy(),
                                     params.embeddings, cfg.embed_width)


def test_mask_save_load_round_trip(tmp_path):
    ds = big_numeric_dataset(n=40, d=5)
    mask = missingness.corrupt_mcar(ds, 0.25, seed=8)
    path = tmp_path / "mask.csv"
    missingness.save_mask(mask, path)
    loaded = missingness.load_mask(path)
    assert np.array_equal(loaded.bits, mask.bits)
    assert loaded.mechanism == "mcar"
    assert loaded.rate == 0.25
