import numpy as np
import pytest

from eggimpute import dataio, ensemble, missingness, model


def setup_model(n=40, seed=0, prototypes=2):
    ds = dataio.make_two_cluster(n=n, d=4, seed=seed)
    stats = dataio.compute_stats(ds)
    ds = dataio.normalize(ds, stats)
    mask = missingness.corrupt_mcar(ds, 0.25, seed=seed)
    cfg = model.ModelConfig(hidden=10, prototypes=prototypes, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=seed)
    return ds, mask, params


def predictions_per_row(ds, mask, params, n_passes, batch_size):
    """How many forwards each row took part in, and how many forwards ran."""
    counts = np.zeros(ds.n_rows, dtype=np.int64)
    calls = []
    original = ensemble.impute_once

    def counting(ds_, rows, *rest):
        counts[rows] += 1  # a batch holds each row once
        calls.append(len(rows))
        return original(ds_, rows, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ensemble, "impute_once", counting)
        ensemble.ensemble_impute(ds, mask.bits, params, n_passes=n_passes, seed=0,
                                 batch_size=batch_size)
    return counts, len(calls)


def test_every_row_gets_exactly_e_predictions():
    ds, mask, params = setup_model()
    for e in (1, 3, 5):
        counts, _ = predictions_per_row(ds, mask, params, e, batch_size=16)
        assert np.all(counts == e)


def test_observed_cells_are_untouched():
    ds, mask, params = setup_model()
    result = ensemble.ensemble_impute(ds, mask.bits, params, n_passes=3,
                                      seed=0, batch_size=16)
    observed = mask.bits == 1
    assert np.array_equal(result[observed], ds.values[observed])


def test_missing_cells_are_filled():
    ds, mask, params = setup_model()
    result = ensemble.ensemble_impute(ds, mask.bits, params, n_passes=2,
                                      seed=0, batch_size=16)
    assert np.isfinite(result).all()
    # the model output should differ from the raw (zero-filled) values
    missing = mask.bits == 0
    assert missing.any()
    assert not np.allclose(result[missing], 0.0)


def test_ensemble_deterministic_given_seed():
    ds, mask, params = setup_model()
    a = ensemble.ensemble_impute(ds, mask.bits, params, n_passes=3, seed=11,
                                 batch_size=16)
    b = ensemble.ensemble_impute(ds, mask.bits, params, n_passes=3, seed=11,
                                 batch_size=16)
    assert np.array_equal(a, b)


def test_categorical_imputations_are_valid_classes():
    gen = np.random.default_rng(3)
    n = 30
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL),
              dataio.ColumnSchema("c", dataio.CATEGORICAL, cardinality=3)]
    values = np.zeros((n, 2))
    values[:, 0] = gen.normal(size=n)
    values[:, 1] = gen.integers(0, 3, size=n)
    ds = dataio.TabularDataset(schema, values, gen.integers(0, 2, n), 2)
    mask = missingness.corrupt_mcar(ds, 0.3, seed=1)
    cfg = model.ModelConfig(hidden=8, prototypes=2, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=0)
    result = ensemble.ensemble_impute(ds, mask.bits, params, n_passes=3,
                                      seed=0, batch_size=10)
    cat_col = result[:, 1]
    assert set(np.unique(cat_col)) <= {0.0, 1.0, 2.0}


def test_single_pass_matches_partition_semantics():
    """With E=1 and batch_size >= N there is exactly one forward pass."""
    ds, mask, params = setup_model(n=12)
    counts, forwards = predictions_per_row(ds, mask, params, 1, batch_size=300)
    assert forwards == 1
    assert np.all(counts == 1)


def test_rejects_zero_passes():
    ds, mask, params = setup_model(n=8)
    with pytest.raises(ValueError):
        ensemble.ensemble_impute(ds, mask.bits, params, n_passes=0, seed=0,
                                 batch_size=8)
