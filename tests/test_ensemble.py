import contextlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import impute_once, mixed_dataset
from eggimpute import dataio, ensemble, missingness, model, objectives, training
from eggimpute import tensor as T


def setup_model(n=40, seed=0, prototypes=2):
    ds = dataio.make_two_cluster(n=n, d=4, seed=seed)
    stats = dataio.compute_stats(ds)
    ds = dataio.normalize(ds, stats)
    mask = missingness.corrupt_mcar(ds, 0.25, seed=seed)
    cfg = model.ModelConfig(hidden=10, prototypes=prototypes, embed_width=4)
    params = model.ParameterSet(cfg, ds.schema, num_classes=2, seed=seed)
    return ds, mask, params


def predictions_per_row(ds, mask, params, n_passes, batch_size):
    """How many batch passes each row took part in, and how many batch passes ran."""
    counts = np.zeros(ds.n_rows, dtype=np.int64)
    calls = []
    original = model.Encoding.take

    def counting(encoding, positions):
        assert encoding.n == ds.n_rows  # one encoded row per table row
        counts[positions] += 1  # a batch holds each row once
        calls.append(len(positions))
        return original(encoding, positions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model.Encoding, "take", counting)
        ensemble.ensemble_impute(ds, mask, params, n_passes=n_passes, seed=0,
                                 batch_size=batch_size)
    assert calls
    return counts, len(calls)


def test_every_row_gets_exactly_e_predictions():
    ds, mask, params = setup_model()
    for e in (1, 3, 5):
        counts, _ = predictions_per_row(ds, mask, params, e, batch_size=16)
        assert np.all(counts == e)


def test_observed_cells_are_untouched():
    ds, mask, params = setup_model()
    result = ensemble.ensemble_impute(ds, mask, params, n_passes=3,
                                      seed=0, batch_size=16)
    observed = mask == 1
    assert np.array_equal(result[observed], ds.values[observed])


def test_missing_cells_are_filled():
    ds, mask, params = setup_model()
    result = ensemble.ensemble_impute(ds, mask, params, n_passes=2,
                                      seed=0, batch_size=16)
    assert np.isfinite(result).all()
    # the model output should differ from the raw (zero-filled) values
    missing = mask == 0
    assert missing.any()
    assert not np.allclose(result[missing], 0.0)


def test_ensemble_deterministic_given_seed():
    ds, mask, params = setup_model()
    a = ensemble.ensemble_impute(ds, mask, params, n_passes=3, seed=11,
                                 batch_size=16)
    b = ensemble.ensemble_impute(ds, mask, params, n_passes=3, seed=11,
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
    result = ensemble.ensemble_impute(ds, mask, params, n_passes=3,
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
        ensemble.ensemble_impute(ds, mask, params, n_passes=0, seed=0,
                                 batch_size=8)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_rejects_a_batch_size_below_one(batch_size):
    """A batch size below 1 is refused before any work."""
    ds, mask, params = setup_model(n=8)
    with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
        ensemble.ensemble_impute(ds, mask, params, n_passes=1, seed=0, batch_size=batch_size)


def propagated(run):
    """Each (encoding, output) that ``model.propagate`` saw while ``run()`` ran."""
    seen = []
    original = model.propagate

    def keeping(enc, *rest):
        seen.append((enc, original(enc, *rest)))
        return seen[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(model, "propagate", keeping)
        run()
    assert seen
    return seen


def test_ensemble_impute_records_no_tape():
    ds, mask, params = setup_model()
    assert all(p.requires_grad for p in params.named_parameters().values())
    seen = propagated(lambda: ensemble.ensemble_impute(ds, mask, params, n_passes=2,
                                                        seed=0, batch_size=16))
    for enc, out in seen:
        assert enc.h._node is None and enc.projection._node is None
        assert out.numeric_pred._node is None and out.task_logits._node is None
        assert not out.numeric_pred.requires_grad


def taped_validation_loss(ds, initial_mask, val_surrogate, params, config, rng):
    """``training.validation_loss`` as written before it dropped the tape."""
    losses, counts = [], []
    for start in range(0, ds.n_rows, config.batch_size):
        rows = np.arange(start, min(start + config.batch_size, ds.n_rows))
        parts = training._batch_loss(ds, rows, initial_mask, val_surrogate[rows], params,
                                     config.tau_end, "eval", rng, config.weights)
        total = objectives.total_loss(parts, config.weights)
        assert total._node.parents
        losses.append(total.item())
        counts.append(len(rows))
    return float(np.average(losses, weights=counts))


@settings(max_examples=25)
@given(sampler=st.sampled_from(["egg", "kegg", "identity"]), blocks=st.integers(1, 2),
       prototypes=st.integers(0, 3), k=st.integers(1, 4), batch_size=st.integers(3, 24),
       triplet=st.sampled_from([0.0, 0.1]), seed=st.integers(0, 2**16))
def test_tape_free_evaluation_is_bit_equal_to_the_taped_oracles(sampler, blocks, prototypes,
                                                               k, batch_size, triplet, seed):
    """24 rows with a categorical column; most batch sizes leave a short tail batch."""
    ds = mixed_dataset()
    mask = missingness.corrupt_mcar(ds, 0.25, seed=seed)
    cfg = model.ModelConfig(hidden=6, blocks=blocks, prototypes=prototypes, embed_width=3,
                            sampler=sampler, k=k)
    params = model.ParameterSet(cfg, ds.schema, ds.num_classes, seed=seed)
    fast = ensemble.ensemble_impute(ds, mask, params, 2, seed, batch_size)
    taped = []

    def run_taped():
        with pytest.MonkeyPatch.context() as mp:
            # the ensemble as it ran before it dropped the tape
            mp.setattr(T, "no_tape", contextlib.nullcontext)
            taped.append(ensemble.ensemble_impute(ds, mask, params, 2, seed, batch_size))

    for enc, out in propagated(run_taped):
        assert enc.h._node.parents and out.numeric_pred._node.parents  # the oracle records a tape
    assert np.array_equal(fast, taped[0])

    config = training.TrainConfig(batch_size=batch_size, model=cfg,
                                  weights=objectives.LossWeights(triplet=triplet))
    surr = missingness.surrogate_mask(mask, 0.2, np.random.default_rng(seed))
    args = (ds, mask, surr, params, config)
    assert training.validation_loss(*args, np.random.default_rng(seed)) == \
        taped_validation_loss(*args, np.random.default_rng(seed))


def per_batch_forward_ensemble(ds, initial_mask, params, n_passes, seed, batch_size):
    """``ensemble.ensemble_impute`` as written before it kept each row's
    encoding: one full forward (``impute_once``) per batch of each pass."""
    rng = np.random.default_rng(seed)
    n = ds.n_rows
    num_idx, cat_idx = ds.numeric_idx, ds.categorical_idx
    num_sum = np.zeros((n, len(num_idx)))
    cat_sum = [np.zeros((n, ds.schema[j].cardinality)) for j in cat_idx]
    for _ in range(n_passes):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            rows = order[start:start + batch_size]
            out = impute_once(ds, rows, initial_mask, params, rng)
            num_sum[rows] += out.numeric_pred.data[:, :len(num_idx)]
            for c, logits in enumerate(out.cat_logits):
                e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
                cat_sum[c][rows] += e / e.sum(axis=1, keepdims=True)
    imputed = ds.values.copy()
    for pos, j in enumerate(num_idx):
        missing = initial_mask[:, j] == 0
        imputed[missing, j] = num_sum[missing, pos] / n_passes
    for pos, j in enumerate(cat_idx):
        missing = initial_mask[:, j] == 0
        imputed[missing, j] = (cat_sum[pos][missing] / n_passes).argmax(axis=1)
    return imputed


@settings(max_examples=30)
@given(sampler=st.sampled_from(["egg", "kegg", "identity"]), blocks=st.integers(1, 2),
       prototypes=st.integers(0, 3), k=st.integers(1, 6), batch_size=st.integers(1, 40),
       n_passes=st.integers(1, 3), seed=st.integers(0, 2**16))
@example(sampler="kegg", blocks=2, prototypes=1, k=5, batch_size=11, n_passes=2, seed=3)
@example(sampler="kegg", blocks=1, prototypes=0, k=2, batch_size=23, n_passes=2, seed=4)
@example(sampler="egg", blocks=2, prototypes=3, k=1, batch_size=24, n_passes=1, seed=5)
@example(sampler="kegg", blocks=2, prototypes=2, k=3, batch_size=40, n_passes=1, seed=6)
@example(sampler="identity", blocks=2, prototypes=3, k=1, batch_size=30, n_passes=1, seed=7)
def test_kept_encodings_match_the_per_batch_forward_ensemble(sampler, blocks, prototypes, k,
                                                             batch_size, n_passes, seed):
    """24 rows with a categorical column.  The examples pin kegg tail batches of
    m <= k nodes (11 leaves 2 rows plus 1 prototype, 23 leaves 1 row) and one
    pass of one batch, which must be bit-equal."""
    ds = mixed_dataset()
    mask = missingness.corrupt_mcar(ds, 0.25, seed=seed)
    cfg = model.ModelConfig(hidden=6, blocks=blocks, prototypes=prototypes, embed_width=3,
                            sampler=sampler, k=k)
    params = model.ParameterSet(cfg, ds.schema, ds.num_classes, seed=seed)
    kept = ensemble.ensemble_impute(ds, mask, params, n_passes, seed, batch_size)
    oracle = per_batch_forward_ensemble(ds, mask, params, n_passes, seed, batch_size)
    assert np.array_equal(kept[:, ds.categorical_idx], oracle[:, ds.categorical_idx])
    assert np.max(np.abs(kept - oracle)) <= 1e-12
    if n_passes == 1 and batch_size >= ds.n_rows:
        assert np.array_equal(kept, oracle)
