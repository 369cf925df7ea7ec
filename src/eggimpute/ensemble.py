"""Ensembled imputation.

Each pass shuffles the target rows, partitions them into batches and runs
one stochastic forward per batch, so E passes give every row exactly E
predictions.  Numeric imputations average the head outputs; categorical
imputations take the argmax of averaged softmax probabilities.  Only
initially-missing cells are replaced.
"""

from __future__ import annotations

import numpy as np

from . import missingness, model


def impute_once(ds, rows, initial_mask, params, rng):
    """One stochastic eval-mode forward for a set of rows."""
    surr = np.ones((len(rows), ds.n_cols), dtype=np.int8)
    batch = missingness.preprocess_batch(ds, rows, initial_mask, surr,
                                         params.embeddings, params.config.embed_width)
    # any tau > 0 gives these outputs: the hard graph is the logits' sign (egg) or rank (kegg)
    return model.forward(batch, params, 0.01, "eval", rng)


def ensemble_impute(ds, initial_mask, params, n_passes, seed, batch_size):
    """The N x d table with each initially-missing cell replaced by the
    average of ``n_passes`` stochastic predictions (z-scored scale)."""
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    rng = np.random.default_rng(seed)
    n = ds.n_rows
    num_idx = ds.numeric_idx
    cat_idx = ds.categorical_idx
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
