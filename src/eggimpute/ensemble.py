"""Ensembled imputation.

Each pass shuffles the target rows, partitions them into batches and runs
one stochastic eval-mode pass of the batch graph per batch, so E passes
give every row exactly E predictions.  The row-wise encoder gives a row
the same output in any batch, so each call encodes every row and the
prototypes once; passes differ only in the batch partition and the
Gumbel noise of the sampled edges.  The whole call records no tape.
Numeric imputations average the head outputs; categorical imputations
take the argmax of averaged softmax probabilities.  Only
initially-missing cells are replaced.
"""

from __future__ import annotations

import numpy as np

from . import missingness, model
from . import tensor as T

# any tau > 0 gives these outputs: the hard graph is the logits' sign (egg) or rank (kegg)
TAU = 0.01


def ensemble_impute(ds, initial_mask, params, n_passes, seed, batch_size):
    """The N x d table with each initially-missing cell replaced by the
    average of ``n_passes`` stochastic predictions (z-scored scale)."""
    if n_passes < 1:
        raise ValueError("n_passes must be >= 1")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    rng = np.random.default_rng(seed)
    n = ds.n_rows
    num_idx = ds.numeric_idx
    cat_idx = ds.categorical_idx
    num_sum = np.zeros((n, len(num_idx)))
    cat_sum = [np.zeros((n, ds.schema[j].cardinality)) for j in cat_idx]

    with T.no_tape():
        for p in range(n_passes):
            order = rng.permutation(n)
            if p == 0:
                # BLAS rounds a row by its place in the product, so encoding in the
                # first pass's order keeps one pass of one batch equal to one forward
                surr = np.ones((n, ds.n_cols), dtype=np.int8)  # mask no observed cell
                batch = missingness.preprocess_batch(ds, order, initial_mask, surr)
                encoding = model.encode(batch, params, "eval")
                position = np.argsort(order)  # table row -> encoded row
            for rows in missingness.batches(order, batch_size):
                out = model.propagate(encoding.take(position[rows]), params, TAU, "eval", rng)
                num_sum[rows] += out.numeric_pred.data[:, :len(num_idx)]
                for c, logits in enumerate(out.cat_logits):
                    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
                    cat_sum[c][rows] += e / e.sum(axis=1, keepdims=True)

    prediction = np.empty_like(ds.values)
    prediction[:, num_idx] = num_sum / n_passes
    for pos, j in enumerate(cat_idx):
        prediction[:, j] = (cat_sum[pos] / n_passes).argmax(axis=1)
    return np.where(initial_mask == 0, prediction, ds.values)
