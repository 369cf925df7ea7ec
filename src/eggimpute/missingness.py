"""Corruption simulators and mini-batch preprocessing.

Masks are N x d int8 matrices, 1 = observed.  The initial mask simulates
dataset-level corruption (MCAR / MAR / MNAR); the surrogate mask removes
a further share of *observed* batch cells to create reconstruction
targets, while initially-missing cells are always marked observed in it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import dataio


@dataclass
class MiniBatch:
    inputs: np.ndarray  # n x d: visible cells, 0 for a masked numeric cell, C_d for a categorical
    surrogate_mask: np.ndarray  # n x d, 1 = observed
    truth_numeric: np.ndarray  # n x d_n z-scored ground truth (NaN where unknown)
    truth_categorical: np.ndarray  # n x d_c class indices (-1 where unknown)
    labels: np.ndarray
    numeric_cols: list  # dataset column indices of the numeric block
    categorical_cols: list
    schema: list  # the table's ColumnSchema per column


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _calibrate_intercept(scores, rate):
    """Bisection on b in [-60, 60] so that mean(sigmoid(scores + b)) == rate."""
    lo, hi = -60.0, 60.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if _sigmoid(scores + mid).mean() > rate:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _standardized(values):
    """Each column z-scored over its present cells; a blank cell scores 0, the mean."""
    blank = np.isnan(values)
    values = np.where(blank.all(axis=0), 0.0, values)  # a column without a present cell
    mean = np.nanmean(values, axis=0, keepdims=True)
    std = np.nanstd(values, axis=0, keepdims=True)
    std[std < 1e-12] = 1.0
    return np.where(blank, 0.0, (values - mean) / std)


def corrupt_mcar(ds, rate, seed) -> np.ndarray:
    all_observed = np.ones((ds.n_rows, ds.n_cols), np.int8)
    return surrogate_mask(all_observed, rate, np.random.default_rng(seed))


def _logistic_bits(scores, rate, rng):
    """Bits of ``scores``' shape, 0 (missing) with probability sigmoid(score + b),
    the intercept b calibrated so the mean probability is ``rate``; all 1 at rate 0."""
    if rate == 0:
        return np.ones(scores.shape, dtype=np.int8)
    b = _calibrate_intercept(scores.ravel(), rate)
    return (rng.random(scores.shape) >= _sigmoid(scores + b)).astype(np.int8)


def mar_observed(n_cols, rate):
    """How many of ``n_cols`` columns MAR keeps observed (30%, at least one); a
    ValueError when the table is too narrow or the rest cannot reach ``rate``."""
    if n_cols < 2:
        raise ValueError("MAR needs at least 2 columns")
    n_obs = max(1, int(round(0.3 * n_cols)))
    if rate * n_cols / (n_cols - n_obs) >= 1.0:
        raise ValueError(f"rate {rate} unreachable with {n_cols - n_obs} corruptible columns")
    return n_obs


def corrupt_mar(ds, rate, seed) -> np.ndarray:
    """A fixed 30% column subset stays observed; missingness of the rest
    follows a logistic model on that subset, intercept calibrated so the
    overall missing fraction hits ``rate``."""
    n_obs = mar_observed(ds.n_cols, rate)
    rng = np.random.default_rng(seed)
    obs_cols = np.sort(rng.choice(ds.n_cols, size=n_obs, replace=False))
    rest = np.setdiff1d(np.arange(ds.n_cols), obs_cols)
    scores = _standardized(ds.values[:, obs_cols]) @ rng.normal(size=n_obs)
    # overall rate counts fully-observed columns too
    target = rate * ds.n_cols / rest.size
    bits = np.ones((ds.n_rows, ds.n_cols), dtype=np.int8)
    bits[:, rest] = _logistic_bits(np.repeat(scores[:, None], rest.size, axis=1), target, rng)
    return bits


def corrupt_mnar(ds, rate, seed) -> np.ndarray:
    """Self-masking: each cell goes missing with a logistic probability of
    its own standardized value, intercept calibrated to ``rate``."""
    return _logistic_bits(_standardized(ds.values), rate, np.random.default_rng(seed))


MECHANISMS = {"mcar": corrupt_mcar, "mar": corrupt_mar, "mnar": corrupt_mnar}


def corrupt(ds, mechanism, rate, seed) -> np.ndarray:
    """The N x d int8 corruption mask of ``mechanism`` at ``rate``, 1 = observed."""
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if not dataio.is_real(rate) or not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate!r}")
    return MECHANISMS[mechanism](ds, rate, seed)


def surrogate_mask(initial_mask_slice, rate, rng) -> np.ndarray:
    """MCAR mask over initially-observed cells; initially-missing cells
    count as observed (they carry no reconstruction target)."""
    if not 0 <= rate < 1:
        raise ValueError("surrogate rate must be in [0, 1)")
    draws = rng.random(initial_mask_slice.shape)
    return ((draws >= rate) | (initial_mask_slice != 1)).astype(np.int8)


def batches(order, batch_size):
    """``order`` cut into consecutive runs of ``batch_size`` rows, the last one shorter."""
    return [order[start:start + batch_size] for start in range(0, len(order), batch_size)]


def preprocess_batch(ds, rows, initial_mask, surr_mask) -> MiniBatch:
    """The model inputs and reconstruction targets of a batch of rows.

    A cell that is masked (surrogate or initially missing) becomes 0, the
    z-scored mean, in a numeric column, and the auxiliary missing-token
    index C_d in a categorical one.
    """
    if initial_mask.shape != ds.values.shape:
        raise ValueError(f"initial mask has shape {initial_mask.shape}, "
                         f"but the table has shape {ds.values.shape}")
    rows = np.asarray(rows)
    values = ds.values[rows]
    init = initial_mask[rows]
    if surr_mask.shape != init.shape:
        raise ValueError("surrogate mask shape must match the batch")
    visible = (init == 1) & (surr_mask == 1)
    # a numeric column's cardinality is 0
    inputs = np.where(visible, np.nan_to_num(values), [col.cardinality for col in ds.schema])

    num_idx = ds.numeric_idx
    cat_idx = ds.categorical_idx
    truth_num = np.where(init[:, num_idx] == 1, values[:, num_idx], np.nan)
    truth_cat = np.where(init[:, cat_idx] == 1,
                         np.nan_to_num(values[:, cat_idx]), -1).astype(np.int64)
    return MiniBatch(inputs, surr_mask, truth_num, truth_cat, ds.targets[rows],
                     num_idx, cat_idx, ds.schema)


def save_mask(bits, mechanism, rate, path):
    """Write ``bits`` as CSV under a comment naming the mechanism and rate that drew them."""
    header = f"mechanism={mechanism} rate={rate}"  # np.savetxt adds the "# "
    np.savetxt(path, bits, fmt="%d", delimiter=",", header=header)


def load_mask(path) -> np.ndarray:
    """The N x d bits of a mask written by ``save_mask``; its header is a comment.
    A ValueError names the first cell, by 0-based row and column, that is not 0 or 1."""
    with warnings.catch_warnings():  # an empty file fails on its shape, not with a warning
        warnings.simplefilter("ignore", UserWarning)
        bits = np.loadtxt(path, dtype=np.int8, delimiter=",", comments="#", ndmin=2)
    bad = np.argwhere((bits != 0) & (bits != 1))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path} holds {bits[row, col]} at row {row}, column {col}, but a "
                         "mask cell is 0 (missing) or 1 (observed)")
    return bits
