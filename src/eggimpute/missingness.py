"""Corruption simulators and mini-batch preprocessing.

Masks are N x d int8 matrices, 1 = observed.  The initial mask simulates
dataset-level corruption (MCAR / MAR / MNAR); the surrogate mask removes
a further share of *observed* batch cells to create reconstruction
targets, while initially-missing cells are always marked observed in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T


@dataclass
class MaskMatrix:
    bits: np.ndarray  # N x d, 1 = observed
    mechanism: str
    rate: float

    @property
    def missing_fraction(self):
        return 1.0 - self.bits.mean()


@dataclass
class MiniBatch:
    x: "T.Tensor"  # n x (d_n + d_c * e) model input
    surrogate_mask: np.ndarray  # n x d, 1 = observed
    truth_numeric: np.ndarray  # n x d_n z-scored ground truth (NaN where unknown)
    truth_categorical: np.ndarray  # n x d_c class indices (-1 where unknown)
    labels: np.ndarray
    numeric_cols: list  # dataset column indices of the numeric block
    categorical_cols: list


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _calibrate_intercept(scores, rate, lo=-60.0, hi=60.0, iters=80):
    """Bisection on b so that mean(sigmoid(scores + b)) == rate."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if _sigmoid(scores + mid).mean() > rate:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _standardized(values):
    mean = values.mean(axis=0, keepdims=True)
    std = values.std(axis=0, keepdims=True)
    std[std < 1e-12] = 1.0
    return (values - mean) / std


def corrupt_mcar(ds, rate, seed) -> MaskMatrix:
    rng = np.random.default_rng(seed)
    bits = (rng.random((ds.n_rows, ds.n_cols)) >= rate).astype(np.int8)
    return MaskMatrix(bits, "mcar", rate)


def corrupt_mar(ds, rate, seed) -> MaskMatrix:
    """A fixed 30% column subset stays observed; missingness of the rest
    follows a logistic model on that subset, intercept calibrated so the
    overall missing fraction hits ``rate``."""
    if ds.n_cols < 2:
        raise ValueError("MAR needs at least 2 columns")
    if rate == 0:
        return MaskMatrix(np.ones((ds.n_rows, ds.n_cols), dtype=np.int8), "mar", rate)
    rng = np.random.default_rng(seed)
    n_obs = max(1, int(round(0.3 * ds.n_cols)))
    obs_cols = np.sort(rng.choice(ds.n_cols, size=n_obs, replace=False))
    rest = np.setdiff1d(np.arange(ds.n_cols), obs_cols)
    z = _standardized(ds.values[:, obs_cols])
    weights = rng.normal(size=n_obs)
    scores = z @ weights
    # overall rate counts fully-observed columns too
    target = rate * ds.n_cols / rest.size
    if target >= 1.0:
        raise ValueError(f"rate {rate} unreachable with {rest.size} corruptible columns")
    b = _calibrate_intercept(np.repeat(scores, rest.size), target)
    probs = _sigmoid(scores + b)
    bits = np.ones((ds.n_rows, ds.n_cols), dtype=np.int8)
    draws = rng.random((ds.n_rows, rest.size))
    bits[:, rest] = (draws >= probs[:, None]).astype(np.int8)
    return MaskMatrix(bits, "mar", rate)


def corrupt_mnar(ds, rate, seed) -> MaskMatrix:
    """Self-masking: each cell goes missing with a logistic probability of
    its own standardized value, intercept calibrated to ``rate``."""
    if rate == 0:
        return MaskMatrix(np.ones((ds.n_rows, ds.n_cols), dtype=np.int8), "mnar", rate)
    rng = np.random.default_rng(seed)
    z = _standardized(ds.values)
    b = _calibrate_intercept(z.ravel(), rate)
    probs = _sigmoid(z + b)
    bits = (rng.random(z.shape) >= probs).astype(np.int8)
    return MaskMatrix(bits, "mnar", rate)


MECHANISMS = {"mcar": corrupt_mcar, "mar": corrupt_mar, "mnar": corrupt_mnar}


def corrupt(ds, mechanism, rate, seed) -> MaskMatrix:
    if mechanism not in MECHANISMS:
        raise ValueError(f"unknown mechanism {mechanism!r}")
    if not 0 <= rate < 1:
        raise ValueError(f"rate must be in [0, 1), got {rate!r}")
    return MECHANISMS[mechanism](ds, rate, seed)


def surrogate_mask(initial_mask_slice, rate, rng) -> np.ndarray:
    """MCAR mask over initially-observed cells; initially-missing cells
    count as observed (they carry no reconstruction target)."""
    if not 0 <= rate < 1:
        raise ValueError("surrogate rate must be in [0, 1)")
    draws = rng.random(initial_mask_slice.shape)
    m = np.ones_like(initial_mask_slice, dtype=np.int8)
    m[(initial_mask_slice == 1) & (draws < rate)] = 0
    return m


def preprocess_batch(ds, rows, initial_mask, surr_mask, embeddings, embed_width) -> MiniBatch:
    """Build the model input for a batch of rows.

    Numeric cells that are masked (surrogate or initially missing) become
    0, the z-scored mean.  Masked categorical cells take the auxiliary
    missing-token index C_d before the embedding lookup.
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

    num_idx = ds.numeric_idx
    cat_idx = ds.categorical_idx
    parts = []
    if num_idx:
        num = np.where(visible[:, num_idx], np.nan_to_num(values[:, num_idx]), 0.0)
        parts.append(T.Tensor(num))
    for pos, j in enumerate(cat_idx):
        col = ds.schema[j]
        table = embeddings[pos]
        if table.shape != (col.cardinality + 1, embed_width):
            raise ValueError(f"embedding table for {col.name!r} has shape {table.shape}, "
                             f"expected {(col.cardinality + 1, embed_width)}")
        idx = np.where(visible[:, j], np.nan_to_num(values[:, j]), col.cardinality).astype(np.int64)
        parts.append(T.gather_rows(table, idx))
    x = T.concat_cols(parts) if len(parts) > 1 else parts[0]

    truth_num = values[:, num_idx] if num_idx else np.zeros((len(rows), 0))
    truth_num = np.where(init[:, num_idx] == 1, truth_num, np.nan) if num_idx else truth_num
    if cat_idx:
        truth_cat = np.where(init[:, cat_idx] == 1,
                             np.nan_to_num(values[:, cat_idx]), -1).astype(np.int64)
    else:
        truth_cat = np.zeros((len(rows), 0), dtype=np.int64)
    return MiniBatch(x, surr_mask, truth_num, truth_cat, ds.targets[rows],
                     num_idx, cat_idx)


def save_mask(mask: MaskMatrix, path):
    header = f"# mechanism={mask.mechanism} rate={mask.rate}"
    np.savetxt(path, mask.bits, fmt="%d", delimiter=",", header=header)


def load_mask(path) -> MaskMatrix:
    mechanism, rate = "unknown", 0.0
    with open(path) as fh:
        first = fh.readline()
    if first.startswith("#"):
        fields = dict(kv.split("=", 1) for kv in first.split() if "=" in kv)
        mechanism = fields.get("mechanism", "unknown")
        rate = float(fields.get("rate", 0.0))
    bits = np.loadtxt(path, dtype=np.int8, delimiter=",", comments="#")
    if bits.ndim == 1:
        bits = bits.reshape(1, -1)
    return MaskMatrix(bits, mechanism, rate)
