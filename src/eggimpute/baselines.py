"""Mean / most-frequent and KNN imputers used as comparison points."""

from __future__ import annotations

import warnings

import numpy as np

from .dataio import ColumnStats


def mean_impute(ds, mask, stats: ColumnStats):
    """Missing numerics get the column mean, categoricals the modal class
    (pass training-split stats to avoid leakage)."""
    return np.where(mask == 0, stats.fill, ds.values)


# target rows x table rows x columns held at once while scoring donors
_CELLS = 1 << 18


def _candidates(observed, obs, targets, k_nn):
    """Yield ``(rows, keep)`` for each block of ``targets``, where
    ``keep[t, r]`` holds for every row ``r`` that can be among the
    ``k_nn`` nearest donors of ``rows[t]``.

    ``observed`` is the table with unobserved cells zeroed and ``obs`` its
    observed bits.  Over the shared columns the squared distance is
    ``sum x^2 + sum y^2 - 2 sum xy``, four matrix products per block.  With
    ``u = 2**-53`` and ``scale`` the sum of the terms' magnitudes, this
    form lies within ``(2d + 3) u scale`` of the exact value and the
    per-element sum in ``knn_impute`` within ``(d + 2) u scale`` (Higham
    2002, section 3.1), so ``bound``, ``8 (d + 4) u scale`` plus a term for
    underflow, brackets that sum.  Rounding is monotonic, so scaled by
    ``d / shared`` in that sum's order the bounds bracket its distance,
    overflow to ``inf`` included.  A row whose lower bound exceeds the
    ``k_nn``-th smallest upper bound cannot be a donor.  A NaN bound (an
    overflowed square) compares false and keeps its row, and an infinite
    cut keeps every row.
    """
    n, d = observed.shape
    ones = obs.astype(np.float64)
    squares = observed * observed
    magnitudes = np.abs(observed)
    # right-hand sides, transposed once for every block (scaling by 2 is exact)
    both_t = np.hstack([ones, squares]).T.copy()
    cross_t, magnitudes_t, ones_t = -2 * observed.T.copy(), 2 * magnitudes.T.copy(), ones.T.copy()
    slack = 8 * (d + 4)
    kth = min(k_nn, n) - 1
    step = max(1, _CELLS // (n * d))
    for start in range(0, targets.size, step):
        rows = targets[start:start + step]
        both = np.hstack([squares[rows], ones[rows]]) @ both_t
        approx = both + observed[rows] @ cross_t
        bound = (both + magnitudes[rows] @ magnitudes_t) * (slack * 2.0 ** -53) \
            + slack * 2.0 ** -1022
        shared = ones[rows] @ ones_t  # exact: sums of at most d ones
        shared[np.arange(rows.size), rows] = 0  # a row is not its own donor
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            upper = (approx + bound) * d / shared
            lower = (approx - bound) * d / shared
        cut = np.partition(upper, kth, axis=1)[:, kth]
        yield rows, (shared > 0) & ~(lower > cut[:, None])


def knn_impute(ds, mask, k_nn, stats: ColumnStats):
    """Donor-based imputation.

    Distances use coordinates observed in both rows, scaled by d/overlap;
    ties break by row index.  Numeric cells take the donor mean,
    categorical cells the donor majority (ties to the smallest class).
    Columns with no observing donor fall back to the column mean/mode.

    Rows are scored in blocks: ``_candidates`` narrows each target row to
    the few rows that can be its donors, and only those are scored by the
    per-element formula and ranked, so the result is the same, bit for
    bit, as scoring every row.
    """
    if k_nn < 1:
        raise ValueError("k_nn must be >= 1")
    values = np.nan_to_num(ds.values)
    obs = (mask == 1) & np.isfinite(ds.values)
    d = values.shape[1]
    observed = values * obs
    numeric = np.array([col.kind == "numerical" for col in ds.schema])
    imputed = ds.values.copy()
    for rows, keep in _candidates(observed, obs, np.flatnonzero(~obs.all(axis=1)), k_nn):
        hit, col = np.nonzero(keep)
        width = np.bincount(hit, minlength=rows.size)
        slot = np.arange(hit.size) - np.repeat(np.cumsum(width) - width, width)
        cand = np.zeros((rows.size, width.max()), dtype=np.int64)
        cand[hit, slot] = col  # each row's candidates first, in index order
        overlap = obs[cand] & obs[rows, None]
        sq = (np.where(overlap, observed[cand] - observed[rows, None], 0.0) ** 2).sum(axis=-1)
        dist = np.where(np.arange(cand.shape[1]) < width[:, None],
                        sq * d / np.maximum(overlap.sum(axis=-1), 1), np.inf)
        order = np.argsort(dist, axis=1, kind="stable")[:, :k_nn]  # distance, then row index
        donors = np.take_along_axis(cand, order, axis=1)
        found = np.isfinite(np.take_along_axis(dist, order, axis=1))
        # each missing cell of the block, with its donors that observe its column
        cell, j = np.nonzero(~obs[rows])
        giving = found[cell] & obs[donors[cell], j[:, None]]
        given = values[donors[cell], j[:, None]]
        size = giving.sum(axis=1)
        fills = stats.fill[j]
        for g in np.unique(size[numeric[j] & (size > 0)]):
            at = numeric[j] & (size == g)
            # the donor mean; equal-length rows reduce as ``mean`` reduces each one alone
            fills[at] = given[at][giving[at]].reshape(-1, g).mean(axis=1)
        voting = ~numeric[j] & (size > 0)
        if voting.any():
            codes = given[voting][giving[voting]].astype(np.int64)
            classes = int(codes.max()) + 1
            owner = np.repeat(np.arange(voting.sum()), size[voting])
            votes = np.bincount(owner * classes + codes, minlength=voting.sum() * classes)
            fills[voting] = votes.reshape(-1, classes).argmax(axis=1)  # ties -> smallest class
        imputed[rows[cell], j] = fills
    if not np.isfinite(imputed).all():
        warnings.warn("some cells could not be imputed; leaving NaN")
    return imputed
