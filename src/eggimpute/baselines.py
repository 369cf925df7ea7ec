"""Mean / most-frequent and KNN imputers used as comparison points."""

from __future__ import annotations

import warnings

import numpy as np

from .dataio import ColumnStats


def _fill_value(col, j, stats: ColumnStats):
    """The column mean for a numerical column, else its modal class."""
    return stats.means.get(j, 0.0) if col.kind == "numerical" else stats.modes.get(j, 0)


def mean_impute(ds, mask, stats: ColumnStats):
    """Missing numerics get the column mean, categoricals the modal class
    (pass training-split stats to avoid leakage)."""
    imputed = ds.values.copy()
    for j, col in enumerate(ds.schema):
        imputed[mask[:, j] == 0, j] = _fill_value(col, j, stats)
    return imputed


def knn_impute(ds, mask, k_nn, stats: ColumnStats):
    """Donor-based imputation.

    Distances use coordinates observed in both rows, scaled by d/overlap;
    ties break by row index.  Numeric cells take the donor mean,
    categorical cells the donor majority (ties to the smallest class).
    Columns with no observing donor fall back to the column mean/mode.
    """
    if k_nn < 1:
        raise ValueError("k_nn must be >= 1")
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
                imputed[i, j] = _fill_value(col, j, stats)
            elif col.kind == "numerical":
                imputed[i, j] = values[giving, j].mean()
            else:
                votes = np.bincount(values[giving, j].astype(np.int64),
                                    minlength=col.cardinality)
                imputed[i, j] = int(votes.argmax())  # argmax ties -> smallest class
    if not np.isfinite(imputed).all():
        warnings.warn("some cells could not be imputed; leaving NaN")
    return imputed
