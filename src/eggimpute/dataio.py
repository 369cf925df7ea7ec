"""Loading, validation, normalization and splitting of mixed-type tables.

A dataset is a dense N x d value matrix: numeric columns hold floats,
categorical columns hold dense class indices assigned in first-appearance
order.  A JSON sidecar describes column kinds and the target column.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

NUMERICAL = "numerical"
CATEGORICAL = "categorical"


@dataclass
class ColumnSchema:
    name: str
    kind: str
    cardinality: int = 0
    categories: list = field(default_factory=list)

    def __post_init__(self):
        if self.kind not in (NUMERICAL, CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r} for {self.name!r}")


@dataclass
class TabularDataset:
    schema: list  # list[ColumnSchema], feature columns only
    values: np.ndarray  # N x d float matrix (categoricals as indices)
    targets: np.ndarray  # N integer class labels
    num_classes: int
    target_categories: list = field(default_factory=list)

    def __post_init__(self):
        if self.values.ndim != 2 or self.values.shape[0] == 0:
            raise ValueError("dataset needs at least one row")
        if len(self.targets) != self.values.shape[0]:
            raise ValueError("targets length must equal row count")
        for j, col in enumerate(self.schema):
            if col.kind == CATEGORICAL:
                cells = self.values[:, j]
                finite = cells[np.isfinite(cells)]
                if finite.size and finite.max() >= col.cardinality:
                    raise ValueError(f"category index out of range in column {col.name!r}")

    @property
    def n_rows(self):
        return self.values.shape[0]

    @property
    def n_cols(self):
        return self.values.shape[1]

    @property
    def numeric_idx(self):
        return [j for j, c in enumerate(self.schema) if c.kind == NUMERICAL]

    @property
    def categorical_idx(self):
        return [j for j, c in enumerate(self.schema) if c.kind == CATEGORICAL]

    def subset(self, rows):
        rows = np.asarray(rows)
        return TabularDataset(self.schema, self.values[rows].copy(), self.targets[rows].copy(),
                              self.num_classes, self.target_categories)


@dataclass
class ColumnStats:
    """Per-column statistics for z-scoring and mean/mode filling."""
    means: dict  # column index -> mean of observed entries
    sigmas: dict  # column index -> std (denominator N), clamped to >= 1e-12
    modes: dict  # categorical column index -> modal class


def load_schema(path):
    with open(path) as fh:
        raw = json.load(fh)
    cols = [ColumnSchema(c["name"], c["kind"]) for c in raw["columns"]]
    return cols, raw["target"]


def load_csv(path, schema_path):
    """Read a CSV (UTF-8, header row, empty cell = missing) into a dataset.

    Returns ``(dataset, initial_mask)`` where the mask marks cells that
    were present in the file (1 = observed).
    """
    columns, target_name = load_schema(schema_path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    names = [c.name for c in columns]
    expected = names + [target_name] if target_name not in names else names
    if header != expected:
        raise ValueError(f"header {header} does not match schema columns {expected}")
    feature_cols = [c for c in columns if c.name != target_name]
    target_pos = header.index(target_name)
    feature_pos = [header.index(c.name) for c in feature_cols]

    n, d = len(rows), len(feature_cols)
    values = np.zeros((n, d))
    mask = np.ones((n, d), dtype=np.int8)
    cat_maps = {j: {} for j, c in enumerate(feature_cols) if c.kind == CATEGORICAL}
    target_map = {}
    targets = np.zeros(n, dtype=np.int64)

    for i, row in enumerate(rows):
        for j, pos in enumerate(feature_pos):
            cell = row[pos].strip()
            if cell == "":
                mask[i, j] = 0
                values[i, j] = np.nan
                continue
            col = feature_cols[j]
            if col.kind == NUMERICAL:
                try:
                    values[i, j] = float(cell)
                except ValueError:
                    raise ValueError(f"unparseable numeric cell at row {i + 2}, column {col.name!r}: {cell!r}")
            else:
                values[i, j] = cat_maps[j].setdefault(cell, len(cat_maps[j]))
        tcell = row[target_pos].strip()
        if tcell == "":
            raise ValueError(f"missing target at row {i + 2}")
        targets[i] = target_map.setdefault(tcell, len(target_map))

    for j, col in enumerate(feature_cols):
        if col.kind == CATEGORICAL:
            labels = sorted(cat_maps[j], key=cat_maps[j].get)
            col.categories = labels
            col.cardinality = max(len(labels), 2)

    ds = TabularDataset(feature_cols, values, targets, max(len(target_map), 1),
                        sorted(target_map, key=target_map.get))
    return ds, mask


def compute_stats(ds: TabularDataset, mask=None) -> ColumnStats:
    """Observed-cell means/stds for numerics and modal classes for
    categoricals.  ``mask`` restricts to observed entries (1 = observed)."""
    if mask is None:
        mask = np.isfinite(ds.values).astype(np.int8)
    else:
        mask = mask * np.isfinite(ds.values)
    means, sigmas, modes = {}, {}, {}
    for j, col in enumerate(ds.schema):
        obs = ds.values[mask[:, j] == 1, j]
        if col.kind == NUMERICAL:
            if obs.size == 0:
                means[j], sigmas[j] = 0.0, 1.0
                warnings.warn(f"column {col.name!r} has no observed values; using 0/1 stats")
                continue
            means[j] = float(obs.mean())
            sigma = float(obs.std())  # denominator N
            sigmas[j] = sigma if sigma > 1e-12 else 1.0
        else:
            if obs.size == 0:
                modes[j] = 0
                warnings.warn(f"column {col.name!r} has no observed values; modal class 0")
                continue
            counts = np.bincount(obs.astype(np.int64), minlength=col.cardinality)
            modes[j] = int(counts.argmax())
    return ColumnStats(means, sigmas, modes)


def normalize(ds: TabularDataset, stats: ColumnStats) -> TabularDataset:
    """Z-score numeric columns with the supplied statistics."""
    values = ds.values.copy()
    for j in ds.numeric_idx:
        values[:, j] = (values[:, j] - stats.means[j]) / stats.sigmas[j]
    return TabularDataset(ds.schema, values, ds.targets.copy(), ds.num_classes, ds.target_categories)


def denormalize_column(z_values, col_idx, stats: ColumnStats):
    return z_values * stats.sigmas[col_idx] + stats.means[col_idx]


def split(ds: TabularDataset, train_fraction: float, seed: int):
    """Seeded, class-stratified partition into (train_rows, val_rows)."""
    if type(train_fraction) not in (int, float) or not 0 < train_fraction < 1:  # not a bool
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    rng = np.random.default_rng(seed)
    counts = np.bincount(ds.targets, minlength=ds.num_classes)
    if counts[counts > 0].min() < 2:
        warnings.warn("a class has fewer than 2 members; falling back to unstratified split")
        order = rng.permutation(ds.n_rows)
        cut = int(round(ds.n_rows * train_fraction))
        cut = min(max(cut, 1), ds.n_rows - 1)
        return np.sort(order[:cut]), np.sort(order[cut:])
    train_rows, val_rows = [], []
    for cls in range(ds.num_classes):
        members = np.flatnonzero(ds.targets == cls)
        if members.size == 0:
            continue
        perm = rng.permutation(members)
        cut = int(round(members.size * train_fraction))
        cut = min(max(cut, 1), members.size - 1)
        train_rows.extend(perm[:cut])
        val_rows.extend(perm[cut:])
    return np.sort(np.asarray(train_rows)), np.sort(np.asarray(val_rows))


def make_two_cluster(n=600, d=6, seed=0, separation=3.0):
    """Synthetic numeric 2-cluster dataset with correlated features.

    Rows in the same cluster share a mean, so observed coordinates are
    informative about missing ones; the target is the cluster label.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.stack([np.full(d, -separation / 2), np.full(d, separation / 2)])
    shared = rng.normal(size=(n, 1))  # within-cluster correlation
    values = centers[labels] + 0.8 * shared + 0.6 * rng.normal(size=(n, d))
    schema = [ColumnSchema(f"f{j}", NUMERICAL) for j in range(d)]
    return TabularDataset(schema, values, labels.astype(np.int64), 2, ["c0", "c1"])


def write_csv(ds: TabularDataset, mask, path, schema_path=None):
    """Export a dataset (optionally with missing cells blanked) to CSV, its
    label in a last column named ``target``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema] + ["target"])
        for i in range(ds.n_rows):
            row = []
            for j, col in enumerate(ds.schema):
                if mask is not None and mask[i, j] == 0:
                    row.append("")
                elif col.kind == NUMERICAL:
                    row.append(repr(float(ds.values[i, j])))
                else:
                    idx = int(ds.values[i, j])
                    row.append(col.categories[idx] if col.categories else str(idx))
            label = int(ds.targets[i])
            row.append(ds.target_categories[label] if ds.target_categories else str(label))
            writer.writerow(row)
    if schema_path is not None:
        payload = {"columns": [{"name": c.name, "kind": c.kind} for c in ds.schema],
                   "target": "target"}
        with open(schema_path, "w") as fh:
            json.dump(payload, fh, indent=2)
