"""Loading, validation, normalization and splitting of mixed-type tables.

A dataset is a dense N x d value matrix: numeric columns hold floats,
categorical columns hold dense class indices assigned in first-appearance
order.  A JSON sidecar describes column kinds and the target column.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import warnings
from dataclasses import dataclass, field, replace

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
        if self.values.shape[1] == 0:
            raise ValueError("dataset needs at least one feature column besides the target")
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
        return replace(self, values=self.values[rows], targets=self.targets[rows])


@dataclass
class ColumnStats:
    """Per-column statistics for z-scoring and mean/mode filling, each a length-d array:
    ``fill`` holds a numeric column's observed mean or a categorical column's modal class, 0
    when nothing is observed; ``scale`` holds a numeric column's std (denominator N), 1 below
    1e-12, when nothing is observed or for a categorical column."""
    fill: np.ndarray
    scale: np.ndarray


def load_schema(path):
    """The feature columns, each name once, and the target name of a schema file."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"schema {path} must be an object with 'columns' and 'target'")
    try:
        columns, target = raw["columns"], raw["target"]
        if not (isinstance(columns, list) and all(isinstance(c, dict) for c in columns)
                and isinstance(target, str)):
            raise ValueError(f"schema {path} needs 'columns' a list of objects, 'target' a string")
        columns = [ColumnSchema(c["name"], c["kind"]) for c in columns]
    except KeyError as err:
        raise ValueError(f"schema {path} lacks the key {err}") from None
    for i, col in enumerate(columns):
        if col.name in [c.name for c in columns[:i]]:
            raise ValueError(f"schema {path} repeats the column name {col.name!r}")
    return columns, target


def _first_appearance(cells):
    """The distinct labels of ``cells`` in first-appearance order, and each cell's index."""
    index = {}
    codes = [index.setdefault(cell, len(index)) for cell in cells]
    return list(index), codes


def _number(cell, row, name):
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"unparseable numeric cell at row {row}, column {name!r}: {cell!r}")
    if not math.isfinite(value):
        raise ValueError(f"non-finite numeric cell at row {row}, column {name!r}: {cell!r}; "
                         f"leave a missing cell empty")
    return value


def load_csv(path, schema_path):
    """Read a CSV (UTF-8, header row, empty cell = missing) into a dataset.

    Returns ``(dataset, initial_mask)`` where the mask marks cells that
    were present in the file (1 = observed).  An empty file, a ragged row,
    a numeric ``nan`` or ``inf`` cell and a numeric column whose mean or
    standard deviation overflows are errors; the header is row 1.
    """
    columns, target_name = load_schema(schema_path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError(f"{path} is empty; it needs a header row")
    header, rows = rows[0], rows[1:]
    names = [c.name for c in columns]
    expected = names + [target_name] if target_name not in names else names
    if header != expected:
        raise ValueError(f"header {header} does not match schema columns {expected}")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {i + 2} has {len(row)} cells, but the header has {len(header)}")
    transposed = zip(*rows) if rows else [()] * len(header)
    cells = {name: list(map(str.strip, column)) for name, column in zip(header, transposed)}
    feature_cols = [c for c in columns if c.name != target_name]

    values = np.full((len(rows), len(feature_cols)), np.nan)
    for j, col in enumerate(feature_cols):
        present = np.flatnonzero(list(map(bool, cells[col.name])))
        given = list(filter(None, cells[col.name]))
        if col.kind == NUMERICAL:
            try:  # a cell float() rejects leaves the column NaN
                values[present, j] = list(map(float, given))
            except ValueError:
                pass
            if not np.isfinite(values[present, j]).all():  # _number names the first bad cell
                for i, cell in zip(present.tolist(), given):
                    _number(cell, i + 2, col.name)
            with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned
                spread = [values[present, j].mean(), values[present, j].std()] if given else []
            if not np.isfinite(spread).all():
                raise ValueError(f"{path}: numeric column {col.name!r} is too large to z-score: "
                                 f"the mean or standard deviation of its cells overflows")
        else:
            col.categories, values[present, j] = _first_appearance(given)
            col.cardinality = max(len(col.categories), 1)
    if "" in cells[target_name]:
        raise ValueError(f"missing target at row {cells[target_name].index('') + 2}")
    target_categories, targets = _first_appearance(cells[target_name])
    ds = TabularDataset(feature_cols, values, np.array(targets, dtype=np.int64),
                        max(len(target_categories), 1), target_categories)
    return ds, np.isfinite(values).astype(np.int8)


def compute_stats(ds: TabularDataset, mask=None) -> ColumnStats:
    """Observed-cell means/stds for numerics and modal classes for
    categoricals.  ``mask`` restricts to observed entries (1 = observed)."""
    mask = np.isfinite(ds.values) if mask is None else mask * np.isfinite(ds.values)
    stats = ColumnStats(np.zeros(ds.n_cols), np.ones(ds.n_cols))
    for j, col in enumerate(ds.schema):
        obs = ds.values[mask[:, j] == 1, j]
        if obs.size == 0:
            fallback = "using 0/1 stats" if col.kind == NUMERICAL else "modal class 0"
            warnings.warn(f"column {col.name!r} has no observed values; {fallback}")
        elif col.kind == NUMERICAL:
            stats.fill[j] = obs.mean()
            sigma = obs.std()  # denominator N
            stats.scale[j] = sigma if sigma > 1e-12 else 1.0
        else:
            stats.fill[j] = np.bincount(obs.astype(np.int64), minlength=col.cardinality).argmax()
    return stats


def normalize(ds: TabularDataset, stats: ColumnStats) -> TabularDataset:
    """Z-score numeric columns with the supplied statistics."""
    num = ds.numeric_idx
    values = ds.values.copy()
    values[:, num] = (values[:, num] - stats.fill[num]) / stats.scale[num]
    return replace(ds, values=values, targets=ds.targets.copy())


def is_real(value):
    """Whether ``value`` is a real number, Python's or numpy's, and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def split(ds: TabularDataset, train_fraction: float, seed: int):
    """Seeded, class-stratified partition into (train_rows, val_rows)."""
    if not is_real(train_fraction) or not 0 < train_fraction < 1:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction!r}")
    if ds.n_rows < 2:
        raise ValueError(f"a train/validation split needs at least 2 rows, got {ds.n_rows}")
    rng = np.random.default_rng(seed)
    counts = np.bincount(ds.targets, minlength=ds.num_classes)
    groups = [np.flatnonzero(ds.targets == cls) for cls in np.flatnonzero(counts)]
    if counts[counts > 0].min() < 2:
        warnings.warn("a class has fewer than 2 members; falling back to unstratified split")
        groups = [np.arange(ds.n_rows)]
    train_rows, val_rows = [], []
    for members in groups:
        perm = rng.permutation(members)
        cut = int(round(members.size * train_fraction))
        cut = min(max(cut, 1), members.size - 1)
        train_rows.extend(perm[:cut])
        val_rows.extend(perm[cut:])
    return np.sort(np.asarray(train_rows)), np.sort(np.asarray(val_rows))


def make_two_cluster(n=600, d=6, seed=0):
    """Synthetic numeric 2-cluster dataset with correlated features.

    Rows in the same cluster share a mean, so observed coordinates are
    informative about missing ones; the target is the cluster label.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.stack([np.full(d, -1.5), np.full(d, 1.5)])
    shared = rng.normal(size=(n, 1))  # within-cluster correlation
    values = centers[labels] + 0.8 * shared + 0.6 * rng.normal(size=(n, d))
    schema = [ColumnSchema(f"f{j}", NUMERICAL) for j in range(d)]
    return TabularDataset(schema, values, labels.astype(np.int64), 2, ["c0", "c1"])


def write_csv(ds: TabularDataset, mask, path, schema_path=None):
    """Export a dataset (optionally with missing cells blanked) to CSV, its
    label in a last column named ``target``; a header that would repeat a
    name is a ValueError, raised before any file is written."""
    header = [c.name for c in ds.schema] + ["target"]
    repeated = sorted({name for name in header if header.count(name) > 1})
    if repeated:
        raise ValueError(f"cannot write {path}: its header {header} would repeat "
                         f"{', '.join(map(repr, repeated))} (the label column is 'target')")
    blank = np.zeros(ds.values.shape, bool) if mask is None else np.asarray(mask) == 0
    columns = []
    for j, col in enumerate(ds.schema):
        cells = ds.values[~blank[:, j], j].tolist()
        if col.kind == NUMERICAL:
            text = list(map(repr, cells))
        else:  # int() of a NaN cell left unblanked raises ValueError
            text = [col.categories[int(v)] if col.categories else str(int(v)) for v in cells]
        columns.append(np.full(ds.n_rows, "", dtype=object))
        columns[-1][~blank[:, j]] = text
    labels = ds.targets.astype(np.int64).tolist()
    columns.append([ds.target_categories[t] for t in labels] if ds.target_categories
                   else list(map(str, labels)))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))
    if schema_path is not None:
        payload = {"columns": [{"name": c.name, "kind": c.kind} for c in ds.schema],
                   "target": "target"}
        with open(schema_path, "w") as fh:
            json.dump(payload, fh, indent=2)
