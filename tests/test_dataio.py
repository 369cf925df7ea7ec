import csv
import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggimpute import dataio, missingness


def write_dataset(tmp_path, rows, columns, target="label"):
    csv = tmp_path / "data.csv"
    schema = tmp_path / "data.schema.json"
    header = [c["name"] for c in columns] + [target]
    with open(csv, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")
    with open(schema, "w") as fh:
        json.dump({"columns": columns, "target": target}, fh)
    return csv, schema


def test_load_csv_mixed_shapes(tmp_path):
    columns = [{"name": "x", "kind": "numerical"}, {"name": "y", "kind": "numerical"},
               {"name": "color", "kind": "categorical"}]
    rows = [[1.0, 2.0, "red", "a"], [3.0, 4.0, "blue", "b"], [5.0, 6.0, "red", "a"]]
    csv, schema = write_dataset(tmp_path, rows, columns)
    ds, mask = dataio.load_csv(csv, schema)
    assert ds.n_rows == 3 and ds.n_cols == 3
    assert len(ds.numeric_idx) == 2 and len(ds.categorical_idx) == 1
    assert mask.all()
    # first-appearance order: red=0, blue=1
    assert ds.values[:, 2].tolist() == [0.0, 1.0, 0.0]
    assert ds.schema[2].categories == ["red", "blue"]
    assert ds.num_classes == 2


def test_load_csv_missing_cells_masked(tmp_path):
    columns = [{"name": "x", "kind": "numerical"}, {"name": "y", "kind": "numerical"}]
    rows = [[1.0, "", "a"], ["", 4.0, "b"]]
    csv, schema = write_dataset(tmp_path, rows, columns)
    ds, mask = dataio.load_csv(csv, schema)
    assert mask.tolist() == [[1, 0], [0, 1]]
    assert np.isnan(ds.values[0, 1]) and np.isnan(ds.values[1, 0])


def test_load_csv_unparseable_cell_reports_coordinates(tmp_path):
    columns = [{"name": "x", "kind": "numerical"}]
    csv, schema = write_dataset(tmp_path, [[1.0, "a"], ["oops", "b"]], columns)
    with pytest.raises(ValueError, match="row 3.*'x'"):
        dataio.load_csv(csv, schema)


def test_load_csv_header_mismatch(tmp_path):
    columns = [{"name": "x", "kind": "numerical"}]
    csv, schema = write_dataset(tmp_path, [[1.0, "a"]], columns)
    with open(schema, "w") as fh:
        json.dump({"columns": [{"name": "z", "kind": "numerical"}], "target": "label"}, fh)
    with pytest.raises(ValueError, match="header"):
        dataio.load_csv(csv, schema)


def test_normalize_two_point_column():
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL)]
    ds = dataio.TabularDataset(schema, np.array([[0.0], [2.0]]), np.array([0, 1]), 2)
    stats = dataio.compute_stats(ds)
    out = dataio.normalize(ds, stats)
    assert out.values[:, 0].tolist() == [-1.0, 1.0]  # sigma with denominator N


def test_normalize_constant_column_clamps_sigma():
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL)]
    ds = dataio.TabularDataset(schema, np.full((4, 1), 3.0), np.array([0, 1, 0, 1]), 2)
    stats = dataio.compute_stats(ds)
    assert stats.scale[0] == 1.0
    assert np.array_equal(dataio.normalize(ds, stats).values, np.zeros((4, 1)))


def test_normalize_round_trip(rng):
    schema = [dataio.ColumnSchema(f"c{i}", dataio.NUMERICAL) for i in range(3)]
    values = rng.normal(5.0, 2.0, size=(20, 3))
    ds = dataio.TabularDataset(schema, values, rng.integers(0, 2, 20), 2)
    stats = dataio.compute_stats(ds)
    z = dataio.normalize(ds, stats)
    back = z.values * stats.scale + stats.fill
    assert np.abs(back - values).max() < 1e-12


def test_stats_use_only_observed_cells():
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL)]
    values = np.array([[1.0], [3.0], [100.0]])
    ds = dataio.TabularDataset(schema, values, np.array([0, 1, 0]), 2)
    mask = np.array([[1], [1], [0]], dtype=np.int8)
    stats = dataio.compute_stats(ds, mask)
    assert stats.fill[0] == 2.0


def test_categorical_mode():
    schema = [dataio.ColumnSchema("c", dataio.CATEGORICAL, cardinality=3)]
    ds = dataio.TabularDataset(schema, np.array([[0.0], [1.0], [1.0], [2.0]]),
                               np.array([0, 1, 0, 1]), 2)
    stats = dataio.compute_stats(ds)
    assert stats.fill[0] == 1 and stats.scale[0] == 1


def test_stats_of_unobserved_columns_fill_0_and_scale_1():
    schema = [dataio.ColumnSchema(name, dataio.NUMERICAL) for name in "xy"] + \
        [dataio.ColumnSchema(name, dataio.CATEGORICAL, cardinality=3) for name in "ce"]
    values = np.array([[1.0, 5.0, 2.0, 1.0], [3.0, 7.0, 2.0, 2.0], [2.0, 9.0, 0.0, 2.0]])
    ds = dataio.TabularDataset(schema, values, np.array([0, 1, 0]), 2)
    mask = np.array([[1, 0, 1, 0]] * 3, dtype=np.int8)
    with pytest.warns(UserWarning) as caught:
        stats = dataio.compute_stats(ds, mask)
    assert sorted(str(w.message) for w in caught) == [
        "column 'e' has no observed values; modal class 0",
        "column 'y' has no observed values; using 0/1 stats"]
    assert stats.fill.tolist() == [2.0, 0.0, 2.0, 0.0]
    assert stats.scale.tolist() == [np.std([1.0, 3.0, 2.0]), 1.0, 1.0, 1.0]


def test_split_partition_and_determinism():
    ds = dataio.make_two_cluster(n=10, d=3, seed=0)
    tr1, va1 = dataio.split(ds, 0.7, seed=42)
    tr2, va2 = dataio.split(ds, 0.7, seed=42)
    assert np.array_equal(tr1, tr2) and np.array_equal(va1, va2)
    assert len(tr1) + len(va1) == 10
    assert set(tr1).isdisjoint(va1)
    assert set(tr1) | set(va1) == set(range(10))


def test_split_stratified_proportions():
    ds = dataio.make_two_cluster(n=100, d=3, seed=1)
    tr, va = dataio.split(ds, 0.7, seed=0)
    for cls in (0, 1):
        total = (ds.targets == cls).sum()
        got = (ds.targets[tr] == cls).sum()
        assert abs(got - 0.7 * total) <= 1


def test_split_single_member_class_falls_back():
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL)]
    values = np.arange(6, dtype=float).reshape(-1, 1)
    targets = np.array([0, 0, 0, 0, 0, 1])
    ds = dataio.TabularDataset(schema, values, targets, 2)
    with pytest.warns(UserWarning, match="unstratified"):
        tr, va = dataio.split(ds, 0.5, seed=0)
    assert len(tr) + len(va) == 6


def _refuse_unscalable(path, col, cells):
    """The reader refuses a numeric column whose present ``cells`` have a mean or a
    standard deviation that overflows (oracle)."""
    with np.errstate(over="ignore", invalid="ignore"):
        if len(cells) and not (np.isfinite(np.mean(cells)) and np.isfinite(np.std(cells))):
            raise ValueError(f"{path}: numeric column {col.name!r} is too large to z-score: "
                             f"the mean or standard deviation of its cells overflows")


def _row_by_row_load_csv(path, schema_path):
    """The reader before it went column by column (oracle)."""
    columns, target_name = dataio.load_schema(schema_path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    feature_cols = [c for c in columns if c.name != target_name]
    target_pos = header.index(target_name)
    feature_pos = [header.index(c.name) for c in feature_cols]
    n, d = len(rows), len(feature_cols)
    values = np.zeros((n, d))
    mask = np.ones((n, d), dtype=np.int8)
    cat_maps = {j: {} for j, c in enumerate(feature_cols) if c.kind == dataio.CATEGORICAL}
    target_map = {}
    targets = np.zeros(n, dtype=np.int64)
    for i, row in enumerate(rows):
        for j, pos in enumerate(feature_pos):
            cell = row[pos].strip()
            if cell == "":
                mask[i, j] = 0
                values[i, j] = np.nan
            elif feature_cols[j].kind == dataio.NUMERICAL:
                values[i, j] = float(cell)
            else:
                values[i, j] = cat_maps[j].setdefault(cell, len(cat_maps[j]))
        targets[i] = target_map.setdefault(row[target_pos].strip(), len(target_map))
    for j, col in enumerate(feature_cols):
        if col.kind == dataio.CATEGORICAL:
            col.categories = sorted(cat_maps[j], key=cat_maps[j].get)
            col.cardinality = max(len(col.categories), 1)
        else:
            _refuse_unscalable(path, col, values[mask[:, j] == 1, j])
    ds = dataio.TabularDataset(feature_cols, values, targets, max(len(target_map), 1),
                               sorted(target_map, key=target_map.get))
    return ds, mask


NUMERIC_CELLS = st.one_of(st.sampled_from(["", " ", "0", "-2", " 1.5 ", "1e-3", "7"]),
                          st.floats(allow_nan=False, allow_infinity=False).map(repr))
CATEGORY_CELLS = st.sampled_from(["", "a", "b", " b ", "red", "blue", "a b"])


@st.composite
def csv_tables(draw, numeric_cells=NUMERIC_CELLS):
    """Header, rows and schema of a small table: numeric and categorical
    columns with blank cells, and target labels."""
    kinds = draw(st.lists(st.sampled_from([dataio.NUMERICAL, dataio.CATEGORICAL]),
                          min_size=1, max_size=4))
    n = draw(st.integers(1, 12))
    names = [f"c{j}" for j in range(len(kinds))]
    columns = [[draw(numeric_cells if kind == dataio.NUMERICAL else CATEGORY_CELLS)
                for _ in range(n)] for kind in kinds]
    labels = [draw(st.sampled_from(["x", "y", " y", "z z"])) for _ in range(n)]
    schema = {"columns": [{"name": f"c{j}", "kind": k} for j, k in enumerate(kinds)],
              "target": "label"}
    position = len(kinds)  # a target the schema does not list comes last
    if draw(st.booleans()):
        position = draw(st.integers(0, len(kinds)))
        schema["columns"].insert(position, {"name": "label", "kind": dataio.CATEGORICAL})
    names.insert(position, "label")
    columns.insert(position, labels)
    return names, list(zip(*columns)), schema


@settings(max_examples=150)
@given(csv_tables())
def test_load_csv_matches_the_row_by_row_reader(tmp_path_factory, table):
    names, rows, schema = table
    directory = tmp_path_factory.mktemp("table")
    with open(directory / "t.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([names, *rows])
    (directory / "t.json").write_text(json.dumps(schema))
    try:
        want, want_mask = _row_by_row_load_csv(directory / "t.csv", directory / "t.json")
    except ValueError as err:  # a column too large to z-score
        with pytest.raises(ValueError) as raised:
            dataio.load_csv(directory / "t.csv", directory / "t.json")
        assert str(raised.value) == str(err)
        return
    ds, mask = dataio.load_csv(directory / "t.csv", directory / "t.json")
    assert np.array_equal(ds.values, want.values, equal_nan=True)
    assert np.array_equal(mask, want_mask) and mask.dtype == want_mask.dtype
    assert np.array_equal(ds.targets, want.targets) and ds.targets.dtype == want.targets.dtype
    assert (ds.num_classes, ds.target_categories) == (want.num_classes, want.target_categories)
    assert [(c.name, c.kind, c.cardinality, c.categories) for c in ds.schema] == \
        [(c.name, c.kind, c.cardinality, c.categories) for c in want.schema]


def _cell_by_cell_load_csv(path, schema_path):
    """The reader before it mapped float over each column (oracle)."""
    columns, target_name = dataio.load_schema(schema_path)
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
    cells = {name: [row[pos].strip() for row in rows] for pos, name in enumerate(header)}
    feature_cols = [c for c in columns if c.name != target_name]
    values = np.full((len(rows), len(feature_cols)), np.nan)
    for j, col in enumerate(feature_cols):
        present = [i for i, cell in enumerate(cells[col.name]) if cell]
        if col.kind == dataio.NUMERICAL:
            values[present, j] = [dataio._number(cells[col.name][i], i + 2, col.name)
                                   for i in present]
            _refuse_unscalable(path, col, values[present, j])
        else:
            col.categories, values[present, j] = dataio._first_appearance(
                cells[col.name][i] for i in present)
            col.cardinality = max(len(col.categories), 1)
    if "" in cells[target_name]:
        raise ValueError(f"missing target at row {cells[target_name].index('') + 2}")
    target_categories, targets = dataio._first_appearance(cells[target_name])
    ds = dataio.TabularDataset(feature_cols, values, np.array(targets, dtype=np.int64),
                               max(len(target_categories), 1), target_categories)
    return ds, np.isfinite(values).astype(np.int8)


def _cell_by_cell_write_csv(ds, mask, path):
    """The writer before it went column by column (oracle)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.schema] + ["target"])
        for i in range(ds.n_rows):
            row = []
            for j, col in enumerate(ds.schema):
                if mask is not None and mask[i, j] == 0:
                    row.append("")
                elif col.kind == dataio.NUMERICAL:
                    row.append(repr(float(ds.values[i, j])))
                else:
                    idx = int(ds.values[i, j])
                    row.append(col.categories[idx] if col.categories else str(idx))
            label = int(ds.targets[i])
            row.append(ds.target_categories[label] if ds.target_categories else str(label))
            writer.writerow(row)


def _outcome(load, *paths):
    """What ``load`` makes of a table: its error message, or every array and label it read."""
    try:
        ds, mask = load(*paths)
    except ValueError as err:
        return str(err)
    return (ds.values.tobytes(), mask.tobytes(), ds.targets.tobytes(), ds.num_classes,
            ds.target_categories, [(c.name, c.kind, c.cardinality, c.categories)
                                   for c in ds.schema])


BAD_NUMERIC_CELLS = st.sampled_from(["nan", "inf", " -inf", "1e999", "x1", "1,5", "--2"])


@settings(max_examples=150)
@given(csv_tables(NUMERIC_CELLS | BAD_NUMERIC_CELLS))
def test_load_csv_matches_the_cell_by_cell_reader(tmp_path_factory, table):
    """Values, masks, categories and targets, or the message naming the first
    bad numeric cell."""
    names, rows, schema = table
    directory = tmp_path_factory.mktemp("table")
    with open(directory / "t.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([names, *rows])
    (directory / "t.json").write_text(json.dumps(schema))
    paths = directory / "t.csv", directory / "t.json"
    assert _outcome(dataio.load_csv, *paths) == _outcome(_cell_by_cell_load_csv, *paths)


@st.composite
def datasets_and_masks(draw):
    """A small table of numeric columns (any float, NaN and inf too) and
    categorical ones (named classes, some with a comma or a quote, or bare
    indices), a NaN in a categorical column only where the mask blanks it,
    and a 0/1 mask, a bool one or none."""
    n = draw(st.integers(1, 10))
    kinds = draw(st.lists(st.sampled_from([dataio.NUMERICAL, dataio.CATEGORICAL]),
                          min_size=1, max_size=4))
    mask = draw(st.none() | st.lists(st.booleans(), min_size=n * len(kinds),
                                     max_size=n * len(kinds)))
    mask = None if mask is None else np.array(mask).reshape(n, len(kinds))
    if mask is not None and draw(st.booleans()):
        mask = mask.astype(np.int8)
    schema, values = [], np.zeros((n, len(kinds)))
    for j, kind in enumerate(kinds):
        if kind == dataio.NUMERICAL:
            schema.append(dataio.ColumnSchema(f"n{j}", kind))
            values[:, j] = draw(st.lists(st.floats(), min_size=n, max_size=n))
            continue
        card = draw(st.integers(1, 3))
        names = draw(st.sampled_from([[], ["a", "b,c", 'd"e'][:card]]))
        schema.append(dataio.ColumnSchema(f"c{j}", kind, card, names))
        values[:, j] = draw(st.lists(st.integers(0, card - 1), min_size=n, max_size=n))
        if mask is not None:
            values[(mask[:, j] == 0) & draw(st.booleans()), j] = np.nan
    classes = draw(st.integers(1, 3))
    targets = np.array(draw(st.lists(st.integers(0, classes - 1), min_size=n, max_size=n)))
    labels = draw(st.sampled_from([[], ["x", "y z", "w,v"][:classes]]))
    return dataio.TabularDataset(schema, values, targets, classes, labels), mask


@settings(max_examples=150)
@given(datasets_and_masks())
def test_write_csv_matches_the_cell_by_cell_writer(tmp_path_factory, drawn):
    """The same bytes; and both readers read the file the same way."""
    ds, mask = drawn
    directory = tmp_path_factory.mktemp("table")
    dataio.write_csv(ds, mask, directory / "t.csv", directory / "t.json")
    _cell_by_cell_write_csv(ds, mask, directory / "want.csv")
    assert (directory / "t.csv").read_bytes() == (directory / "want.csv").read_bytes()
    paths = directory / "t.csv", directory / "t.json"
    assert _outcome(dataio.load_csv, *paths) == _outcome(_cell_by_cell_load_csv, *paths)


def test_write_csv_rejects_a_nan_categorical_cell_left_unblanked(tmp_path):
    schema = [dataio.ColumnSchema("x", dataio.NUMERICAL),
              dataio.ColumnSchema("c", dataio.CATEGORICAL, 2, ["a", "b"])]
    ds = dataio.TabularDataset(schema, np.array([[1.0, 0.0], [2.0, np.nan]]),
                               np.array([0, 1]), 2)
    for write in (dataio.write_csv, _cell_by_cell_write_csv):
        with pytest.raises(ValueError, match="NaN"):
            write(ds, np.ones((2, 2)), tmp_path / "t.csv")
    dataio.write_csv(ds, np.array([[1, 1], [1, 0]]), tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_text().splitlines()[2] == "2.0,,1"


def test_write_csv_refuses_a_header_that_repeats_a_name(tmp_path):
    """A feature column named ``target`` would clash with the label column,
    and the file would not load back; nothing is written."""
    (tmp_path / "in.csv").write_text("target,b,y\n1.0,2.0,0\n3.0,4.0,1\n")
    (tmp_path / "in.json").write_text(json.dumps(
        {"columns": [{"name": "target", "kind": "numerical"},
                     {"name": "b", "kind": "numerical"}], "target": "y"}))
    ds, mask = dataio.load_csv(tmp_path / "in.csv", tmp_path / "in.json")
    with pytest.raises(ValueError, match="would repeat 'target'"):
        dataio.write_csv(ds, mask, tmp_path / "out.csv", tmp_path / "out.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.csv", "in.json"]


def _two_path_split(ds, train_fraction, seed):
    """The split before the fallback became the loop over one group (oracle)."""
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


@settings(max_examples=200)
@given(n=st.integers(2, 60), num_classes=st.integers(1, 5), singleton=st.booleans(),
       train_fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2 ** 32 - 1))
def test_split_rows_match_the_two_path_oracle(n, num_classes, singleton, train_fraction, seed):
    """Half the tables hold a one-member class, so the fallback path runs."""
    targets = np.random.default_rng(seed).integers(0, num_classes, size=n)
    if singleton:
        targets[-1] = num_classes
    ds = dataio.TabularDataset([dataio.ColumnSchema("x", dataio.NUMERICAL)],
                               np.zeros((n, 1)), targets, int(targets.max()) + 1)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got = dataio.split(ds, train_fraction, seed)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = _two_path_split(ds, train_fraction, seed)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    for rows, oracle in zip(got, want):
        assert np.array_equal(rows, oracle) and rows.dtype == oracle.dtype


def test_split_rejects_bad_fraction():
    ds = dataio.make_two_cluster(n=10, d=2, seed=0)
    with pytest.raises(ValueError):
        dataio.split(ds, 1.0, seed=0)


def test_split_rejects_a_table_of_fewer_than_two_rows():
    ds = dataio.make_two_cluster(n=1, d=2, seed=0)
    with pytest.raises(ValueError, match="at least 2 rows, got 1"):
        dataio.split(ds, 0.7, seed=0)


def test_split_and_corrupt_take_any_real_number_but_a_bool():
    ds = dataio.make_two_cluster(n=40, d=3, seed=0)
    for fraction in [np.float64(0.7), np.float32(0.75)]:
        got, want = dataio.split(ds, fraction, 0), dataio.split(ds, fraction.item(), 0)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    for mechanism in missingness.MECHANISMS:
        for rate in [np.float64(0.2), np.float32(0.25), np.int64(0)]:
            assert np.array_equal(missingness.corrupt(ds, mechanism, rate, 0),
                                  missingness.corrupt(ds, mechanism, rate.item(), 0))
    for flag in [True, np.True_]:
        with pytest.raises(ValueError, match=r"train_fraction must be in \(0, 1\)"):
            dataio.split(ds, flag, 0)
        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\)"):
            missingness.corrupt(ds, "mcar", flag, 0)


def test_write_and_reload_round_trip(tmp_path):
    ds = dataio.make_two_cluster(n=12, d=3, seed=3)
    csv = tmp_path / "synth.csv"
    schema = tmp_path / "synth.schema.json"
    dataio.write_csv(ds, None, csv, schema)
    loaded, mask = dataio.load_csv(csv, schema)
    assert mask.all()
    assert np.allclose(loaded.values, ds.values)
    # label indices may be renumbered by first appearance; class names must agree
    original = [ds.target_categories[t] for t in ds.targets]
    reloaded = [loaded.target_categories[t] for t in loaded.targets]
    assert original == reloaded


def test_make_two_cluster_separation():
    ds = dataio.make_two_cluster(n=400, d=4, seed=0)
    mean0 = ds.values[ds.targets == 0].mean()
    mean1 = ds.values[ds.targets == 1].mean()
    assert mean1 - mean0 > 1.0
