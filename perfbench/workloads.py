"""Seeded inputs and one pipeline cell for each benchmark workload.

A workload is a generated table, its schema and an eggimpute config,
all written into one directory; a cell runs the eggimpute CLI on those
files from inside that directory and checks what it wrote.  Cells on
the same inputs compute the same thing, so their outputs must repeat
bit for bit.

The seed picks the tables (``TABLES`` of them, cycled through by the
timed cells).  The pipeline's own master seed (corruption draw, split,
initialisation, forest) is the constant ``PIPELINE_SEED``,
and the quality metrics come from the table of ``REFERENCE_SEED``, so
they read the same in every run and any change to results shows.  Sizes
are set so that a cell takes a few seconds on a 2-core host and a run
fits several cells; why each workload exists is in README.md.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from eggimpute import cli, dataio

WORKLOADS = ("egg-impute", "kegg-grid")

TABLE = "table.csv"
SCHEMA = "table.schema.json"
CONFIG = "config.json"
PIPELINE_SEED = 0
REFERENCE_SEED = 0
# Forest work follows the data, so one table per run made a run's cell
# time depend on its seed; cycling through several averages that out.
TABLES = 4
MODEL = {"hidden": 300, "prototypes": 10}
ROWS = {"egg-impute": 2000, "kegg-grid": 800}
# Share of rows the model and forest train on; the forest workload holds
# it low because forest time follows the train rows.
TRAIN_FRACTION = {"egg-impute": 0.7, "kegg-grid": 0.35}
EGG_EPOCHS = 3
# The forests' pure-Python time drifts with the host far more than the
# model's numpy work does; enough kegg epochs keep the forests under half
# of a kegg-grid cell.
KEGG_EPOCHS = 8
PASSES = 5
GRID = {"mechanisms": ["mnar"], "rates": [0.2], "methods": ["kegg", "knn", "mean"]}
CATEGORICAL_COLS = (6, 7)  # kegg-grid bins these into 4-level categoricals


def make_table(workload, seed):
    """The workload's ground-truth table; the same seed gives the same table."""
    ds = dataio.make_two_cluster(n=ROWS[workload], d=8, seed=seed)
    if workload == "kegg-grid":
        for j in CATEGORICAL_COLS:
            column = ds.values[:, j]
            ds.values[:, j] = np.digitize(column, np.quantile(column, [0.25, 0.5, 0.75]))
            ds.schema[j] = dataio.ColumnSchema(f"f{j}", dataio.CATEGORICAL, 4,
                                               ["q0", "q1", "q2", "q3"])
    return ds


def make_config(workload):
    base = {"dataset": TABLE, "schema": SCHEMA, "name": "table", "seed": PIPELINE_SEED,
            "train_fraction": TRAIN_FRACTION[workload]}
    if workload == "egg-impute":
        return {**base, "mechanism": "mcar", "rate": 0.2, "method": "egg",
                "ensemble": PASSES,
                "train": {"batch_size": 300, "max_epochs": EGG_EPOCHS,
                          "patience": EGG_EPOCHS + 1, "model": dict(MODEL),
                          "weights": {"triplet": 0.0}}}
    return {**base, "mechanism": "mnar", "rate": 0.2, "method": "kegg", "ensemble": PASSES,
            "grid": {**GRID, "seeds": [PIPELINE_SEED]},
            "train": {"batch_size": 200, "max_epochs": KEGG_EPOCHS,
                      "patience": KEGG_EPOCHS + 1, "model": {**MODEL, "k": 5},
                      "weights": {"triplet": 0.1}}}


@dataclass
class Inputs:
    workload: str
    directory: Path
    truth: dataio.TabularDataset
    n_train: int


def setup(workload, seed, directory):
    """Generate the inputs into ``directory`` and load the table back once."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    if seed < 0:
        raise ValueError("seed must be non-negative")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    truth = make_table(workload, seed)
    dataio.write_csv(truth, None, directory / TABLE, directory / SCHEMA)
    with open(directory / CONFIG, "w") as fh:
        json.dump(make_config(workload), fh, indent=2, sort_keys=True)
    loaded, _ = dataio.load_csv(directory / TABLE, directory / SCHEMA)
    train_rows, _ = dataio.split(loaded, TRAIN_FRACTION[workload],
                                 cli._stage_seed_int(PIPELINE_SEED, "split"))
    return Inputs(workload, directory, truth, len(train_rows))


def setup_tables(workload, seed, directory):
    """``TABLES`` inputs for one run seed, each in its own subdirectory."""
    return [setup(workload, seed * TABLES + k, Path(directory) / f"table{k}")
            for k in range(TABLES)]


@dataclass
class Cell:
    """What one cell measured, and every check it failed."""
    cell_s: float = 0.0
    stages: dict = field(default_factory=dict)  # stage -> seconds (benchmark clock)
    train_rows_per_s: float = None
    impute_rows_per_s: float = None
    rmse: float = None
    cat_accuracy: float = None
    downstream_accuracy: float = None
    fingerprint: str = ""  # hash of the outputs that must repeat bit for bit
    errors: list = field(default_factory=list)


def _cli(argv, cell):
    """Run one eggimpute subcommand in-process, its chatter swallowed."""
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    cell.stages[argv[0]] = time.perf_counter() - t0
    if code != 0:
        cell.errors.append(f"`eggimpute {argv[0]}` exited with {code}")
    return code == 0


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def run_cell(inputs, out):
    """Run one cell in the inputs' directory, writing artifacts under ``out``."""
    cell = Cell()
    run = {"egg-impute": _egg_impute, "kegg-grid": _kegg_grid}[inputs.workload]
    with _inside(inputs.directory):
        t0 = time.perf_counter()
        run(out, cell)
        cell.cell_s = time.perf_counter() - t0
    return cell


def _egg_impute(out, cell):
    for step in ("corrupt", "train", "impute"):
        if not _cli([step, "--config", CONFIG, "--out", out], cell):
            return


def _kegg_grid(out, cell):
    if _cli(["benchmark", "--config", CONFIG, "--out", out], cell):
        _cli(["report", "--results", f"{out}/results.csv"], cell)


# -- checks ---------------------------------------------------------------

def check_cell(inputs, out, cell):
    """Fill the cell's quality numbers from its artifacts, recording failed checks."""
    if cell.errors:
        return
    try:
        if inputs.workload == "egg-impute":
            _check_egg_impute(inputs, inputs.directory / out, cell)
        else:
            _check_grid(inputs, inputs.directory / out, cell)
    except (OSError, ValueError, KeyError) as err:
        cell.errors.append(f"reading outputs failed: {err!r}")


def _check_egg_impute(inputs, out, cell):
    rd = out / "table" / "mcar" / "0.2" / "egg" / str(PIPELINE_SEED)
    mask = np.loadtxt(rd / "mask.csv", dtype=np.int8, delimiter=",", comments="#")
    with open(rd / "history.json") as fh:
        history = json.load(fh)
    imputed_bytes = (rd / "imputed.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(imputed_bytes.decode())))[1:]
    imputed = np.array([[float(v) for v in row[:-1]] for row in rows])
    truth = inputs.truth.values
    if imputed.shape != truth.shape:
        cell.errors.append(f"imputed table has shape {imputed.shape}, want {truth.shape}")
        return
    if not np.isfinite(imputed).all():
        cell.errors.append("imputed table has non-finite cells")
    observed = mask == 1
    if not np.allclose(imputed[observed], truth[observed], rtol=1e-9, atol=1e-12):
        cell.errors.append("observed cells changed")  # z-score round trip only
    if len(history["epochs"]) != EGG_EPOCHS:
        cell.errors.append(f"trained {len(history['epochs'])} epochs, want {EGG_EPOCHS}")
    missing = ~observed
    if not missing.any():
        cell.errors.append("corruption removed no cells")
        return
    scaled = (imputed - truth) / truth.std(axis=0)
    cell.rmse = float(np.sqrt(np.mean(scaled[missing] ** 2)))
    cell.train_rows_per_s = EGG_EPOCHS * inputs.n_train / history["train_seconds"]
    cell.impute_rows_per_s = inputs.truth.n_rows * PASSES / cell.stages["impute"]
    cell.fingerprint = hashlib.sha256((rd / "mask.csv").read_bytes() + imputed_bytes).hexdigest()


_TIMING_COLUMNS = ("train_seconds", "inference_seconds")


def _check_grid(inputs, out, cell):
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    want = sorted((m, meth) for m in GRID["mechanisms"] for meth in GRID["methods"])
    got = sorted((r["mechanism"], r["method"]) for r in rows)
    if got != want:
        cell.errors.append(f"results.csv has jobs {got}, want one row per job {want}")
        return
    quality = ("rmse", "downstream_accuracy", "cat_accuracy")
    values = {q: [float(r[q]) for r in rows] for q in quality}
    if not all(math.isfinite(v) for vs in values.values() for v in vs):
        cell.errors.append(f"non-finite quality metric in results.csv: {values}")
        return
    with open(out / "summary.json") as fh:
        ranked = json.load(fh)["unified_average_ranking"]
    if sorted(ranked) != sorted(GRID["methods"]):
        cell.errors.append(f"report ranked {sorted(ranked)}, want {GRID['methods']}")
    cell.rmse = float(np.mean(values["rmse"]))
    cell.downstream_accuracy = float(np.mean(values["downstream_accuracy"]))
    cell.cat_accuracy = float(np.mean(values["cat_accuracy"]))
    passes = [PASSES if r["method"] in cli.MODEL_METHODS else 1 for r in rows]
    cell.impute_rows_per_s = (inputs.truth.n_rows * sum(passes)
                              / sum(float(r["inference_seconds"]) for r in rows))
    model_rows = [r for r in rows if r["method"] in cli.MODEL_METHODS]
    cell.train_rows_per_s = (KEGG_EPOCHS * inputs.n_train * len(model_rows)
                             / sum(float(r["train_seconds"]) for r in model_rows))
    stable = [{k: v for k, v in r.items() if k not in _TIMING_COLUMNS} for r in rows]
    cell.fingerprint = hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


@contextlib.contextmanager
def captured_imputations():
    """Record every imputed matrix the CLI computes, for in-memory checks.

    ``benchmark`` never writes its imputed tables, so a cell's imputation
    can only be checked by catching it; this is used on the untimed
    reference cell, never on a timed one.
    """
    original = cli._impute_all
    seen = []

    def capture(cfg, method, ds, ds_norm, mask, *rest):
        imputed = original(cfg, method, ds, ds_norm, mask, *rest)
        seen.append((ds_norm.values.copy(), mask.copy(), imputed.copy()))
        return imputed

    cli._impute_all = capture
    try:
        yield seen
    finally:
        cli._impute_all = original


def check_imputations(seen):
    """Every imputed cell finite; every observed cell exactly unchanged."""
    errors = []
    if not seen:
        errors.append("no imputation ran")
    for values, mask, imputed in seen:
        if not np.isfinite(imputed).all():
            errors.append("imputed matrix has non-finite cells")
        observed = mask == 1
        if not np.array_equal(imputed[observed], values[observed]):
            errors.append("imputation changed observed cells")
    return errors
