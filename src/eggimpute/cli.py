"""Experiment orchestration.

Subcommands compose the library into the benchmark protocol: corrupt a
dataset, train a model, impute, evaluate, run a config grid, and
aggregate results.  The stepwise subcommands and ``benchmark`` call the
same stages (``_prepare``, ``_fit``, ``_impute_all``, ``_evaluate``); the
former pass artifacts between them on disk, ``run_single`` in memory.
A JSON config drives everything; CLI flags override individual fields.
Artifacts land in ``<out>/<dataset>/<mechanism>/<rate>/<method>/<seed>/``.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, dataio, ensemble, evaluation, missingness, model, training

MODEL_METHODS = {"egg": "egg", "kegg": "kegg", "nn_ablation": "identity"}
ALL_METHODS = list(MODEL_METHODS) + ["mean", "knn"]

RESULTS_COLUMNS = [f.name for f in fields(evaluation.MetricReport)]

# each top-level setting: its default (None: unset); the rule for its value and for each entry
# of the grid list that varies it: str (a string), a list of names, an int (an integer at least
# that) or a range; and that list's key (in the order ``benchmark`` nests the grid's axes)
SETTINGS = {"dataset": (None, str, None), "schema": (None, str, None), "name": (None, str, None),
            "datasets": (None, None, None), "grid": (None, None, None), "train": (None, None, None),
            "mechanism": ("mcar", list(missingness.MECHANISMS), "mechanisms"),
            "rate": (0.2, "[0, 1)", "rates"), "method": ("egg", ALL_METHODS, "methods"),
            "seed": (0, 0, "seeds"), "ensemble": (5, 1, None), "knn_k": (5, 1, None),
            "out": ("runs", str, None), "train_fraction": (0.7, "(0, 1)", None)}
GRID = {plural: key for key, (_, _, plural) in SETTINGS.items() if plural}
# the settings a stepwise command or benchmark takes as a flag, and the flag's help
FLAGS = {"dataset": "dataset CSV path", "schema": "schema JSON path",
         "name": "dataset name for the run directory", "mechanism": None, "rate": None,
         "method": None, "seed": None, "ensemble": "predictions per row at inference",
         "out": "output root; beats the config's 'out'"}


def _seed_for(master_seed, stage):
    ids = {"corrupt": 1, "split": 2, "train": 3, "ensemble": 4, "forest": 5}
    return np.random.SeedSequence([int(master_seed), ids[stage]])


def _stage_seed_int(master_seed, stage):
    return int(_seed_for(master_seed, stage).generate_state(1)[0])


def load_config(path, overrides=None):
    """Defaults, then the config file, then flags; a ValueError for a setting, grid entry or
    ``train`` value that is unknown, missing, repeated, out of range or malformed."""
    cfg = {key: default for key, (default, _, _) in SETTINGS.items()}
    if path:
        with open(path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            found = {list: "an array", str: "a string", bool: "a boolean",
                     type(None): "null"}.get(type(loaded), "a number")
            raise ValueError(f"config {path} must hold a JSON object, found {found}")
        cfg.update(loaded)
    unknown = sorted(set(cfg) - set(SETTINGS))
    if unknown:
        raise ValueError(f"unknown setting(s): {', '.join(unknown)}")
    flags = {key: value for key, value in (overrides or {}).items() if value is not None}
    cfg.update(flags)
    grid = {} if cfg["grid"] is None else cfg["grid"]
    if not (isinstance(grid, dict) and set(grid) <= set(GRID)
            and all(isinstance(v, list) and v for v in grid.values())):
        raise ValueError(f"grid must map some of mechanisms, rates, methods and seeds to lists, "
                         f"got {grid!r}")
    # a flag also replaces the grid list, or the ``datasets`` list, that varies its setting
    cfg["grid"] = grid = {axis: v for axis, v in grid.items() if GRID[axis] not in flags}
    if flags.keys() & {"dataset", "schema", "name"}:
        cfg["datasets"] = None
    for key, (default, rule, plural) in SETTINGS.items():
        for value in [cfg[key], *grid.get(plural, [])]:
            if rule is None or value is None is default:  # a shape checked below, or unset
                continue
            if (rule is str or isinstance(rule, list)) and not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
            if isinstance(rule, list) and value not in rule:
                raise ValueError(f"unknown {key} {value!r}; choose from {', '.join(rule)}")
            if isinstance(rule, int) and (type(value) is not int or value < rule):  # not a bool
                raise ValueError(f"{key} must be an integer >= {rule}, got {value!r}")
            if isinstance(rule, str) and (type(value) not in (int, float) or
                                          not (0 < value < 1 or value == 0 and rule[0] == "[")):
                raise ValueError(f"{key} must be in {rule}, got {value!r}")
    cfg["rate"] = float(cfg["rate"])  # a rate names its run directory: 0 must read 0.0
    if "rates" in grid:
        grid["rates"] = [float(rate) for rate in grid["rates"]]
    specs = [] if cfg["datasets"] is None else cfg["datasets"]
    if not isinstance(specs, list) or not all(
            isinstance(s, dict) and sorted(s) == ["csv", "name", "schema"]
            and all(isinstance(v, str) for v in s.values()) for s in specs):
        raise ValueError("datasets must be a list of objects, each with string 'name', 'csv' "
                         "and 'schema' and no other key")
    for name, entries in [*((f"grid.{axis}", v) for axis, v in grid.items()),
                          ("datasets", [s["name"] for s in specs])]:
        for i, value in enumerate(entries):
            if str(value) in map(str, entries[:i]):  # as its run directory spells it
                raise ValueError(f"{name} repeats {value!r}; each run may be counted once")
    train = {} if cfg["train"] is None else cfg["train"]
    if not isinstance(train, dict) or not all(isinstance(train.get(k, {}), dict)
                                              for k in ("model", "weights")):
        raise ValueError(f"train, train.model and train.weights must be objects, got {train!r}")
    if "seed" in train:
        raise ValueError("train.seed is set by the top-level 'seed'; remove it")
    if "sampler" in train.get("model", {}):
        raise ValueError("train.model.sampler is set by the top-level 'method'; remove it")
    if not cfg["datasets"] and (cfg["dataset"] is None or cfg["schema"] is None):
        raise ValueError("set 'dataset' and 'schema', or 'datasets'")
    # the sampler of each model method the config can run (egg's when it runs none)
    methods = [m for m in grid.get("methods", [cfg["method"]]) if m in MODEL_METHODS]
    for method in methods or ["egg"]:
        _train_config({**cfg, "method": method}).validate()
    return cfg


def _step_config(args):
    """The config of a stepwise command, which works on the one table it names."""
    cfg = load_config(args.config, _overrides(args))
    if cfg["dataset"] is None or cfg["schema"] is None:
        raise ValueError("corrupt, train, impute and evaluate need 'dataset' and 'schema'")
    return cfg


def _dataset_name(cfg):
    return cfg.get("name") or Path(cfg["dataset"]).stem


def run_dir(cfg):
    return Path(cfg["out"]) / _dataset_name(cfg) / cfg["mechanism"] / str(cfg["rate"]) / \
        cfg["method"] / str(cfg["seed"])


def _require(path, hint):
    if not Path(path).exists():
        raise FileNotFoundError(f"missing artifact {path}; run `{hint}` first")
    return path


# -- pipeline stages ----------------------------------------------------

@dataclass
class Prepared:
    """One table ready for a method: loaded, masked, split and z-scored."""
    ds: dataio.TabularDataset
    ds_norm: dataio.TabularDataset  # z-scored with the training-split stats
    mask: np.ndarray  # corruption mask times the cells present in the file
    stats: dataio.ColumnStats  # raw-scale stats of the training split
    train_rows: np.ndarray
    val_rows: np.ndarray


def _corrupt(cfg, ds):
    return missingness.corrupt(ds, cfg["mechanism"], cfg["rate"],
                               _seed_for(cfg["seed"], "corrupt"))


def _prepare(cfg, table, mask_bits=None):
    """Mask ``table``, a ``dataio.load_csv`` pair (corrupting afresh unless ``mask_bits`` is
    given), split, compute training-observed stats and z-score it."""
    ds, load_mask = table
    if mask_bits is None:
        mask_bits = _corrupt(cfg, ds)
    elif mask_bits.shape != load_mask.shape:
        raise ValueError(f"mask has shape {mask_bits.shape} but the table has shape "
                         f"{load_mask.shape}; rerun `eggimpute corrupt` on this table")
    mask = (mask_bits * load_mask).astype(np.int8)
    train_rows, val_rows = dataio.split(ds, cfg["train_fraction"],
                                        _stage_seed_int(cfg["seed"], "split"))
    stats = dataio.compute_stats(ds.subset(train_rows), mask[train_rows])
    return Prepared(ds, dataio.normalize(ds, stats), mask, stats, train_rows, val_rows)


def _load_run(cfg):
    """The run directory and the table prepared with its saved mask."""
    rd = run_dir(cfg)
    mask_bits = missingness.load_mask(_require(rd / "mask.csv", "eggimpute corrupt"))
    return rd, _prepare(cfg, dataio.load_csv(cfg["dataset"], cfg["schema"]), mask_bits)


def _train_config(cfg):
    """The config's ``train`` section for its model method, seeded from the run."""
    raw = dict(cfg.get("train") or {})
    model_raw = {**raw.pop("model", {}), "sampler": MODEL_METHODS[cfg["method"]]}
    return training.TrainConfig.from_dict({**raw, "model": model_raw,
                                           "seed": _stage_seed_int(cfg["seed"], "train")})


def _fit(cfg, prep):
    """Train the configured model method; returns the model and its seconds."""
    t0 = time.perf_counter()
    trained = training.train(_train_config(cfg), prep.ds_norm.subset(prep.train_rows),
                             prep.ds_norm.subset(prep.val_rows),
                             prep.mask[prep.train_rows], prep.mask[prep.val_rows])
    return trained, time.perf_counter() - t0


def _impute_all(cfg, method, ds, ds_norm, mask, train_rows, val_rows, params):
    """Impute the normalized table: model methods ensemble each split in
    ``train.batch_size`` batches, baselines fill from training-split stats."""
    if method in ("mean", "knn"):
        stats = dataio.compute_stats(ds_norm.subset(train_rows), mask[train_rows])
        if method == "mean":
            return baselines.mean_impute(ds_norm, mask, stats)
        return baselines.knn_impute(ds_norm, mask, cfg["knn_k"], stats)
    batch_size = _train_config(cfg).batch_size
    seed = _stage_seed_int(cfg["seed"], "ensemble")
    imputed = ds_norm.values.copy()
    for rows in (train_rows, val_rows):
        imputed[rows] = ensemble.ensemble_impute(ds_norm.subset(rows), mask[rows], params,
                                                 cfg["ensemble"], seed, batch_size)
    return imputed


def _evaluate(cfg, prep, imputed_z):
    truth = prep.ds_norm.values
    numeric_idx, categorical_idx = prep.ds_norm.numeric_idx, prep.ds_norm.categorical_idx
    eval_mask = prep.mask.copy()
    eval_mask[prep.train_rows] = 1  # metrics concern the held-out rows only
    rep = evaluation.MetricReport(_dataset_name(cfg), cfg["mechanism"], cfg["rate"],
                                  cfg["method"], cfg["seed"])
    rep.rmse = evaluation.rmse(truth, imputed_z, eval_mask, numeric_idx)
    rep.mae = evaluation.mae(truth, imputed_z, eval_mask, numeric_idx)
    rep.cat_accuracy = evaluation.cat_accuracy(truth, imputed_z, eval_mask, categorical_idx)
    rep.downstream_accuracy = evaluation.downstream_accuracy(
        imputed_z[prep.train_rows], prep.ds_norm.targets[prep.train_rows],
        imputed_z[prep.val_rows], prep.ds_norm.targets[prep.val_rows], prep.ds_norm.schema,
        seed=_stage_seed_int(cfg["seed"], "forest"))
    return rep


# -- subcommands --------------------------------------------------------

def cmd_make_synthetic(args):
    for flag, value in (("--rows", args.rows), ("--cols", args.cols)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    ds = dataio.make_two_cluster(n=args.rows, d=args.cols, seed=args.seed)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    schema_path = out.with_suffix(".schema.json")
    dataio.write_csv(ds, None, out, schema_path)
    print(f"wrote {out} and {schema_path}")
    return 0


def cmd_fetch_wireless(args):
    """Download the UCI wireless indoor localization table (needs network)."""
    import io
    import urllib.request
    import zipfile

    url = "https://archive.ics.uci.edu/static/public/422/wireless+indoor+localization.zip"
    if args.from_txt:
        source, text = args.from_txt, Path(args.from_txt).read_text()
    else:
        try:
            payload = urllib.request.urlopen(url, timeout=60).read()
        except OSError as err:
            print(f"error: download failed ({err}); fetch wifi_localization.txt manually and "
                  f"convert with `eggimpute fetch-wireless --from-txt <path>`", file=sys.stderr)
            return 1
        with zipfile.ZipFile(io.BytesIO(payload)) as zf:
            source = next(n for n in zf.namelist() if n.endswith(".txt"))
            text = zf.read(source).decode()
    ds = _wireless_table(text, source)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.write_csv(ds, None, out, out.with_suffix(".schema.json"))
    print(f"wrote {out}")
    return 0


def _wireless_table(text, source):
    """The whitespace-separated signal strengths of ``text``, the room last, as a table;
    a line without finite signals and a room, as many fields as line 1, raises naming it."""
    rows = [line.split() for line in text.rstrip().splitlines()] or [[]]
    width = max(len(rows[0]), 2)
    for number, fields in enumerate(rows, 1):
        try:
            ok = len(fields) == width and np.isfinite(np.array(fields[:-1], dtype=float)).all()
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"{source} line {number}: the wireless table needs signal strengths "
                             f"and a room on each line, as many as on line 1, all finite; "
                             f"got {' '.join(fields)!r}")
    rows = np.array(rows)
    rooms, targets = np.unique(rows[:, -1], return_inverse=True)
    schema = [dataio.ColumnSchema(f"wifi{i + 1}", dataio.NUMERICAL)
              for i in range(rows.shape[1] - 1)]
    return dataio.TabularDataset(schema, rows[:, :-1].astype(float), targets, len(rooms),
                                 rooms.tolist())


def cmd_corrupt(args):
    cfg = _step_config(args)
    ds, _ = dataio.load_csv(cfg["dataset"], cfg["schema"])
    bits = _corrupt(cfg, ds)
    rd = run_dir(cfg)
    rd.mkdir(parents=True, exist_ok=True)
    missingness.save_mask(bits, cfg["mechanism"], cfg["rate"], rd / "mask.csv")
    print(f"wrote {rd / 'mask.csv'} (missing fraction {1.0 - bits.mean():.4f})")
    return 0


def cmd_train(args):
    cfg = _step_config(args)
    if cfg["method"] not in MODEL_METHODS:
        print(f"method {cfg['method']!r} needs no training; skipping")
        return 0
    rd, prep = _load_run(cfg)
    trained, seconds = _fit(cfg, prep)
    model.save_checkpoint(rd / "checkpoint.npz", trained.params)
    with open(rd / "history.json", "w") as fh:
        json.dump({"config": asdict(trained.config), "train_seconds": seconds,
                   "stop_reason": trained.stop_reason, "best_epoch": trained.best_epoch,
                   "best_val_loss": trained.best_val_loss, "epochs": trained.history}, fh, indent=2)
    print(f"wrote {rd / 'checkpoint.npz'} (best val loss {trained.best_val_loss:.4f} "
          f"at epoch {trained.best_epoch}, stopped on {trained.stop_reason}, {seconds:.1f}s)")
    return 0


def cmd_impute(args):
    cfg = _step_config(args)
    rd, prep = _load_run(cfg)
    ds = prep.ds
    params = None
    if cfg["method"] in MODEL_METHODS:
        params = model.load_checkpoint(_require(rd / "checkpoint.npz", "eggimpute train"),
                                       ds.schema)
    with np.errstate(over="ignore", invalid="ignore"):  # reported by the check below
        imputed_z = _impute_all(cfg, cfg["method"], ds, prep.ds_norm, prep.mask,
                                prep.train_rows, prep.val_rows, params)
    if not np.isfinite(imputed_z).all():  # weights that overflow, or a negative variance
        raise ValueError(f"{rd / 'checkpoint.npz'} imputes NaN or inf; rerun `eggimpute train`")
    np.save(rd / "imputed_z.npy", imputed_z)
    export, num = imputed_z.copy(), ds.numeric_idx
    export[:, num] = imputed_z[:, num] * prep.stats.scale[num] + prep.stats.fill[num]
    out_ds = dataio.TabularDataset(ds.schema, export, ds.targets, ds.num_classes,
                                   ds.target_categories)
    dataio.write_csv(out_ds, None, rd / "imputed.csv")
    print(f"wrote {rd / 'imputed.csv'}")
    return 0


def _load_imputed(path, prep):
    """The z-scored table ``impute`` saved at ``path``: a float array of ``prep``'s shape,
    finite at every cell its mask hides; a ValueError naming ``path`` otherwise."""
    try:
        with open(path, "rb") as fh:
            imputed_z = np.lib.format.read_array(fh, allow_pickle=False)
    except ValueError as err:  # not an .npy file (an npz, text), truncated, or of objects
        raise ValueError(f"{path} is not a saved array ({err}); rerun `eggimpute impute`") from err
    if imputed_z.shape != prep.ds.values.shape:
        raise ValueError(f"imputed_z.npy has shape {imputed_z.shape} but the table has shape "
                         f"{prep.ds.values.shape}; rerun `eggimpute impute` on this table")
    if imputed_z.dtype.kind != "f":
        raise ValueError(f"{path} holds {imputed_z.dtype} values, not floats; "
                         "rerun `eggimpute impute`")
    bad = np.argwhere(~np.isfinite(imputed_z) & (prep.mask == 0))
    if len(bad):
        row, col = bad[0]
        raise ValueError(f"{path} holds {imputed_z[row, col]} at row {row}, column {col}, but "
                         "an imputed cell is finite; rerun `eggimpute impute`")
    return imputed_z


def cmd_evaluate(args):
    cfg = _step_config(args)
    rd, prep = _load_run(cfg)
    imputed_z = _load_imputed(_require(rd / "imputed_z.npy", "eggimpute impute"), prep)
    with np.errstate(over="ignore"):  # reported by the check below
        report = _evaluate(cfg, prep, imputed_z)
    metrics = {k: getattr(report, k) for k in evaluation.LOWER_IS_BETTER}
    if not all(v is None or np.isfinite(v) for v in metrics.values()):  # e.g. an overflow
        raise ValueError(f"{rd / 'imputed_z.npy'} scores {metrics}; rerun `eggimpute impute`")
    with open(rd / "report.json", "w") as fh:
        json.dump(asdict(report), fh, indent=2)
    _append_result(Path(cfg["out"]) / "results.csv", report)
    print(json.dumps(metrics))
    return 0


def _append_result(path, report: evaluation.MetricReport):
    """Append ``report``'s row, and the header first to a new file."""
    new = not Path(path).exists()
    row = [getattr(report, c) for c in RESULTS_COLUMNS]
    # csv leaves a lone "\r" unquoted under a "\n" terminator, yet readers end rows on it
    quoting = csv.QUOTE_ALL if any("\r" in str(v) for v in row) else csv.QUOTE_MINIMAL
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n", quoting=quoting)
        if new:
            writer.writerow(RESULTS_COLUMNS)
        writer.writerow(row)


def _read_results(path):
    """A results file's reports, each cell of its ``MetricReport`` field's type."""
    types = typing.get_type_hints(evaluation.MetricReport)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != RESULTS_COLUMNS:
            raise ValueError(f"{path} has columns {reader.fieldnames}, expected {RESULTS_COLUMNS}")
        rows = list(reader)
    if any(None in row or None in row.values() for row in rows):  # a short or long row
        raise ValueError(f"{path} has a row whose cells do not match its header")
    reports = []
    for i, row in enumerate(rows):
        cells = {}
        for c, v in row.items():
            try:
                cells[c] = types[c](v) if v or types[c] is str else None
                if types[c] is float and not np.isfinite(cells[c] or 0):
                    raise ValueError
            except ValueError:
                raise ValueError(f"{path} holds {v!r} at row {i}, column {c}, but that column "
                                 f"holds {types[c].__name__} values") from None
        reports.append(evaluation.MetricReport(**cells))
    return reports


def run_single(cfg, table):
    """One full corrupt -> train -> impute -> evaluate pass of a job's config on its loaded
    table, in memory."""
    prep = _prepare(cfg, table)
    params = train_seconds = None
    if cfg["method"] in MODEL_METHODS:
        trained, train_seconds = _fit(cfg, prep)
        params = trained.params
    t0 = time.perf_counter()
    imputed_z = _impute_all(cfg, cfg["method"], prep.ds, prep.ds_norm, prep.mask, prep.train_rows,
                            prep.val_rows, params)
    inference_seconds = time.perf_counter() - t0
    rep = _evaluate(cfg, prep, imputed_z)
    rep.train_seconds, rep.inference_seconds = train_seconds, inference_seconds
    return rep


def _benchmark_grid(cfg):
    """Each job's config: the tables outermost, then the grid's axes in ``GRID`` order, an axis
    the grid leaves out holding its top-level setting alone."""
    grid = cfg.get("grid") or {}
    tables = cfg.get("datasets") or [{"name": _dataset_name(cfg), "csv": cfg["dataset"],
                                      "schema": cfg["schema"]}]
    axes = [grid.get(axis, [cfg[key]]) for axis, key in GRID.items()]
    return [{**cfg, "dataset": t["csv"], "schema": t["schema"], "name": t["name"],
             **dict(zip(GRID.values(), values))}
            for t in tables for values in itertools.product(*axes)]


def cmd_benchmark(args):
    cfg = load_config(args.config, _overrides(args))
    jobs = _benchmark_grid(cfg)
    tables = dict.fromkeys((job["dataset"], job["schema"]) for job in jobs)
    for key in tables:  # each distinct table, loaded and checked once; its jobs share it
        ds, _ = tables[key] = dataio.load_csv(*key)  # a missing file fails here
        if ds.n_rows < 2:
            raise ValueError(f"{key[0]}: a train/validation split needs at least 2 rows, "
                             f"got {ds.n_rows}")
    for job in jobs:  # a table too narrow for a MAR job's rate fails before any job runs
        if job["mechanism"] == "mar":
            missingness.mar_observed(tables[job["dataset"], job["schema"]][0].n_cols, job["rate"])
    out_root = Path(cfg["out"])
    out_root.mkdir(parents=True, exist_ok=True)
    results_path = out_root / "results.csv"
    results_path.unlink(missing_ok=True)
    failures = 0
    for job in jobs:
        try:
            rep = run_single(job, tables[job["dataset"], job["schema"]])
        except Exception as err:  # record, keep going
            failures += 1
            print(f"error: run {run_dir(job).relative_to(out_root)} failed: {err}",
                  file=sys.stderr)
            continue
        _append_result(results_path, rep)
    rows = len(jobs) - failures
    print(f"wrote {results_path} ({rows} rows)" if rows else "no run succeeded; wrote no results")
    return 0 if not failures else 1


def _mean_by_method(reports, column):
    """Per-method mean of a results column; None where no row sets it."""
    values = {r.method: [] for r in reports}
    for r in reports:
        if getattr(r, column) is not None:
            values[r.method].append(getattr(r, column))
    return {m: float(np.mean(v)) if v else None for m, v in values.items()}


def cmd_report(args):
    reports = _read_results(_require(args.results, "eggimpute benchmark"))
    wins = evaluation.count_of_wins(reports)
    ranking = evaluation.unified_average_ranking(reports)
    train = _mean_by_method(reports, "train_seconds")
    inference = _mean_by_method(reports, "inference_seconds")
    summary = {"count_of_wins": wins, "unified_average_ranking": ranking,
               "timing": {m: {"mean_train_seconds": train[m],
                              "mean_inference_seconds": inference[m]} for m in train}}
    out = Path(args.output) if args.output else Path(args.results).parent / "summary.json"
    with open(out, "w") as fh:
        json.dump(summary, fh, indent=2)
    print(f"wrote {out}\n")
    if not ranking:
        print("no dataset/mechanism/rate/seed group scores two methods; nothing to rank")
        return 0
    print(f"{'method':<14}{'mean rank':>10}{'std':>8}{'wins':>6}")
    for method, stats in sorted(ranking.items(), key=lambda kv: kv[1]["mean_rank"]):
        print(f"{method:<14}{stats['mean_rank']:>10.3f}{stats['std_rank']:>8.3f}"
              f"{wins.get(method, 0):>6}")
    return 0


# -- argument parsing ---------------------------------------------------

def _overrides(args):
    return {k: v for k, v in vars(args).items() if k in SETTINGS}


def _add_common(p):
    p.add_argument("--config", help="JSON experiment config")
    for key, text in FLAGS.items():
        default, rule, _ = SETTINGS[key]
        p.add_argument(f"--{key}", help=text, choices=rule if isinstance(rule, list) else None,
                       type=type(default) if isinstance(default, (int, float)) else None)


def build_parser():
    parser = argparse.ArgumentParser(prog="eggimpute",
                                     description="latent-graph tabular imputation harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("make-synthetic", help="write the synthetic 2-cluster dataset")
    p.add_argument("--rows", type=int, default=600)
    p.add_argument("--cols", type=int, default=6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", default="data/synthetic.csv")
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("fetch-wireless", help="download the UCI wireless dataset")
    p.add_argument("--output", default="data/wireless.csv")
    p.add_argument("--from-txt", dest="from_txt",
                   help="convert an already-downloaded wifi_localization.txt instead")
    p.set_defaults(func=cmd_fetch_wireless)

    for name, fn in [("corrupt", cmd_corrupt), ("train", cmd_train),
                     ("impute", cmd_impute), ("evaluate", cmd_evaluate)]:
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("benchmark", help="run the full config grid")
    _add_common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="aggregate a results CSV")
    p.add_argument("--results", required=True)
    p.add_argument("--output")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
