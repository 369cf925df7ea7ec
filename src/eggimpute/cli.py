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
import concurrent.futures
import csv
import functools
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import baselines, dataio, ensemble, evaluation, missingness, model, training

MODEL_METHODS = {"egg": "egg", "kegg": "kegg", "nn_ablation": "identity"}
ALL_METHODS = list(MODEL_METHODS) + ["mean", "knn"]

RESULTS_COLUMNS = [f.name for f in fields(evaluation.MetricReport)]


def _seed_for(master_seed, stage):
    ids = {"corrupt": 1, "split": 2, "train": 3, "ensemble": 4, "forest": 5}
    return np.random.SeedSequence([int(master_seed), ids[stage]])


def _stage_seed_int(master_seed, stage):
    return int(_seed_for(master_seed, stage).generate_state(1)[0])


def load_config(path, overrides=None):
    """Defaults, then the config file, then ``EGGIMPUTE_OUT``, then flags."""
    cfg = {"rate": 0.2, "mechanism": "mcar", "method": "egg", "seed": 0, "runs": 1,
           "ensemble": 5, "out": "runs", "train_fraction": 0.7, "knn_k": 5,
           "train": {}}
    if path:
        with open(path) as fh:
            cfg.update(json.load(fh))
    if "EGGIMPUTE_OUT" in os.environ:
        cfg["out"] = os.environ["EGGIMPUTE_OUT"]
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value
    for key, low in (("ensemble", 1), ("knn_k", 1), ("runs", 1), ("seed", 0)):
        if not isinstance(cfg[key], int) or cfg[key] < low:
            raise ValueError(f"{key} must be an integer >= {low}, got {cfg[key]!r}")
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


def _prepare(cfg, mask_bits=None):
    """Load the table, mask it (corrupting afresh unless ``mask_bits`` is
    given), split, compute training-observed stats and z-score it."""
    ds, load_mask = dataio.load_csv(cfg["dataset"], cfg["schema"])
    if mask_bits is None:
        mask_bits = _corrupt(cfg, ds).bits
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
    mask_bits = missingness.load_mask(_require(rd / "mask.csv", "eggimpute corrupt")).bits
    return rd, _prepare(cfg, mask_bits)


def _train_config(cfg):
    """The config's ``train`` section for its model method, seeded from the run."""
    raw = dict(cfg.get("train") or {})
    model_raw = raw.pop("model", {})
    if "seed" in raw:
        raise ValueError("train.seed is set by the top-level 'seed'; remove it")
    if "sampler" in model_raw:
        raise ValueError("train.model.sampler is set by the top-level 'method'; remove it")
    model_raw = {**model_raw, "sampler": MODEL_METHODS[cfg["method"]]}
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
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    if args.from_txt:
        _write_wireless_csv(Path(args.from_txt).read_text(), out)
        print(f"wrote {out}")
        return 0
    try:
        payload = urllib.request.urlopen(url, timeout=60).read()
    except OSError as err:
        print(f"error: download failed ({err}); fetch wifi_localization.txt manually "
              f"and convert with `eggimpute fetch-wireless --from-txt <path>`", file=sys.stderr)
        return 1
    with zipfile.ZipFile(io.BytesIO(payload)) as zf:
        name = next(n for n in zf.namelist() if n.endswith(".txt"))
        text = zf.read(name).decode()
    _write_wireless_csv(text, out)
    print(f"wrote {out}")
    return 0


def _write_wireless_csv(text, out: Path):
    rows = [line.split() for line in text.strip().splitlines()]
    header = [f"wifi{i + 1}" for i in range(7)] + ["room"]
    with open(out, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    schema = {"columns": [{"name": f"wifi{i + 1}", "kind": "numerical"} for i in range(7)],
              "target": "room"}
    with open(out.with_suffix(".schema.json"), "w") as fh:
        json.dump(schema, fh, indent=2)


def cmd_corrupt(args):
    cfg = load_config(args.config, _overrides(args))
    ds, _ = dataio.load_csv(cfg["dataset"], cfg["schema"])
    mask = _corrupt(cfg, ds)
    rd = run_dir(cfg)
    rd.mkdir(parents=True, exist_ok=True)
    missingness.save_mask(mask, rd / "mask.csv")
    print(f"wrote {rd / 'mask.csv'} (missing fraction {mask.missing_fraction:.4f})")
    return 0


def cmd_train(args):
    cfg = load_config(args.config, _overrides(args))
    if cfg["method"] not in MODEL_METHODS:
        print(f"method {cfg['method']!r} needs no training; skipping")
        return 0
    rd, prep = _load_run(cfg)
    trained, seconds = _fit(cfg, prep)
    model.save_checkpoint(rd / "checkpoint.npz", trained.params,
                          extra={"best_val_loss": trained.best_val_loss,
                                 "best_epoch": trained.best_epoch,
                                 "train_seconds": seconds})
    with open(rd / "history.json", "w") as fh:
        json.dump({"config": trained.config.to_dict(), "train_seconds": seconds,
                   "stop_reason": trained.stop_reason, "epochs": trained.history}, fh, indent=2)
    print(f"wrote {rd / 'checkpoint.npz'} (best val loss {trained.best_val_loss:.4f} "
          f"at epoch {trained.best_epoch}, stopped on {trained.stop_reason}, {seconds:.1f}s)")
    return 0


def cmd_impute(args):
    cfg = load_config(args.config, _overrides(args))
    rd, prep = _load_run(cfg)
    ds = prep.ds
    params = None
    if cfg["method"] in MODEL_METHODS:
        params, _ = model.load_checkpoint(_require(rd / "checkpoint.npz", "eggimpute train"),
                                          ds.schema)
    imputed_z = _impute_all(cfg, cfg["method"], ds, prep.ds_norm, prep.mask, prep.train_rows,
                            prep.val_rows, params)
    np.save(rd / "imputed_z.npy", imputed_z)
    export = imputed_z.copy()
    for j in ds.numeric_idx:
        export[:, j] = dataio.denormalize_column(imputed_z[:, j], j, prep.stats)
    out_ds = dataio.TabularDataset(ds.schema, export, ds.targets, ds.num_classes,
                                   ds.target_categories)
    dataio.write_csv(out_ds, None, rd / "imputed.csv")
    print(f"wrote {rd / 'imputed.csv'}")
    return 0


def cmd_evaluate(args):
    cfg = load_config(args.config, _overrides(args))
    rd, prep = _load_run(cfg)
    imputed_z = np.load(_require(rd / "imputed_z.npy", "eggimpute impute"))
    report = _evaluate(cfg, prep, imputed_z)
    with open(rd / "report.json", "w") as fh:
        json.dump(report.__dict__, fh, indent=2, default=str)
    _append_result(Path(cfg["out"]) / "results.csv", report)
    print(json.dumps({k: getattr(report, k) for k in evaluation.LOWER_IS_BETTER}))
    return 0


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _append_result(path, report: evaluation.MetricReport):
    new = not Path(path).exists()
    with open(path, "a") as fh:
        if new:
            fh.write(",".join(RESULTS_COLUMNS) + "\n")
        fh.write(",".join(_format_cell(getattr(report, c)) for c in RESULTS_COLUMNS) + "\n")


def _parse_cell(column, text):
    if column in ("dataset", "mechanism", "method"):
        return text
    if not text:
        return None
    return int(text) if column == "seed" else float(text)


def _read_results(path):
    with open(path, newline="") as fh:
        return [evaluation.MetricReport(**{c: _parse_cell(c, row[c]) for c in RESULTS_COLUMNS})
                for row in csv.DictReader(fh)]


def run_single(cfg, dataset_spec, mechanism, rate, method, seed):
    """One full corrupt -> train -> impute -> evaluate pass, in memory."""
    cfg = {**cfg, "dataset": dataset_spec["csv"], "schema": dataset_spec["schema"],
           "name": dataset_spec["name"], "mechanism": mechanism, "rate": rate,
           "method": method, "seed": seed}
    prep = _prepare(cfg)
    params = train_seconds = None
    if method in MODEL_METHODS:
        trained, train_seconds = _fit(cfg, prep)
        params = trained.params
    t0 = time.perf_counter()
    imputed_z = _impute_all(cfg, method, prep.ds, prep.ds_norm, prep.mask, prep.train_rows,
                            prep.val_rows, params)
    inference_seconds = time.perf_counter() - t0
    rep = _evaluate(cfg, prep, imputed_z)
    rep.train_seconds, rep.inference_seconds = train_seconds, inference_seconds
    return rep


def _run_job(cfg, job):
    """A grid job's report, or the error that stopped it (module level, so
    worker processes can unpickle it)."""
    try:
        return run_single(cfg, *job), None
    except Exception as err:  # record, keep going
        return None, str(err)


def _benchmark_grid(cfg):
    grid = cfg.get("grid") or {}
    datasets = cfg.get("datasets")
    if not datasets:
        datasets = [{"name": _dataset_name(cfg), "csv": cfg["dataset"],
                     "schema": cfg["schema"]}]
    mechanisms = grid.get("mechanisms", [cfg["mechanism"]])
    rates = grid.get("rates", [cfg["rate"]])
    methods = grid.get("methods", [cfg["method"]])
    seeds = grid.get("seeds", [cfg["seed"] + i for i in range(cfg["runs"])])
    return list(itertools.product(datasets, mechanisms, rates, methods, seeds))


def cmd_benchmark(args):
    cfg = load_config(args.config, _overrides(args))
    jobs = _benchmark_grid(cfg)
    if not jobs:
        print("error: empty benchmark grid", file=sys.stderr)
        return 1
    out_root = Path(cfg["out"])
    out_root.mkdir(parents=True, exist_ok=True)
    job = functools.partial(_run_job, cfg)
    if args.workers > 1:
        import multiprocessing  # only worker pools need it; keeps CLI start-up short
        spawn = multiprocessing.get_context("spawn")  # fork may copy held BLAS locks
        with concurrent.futures.ProcessPoolExecutor(args.workers, spawn) as pool:
            outcomes = list(pool.map(job, jobs))
    else:
        outcomes = list(map(job, jobs))
    results_path = out_root / "results.csv"
    if results_path.exists():
        results_path.unlink()
    for rep, _ in outcomes:
        if rep is not None:
            _append_result(results_path, rep)
    failures = [(j, err) for j, (rep, err) in zip(jobs, outcomes) if rep is None]
    for j, err in failures:
        print(f"error: run {j} failed: {err}", file=sys.stderr)
    print(f"wrote {results_path} ({len(jobs) - len(failures)} rows)")
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
    print(f"{'method':<14}{'mean rank':>10}{'std':>8}{'wins':>6}")
    for method, stats in sorted(ranking.items(), key=lambda kv: kv[1]["mean_rank"]):
        print(f"{method:<14}{stats['mean_rank']:>10.3f}{stats['std_rank']:>8.3f}"
              f"{wins.get(method, 0):>6}")
    return 0


# -- argument parsing ---------------------------------------------------

def _overrides(args):
    keys = ("dataset", "schema", "name", "mechanism", "rate", "method", "seed", "runs",
            "ensemble", "out")
    return {k: getattr(args, k, None) for k in keys}


def _add_common(p):
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--dataset", help="dataset CSV path")
    p.add_argument("--schema", help="schema JSON path")
    p.add_argument("--name", help="dataset name for the run directory")
    p.add_argument("--mechanism", choices=list(missingness.MECHANISMS))
    p.add_argument("--rate", type=float)
    p.add_argument("--method", choices=ALL_METHODS)
    p.add_argument("--seed", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--ensemble", type=int, help="predictions per row at inference")
    p.add_argument("--out", help="output root; beats env EGGIMPUTE_OUT, which beats the config")


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
    p.add_argument("--workers", type=int, default=1)
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
    except (FileNotFoundError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
