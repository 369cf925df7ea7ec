import argparse
import contextlib
import csv
import io
import json
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eggimpute import cli, dataio, evaluation, missingness, training


FAST_TRAIN = {"batch_size": 32, "max_epochs": 2, "patience": 5,
              "model": {"hidden": 10, "prototypes": 2, "embed_width": 4, "k": 3}}


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["make-synthetic", "--rows", "60", "--cols", "4",
                     "--output", "data/synth.csv"]) == 0
    config = {"dataset": "data/synth.csv", "schema": "data/synth.schema.json",
              "mechanism": "mcar", "rate": 0.2, "seed": 0, "out": "runs",
              "ensemble": 2, "train": FAST_TRAIN}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, str(cfg_path)


def test_make_synthetic_writes_loadable_dataset(workspace):
    root, _ = workspace
    ds, mask = dataio.load_csv(root / "data/synth.csv", root / "data/synth.schema.json")
    assert ds.n_rows == 60 and ds.n_cols == 4
    assert mask.all()
    assert ds.num_classes == 2


def test_make_synthetic_rejects_zero_feature_columns(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for rows, cols, flag, value in (("20", "0", "--cols", "0"), ("0", "4", "--rows", "0"),
                                    ("-1", "4", "--rows", "-1"), ("20", "-2", "--cols", "-2")):
        assert cli.main(["make-synthetic", "--rows", rows, "--cols", cols,
                         "--output", "data/flat.csv"]) == 1
        assert capsys.readouterr().err == f"error: {flag} must be at least 1, got {value}\n"
    assert list(tmp_path.iterdir()) == []


def test_fetch_wireless_from_txt(tmp_path):
    txt = tmp_path / "wifi_localization.txt"
    txt.write_text("-64 -56 -61 -66 -71 -82 -81 1\n"
                   "-68 -57 -61 -65 -71 -85 -85 2\n")
    out = tmp_path / "wireless.csv"
    assert cli.main(["fetch-wireless", "--from-txt", str(txt),
                     "--output", str(out)]) == 0
    ds, mask = dataio.load_csv(out, out.with_suffix(".schema.json"))
    assert ds.n_rows == 2 and ds.n_cols == 7
    assert all(c.kind == "numerical" for c in ds.schema)
    assert ds.num_classes == 2
    assert mask.all()
    assert [c.name for c in ds.schema] == [f"wifi{i}" for i in range(1, 8)]
    assert ds.values.tolist() == [[-64, -56, -61, -66, -71, -82, -81],
                                  [-68, -57, -61, -65, -71, -85, -85]]
    assert [ds.target_categories[t] for t in ds.targets] == ["1", "2"]


@pytest.mark.parametrize("text, line", [
    ("", 1), ("\n", 1), ("1\n2\n", 1), ("-64 -56 1\n-68 2\n", 2),
    ("-64 -56 1\n\n-68 -57 2\n", 2), ("-64 -56 1\n-68 x 2\n", 2), ("-64 -56 1\n-68 nan 2\n", 2)],
    ids=["empty", "blank", "no_signal", "ragged", "blank_between", "not_a_number", "nan"])
def test_fetch_wireless_rejects_a_table_without_signals_and_rooms(tmp_path, capsys, text, line):
    """A bad line is one error naming the file and the line, before any file is
    written: a ragged line or a blank one failed inside numpy, and a ``nan``
    signal wrote a table that ``corrupt`` then refused."""
    txt = tmp_path / "wifi_localization.txt"
    txt.write_text(text)
    out = tmp_path / "wireless.csv"
    assert cli.main(["fetch-wireless", "--from-txt", str(txt), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "needs signal strengths and a room on each line" in err
    assert err.startswith(f"error: {txt} line {line}: ") and err.count("\n") == 1
    assert not out.exists()


def test_corrupt_writes_mask(workspace):
    root, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0
    mask_path = root / "runs/synth/mcar/0.2/egg/0/mask.csv"
    assert mask_path.exists()
    assert mask_path.read_text().startswith("# mechanism=mcar rate=0.2\n")
    bits = missingness.load_mask(mask_path)
    assert bits.dtype == np.int8 and bits.shape == (60, 4)
    assert 0.1 < 1 - bits.mean() < 0.3


def test_a_mask_cell_other_than_0_or_1_is_refused_by_file_and_cell(workspace, capsys):
    """Such a cell was neither imputed nor scored, and the run still exited 0."""
    _, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0
    mask_path = Path("runs/synth/mcar/0.2/egg/0/mask.csv")
    bits = missingness.load_mask(mask_path)
    bits[0, 0], bits[1, 1] = 2, -1
    missingness.save_mask(bits, "mcar", 0.2, mask_path)
    capsys.readouterr()
    for command in ("train", "impute", "evaluate"):
        assert cli.main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (f"error: {mask_path} holds 2 at row 0, column 0, "
                                           "but a mask cell is 0 (missing) or 1 (observed)\n")
    assert sorted(p.name for p in mask_path.parent.iterdir()) == ["mask.csv"]


def test_train_requires_mask(workspace):
    _, cfg = workspace
    assert cli.main(["train", "--config", cfg]) == 1  # corrupt not run yet


@pytest.mark.parametrize("command", ["train", "impute", "evaluate"])
def test_commands_before_corrupt_create_nothing(workspace, command):
    root, cfg = workspace
    assert cli.main([command, "--config", cfg, "--out", "fresh"]) == 1
    assert not (root / "fresh").exists()


def test_full_pipeline_model_method(workspace, capsys):
    root, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg]) == 0
    assert "stopped on max_epochs" in capsys.readouterr().out
    rd = root / "runs/synth/mcar/0.2/egg/0"
    assert (rd / "checkpoint.npz").exists()
    history = json.loads((rd / "history.json").read_text())
    assert history["stop_reason"] == "max_epochs" and len(history["epochs"]) == 2
    assert cli.main(["impute", "--config", cfg]) == 0
    assert (rd / "imputed.csv").exists()
    imputed_z = np.load(rd / "imputed_z.npy")
    assert np.isfinite(imputed_z).all()
    assert cli.main(["evaluate", "--config", cfg]) == 0
    report = json.loads((rd / "report.json").read_text())
    assert report["method"] == "egg"
    assert report["rmse"] is not None
    results = (root / "runs/results.csv").read_text().splitlines()
    assert results[0].startswith("dataset,mechanism,rate,method")
    assert len(results) == 2


@pytest.mark.parametrize("method", ["mean", "knn"])
def test_pipeline_baseline_methods(workspace, method):
    root, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg, "--method", method]) == 0
    assert cli.main(["impute", "--config", cfg, "--method", method]) == 0
    assert cli.main(["evaluate", "--config", cfg, "--method", method]) == 0
    rd = root / f"runs/synth/mcar/0.2/{method}/0"
    report = json.loads((rd / "report.json").read_text())
    assert report["rmse"] is not None


def test_benchmark_and_report(workspace):
    root, cfg = workspace
    Path(cfg).write_text(json.dumps({**json.loads(Path(cfg).read_text()),
                                     "grid": {"seeds": [0, 1]}}))
    assert cli.main(["benchmark", "--config", cfg, "--method", "mean"]) == 0
    results = root / "runs/results.csv"
    lines = results.read_text().splitlines()
    assert len(lines) == 3  # header + 2 seeds
    # add a second method so aggregation has a contest
    assert cli.main(["benchmark", "--config", cfg, "--method", "knn",
                     "--out", "runs_knn"]) == 0
    merged = root / "merged.csv"
    knn_lines = (root / "runs_knn/results.csv").read_text().splitlines()
    merged.write_text("\n".join(lines + knn_lines[1:]) + "\n")
    assert cli.main(["report", "--results", str(merged)]) == 0
    summary = json.loads((root / "summary.json").read_text())
    assert set(summary) == {"count_of_wins", "unified_average_ranking", "timing"}
    assert set(summary["unified_average_ranking"]) == {"mean", "knn"}


def test_benchmark_grid_enumeration():
    cfg = {"dataset": "d.csv", "schema": "d.json", "mechanism": "mcar", "rate": 0.2,
           "method": "egg", "seed": 3,
           "grid": {"mechanisms": ["mcar", "mnar"], "rates": [0.1, 0.2],
                    "methods": ["mean", "knn"], "seeds": [3, 4]}}
    jobs = cli._benchmark_grid(cfg)
    # datasets x mech x rates x methods x seeds, the last axis varying fastest
    assert jobs == [{**cfg, "dataset": "d.csv", "schema": "d.json", "name": "d",
                     "mechanism": mechanism, "rate": rate, "method": method, "seed": seed}
                    for mechanism in ("mcar", "mnar") for rate in (0.1, 0.2)
                    for method in ("mean", "knn") for seed in (3, 4)]
    del cfg["grid"]["seeds"]  # an axis the grid leaves out takes the top-level setting
    assert [j["seed"] for j in cli._benchmark_grid(cfg)] == [3] * 8


def test_report_rejects_a_run_evaluated_twice(workspace, capsys):
    """`evaluate` appends its row each time it runs; counting a repeated run twice would
    double its wins and rank two methods over 1-3."""
    root, cfg = workspace
    for method, evaluations in (("mean", 2), ("knn", 1)):
        for step in ["corrupt", "impute"] + ["evaluate"] * evaluations:
            assert cli.main([step, "--config", cfg, "--method", method]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--results", "runs/results.csv"]) == 1
    assert capsys.readouterr().err == (
        "error: the run synth/mcar/0.2/mean/0 has more than one row; "
        "each run may be counted once\n")
    assert not (root / "runs/summary.json").exists()


def test_report_with_nothing_to_rank_says_so(workspace, capsys):
    root, cfg = workspace
    assert cli.main(["benchmark", "--config", cfg, "--method", "mean"]) == 0
    capsys.readouterr()
    assert cli.main(["report", "--results", "runs/results.csv"]) == 0
    out = capsys.readouterr().out
    assert "nothing to rank" in out and "mean rank" not in out
    summary = json.loads((root / "runs/summary.json").read_text())
    assert summary["count_of_wins"] == {} and summary["unified_average_ranking"] == {}


def test_benchmark_deterministic_results_csv(workspace):
    """Two identical runs must produce byte-identical CSVs apart from the
    timing columns."""
    root, cfg = workspace
    outputs = []
    for tag in ("a", "b"):
        assert cli.main(["benchmark", "--config", cfg, "--method", "knn",
                         "--out", f"runs_{tag}"]) == 0
        lines = (root / f"runs_{tag}/results.csv").read_text().splitlines()
        outputs.append(["," .join(line.split(",")[:-2]) for line in lines])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("content, found", [("[1, 2]", "found an array"),
                                            ("null", "found null"),
                                            ('"x"', "found a string"),
                                            (None, "Is a directory")])
def test_a_config_that_is_not_a_json_object_is_one_error_line(tmp_path, monkeypatch, capsys,
                                                               content, found):
    """``None`` names a directory, which ``open`` refuses with an OSError."""
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "config.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content)
    assert cli.main(["corrupt", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and found in err


def test_config_flag_overrides_file(workspace):
    _, cfg = workspace
    loaded = cli.load_config(cfg, {"rate": 0.4, "seed": None})
    assert loaded["rate"] == 0.4
    assert loaded["seed"] == 0  # None overrides are ignored


def test_benchmark_rejects_zero_ensemble_before_training(workspace, monkeypatch, capsys):
    """Every job would fail at inference, so none may train first."""
    _, cfg = workspace
    calls = []
    monkeypatch.setattr(training, "train", lambda *args: calls.append(args))
    assert cli.main(["benchmark", "--config", cfg, "--ensemble", "0"]) == 1
    assert calls == []
    assert "ensemble must be an integer >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", [0, 1.5])
@pytest.mark.parametrize("key", ["ensemble", "knn_k"])
def test_config_rejects_counts_that_are_not_positive_integers(workspace, key, value):
    _, cfg = workspace
    with pytest.raises(ValueError, match=f"{key} must be an integer >= 1"):
        cli.load_config(cfg, {key: value})


@pytest.mark.parametrize("key, value, message", [
    ("seed", "3", "seed must be an integer >= 0, got '3'"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
    *[(key, flag, f"{key} must be an integer >= {low}, got {flag!r}")  # bool is an int
      for key, low in (("ensemble", 1), ("knn_k", 1), ("seed", 0))
      for flag in (True, False)],
])
def test_benchmark_rejects_bad_runs_and_seed_before_training(workspace, monkeypatch, capsys,
                                                             key, value, message):
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config[key] = value
    Path(cfg).write_text(json.dumps(config))
    calls = []
    monkeypatch.setattr(training, "train", lambda *args: calls.append(args))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    assert calls == []
    assert f"error: {message}" in capsys.readouterr().err
    assert not (root / "runs").exists()


def test_corrupt_rejects_a_rate_that_is_not_a_number(workspace, capsys):
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config["rate"] = "0.2"
    Path(cfg).write_text(json.dumps(config))
    assert cli.main(["corrupt", "--config", cfg]) == 1
    assert "error: rate must be in [0, 1), got '0.2'" in capsys.readouterr().err
    assert not list(root.glob("runs/**/mask.csv"))


@pytest.mark.parametrize("train, message", [
    ({"batch_sz": 32}, "unknown train setting(s): batch_sz"),
    ({"model": {"hiden": 10}}, "unknown train.model setting(s): hiden"),
    ({"weights": {"triplett": 0.1}}, "unknown train.weights setting(s): triplett"),
    ({"batch_size": 0}, "batch_size and max_epochs must be >= 1"),
    ({"max_epochs": 0}, "batch_size and max_epochs must be >= 1"),
    ({"seed": 12345}, "train.seed is set by the top-level 'seed'"),
    ({"model": {"sampler": "kegg"}}, "train.model.sampler is set by the top-level 'method'"),
    ({"learning_rate": True}, "train.learning_rate must be float, got True"),
    ({"weights": {"triplet": "0.1"}}, "train.weights.triplet must be float, got '0.1'"),
    ({"learning_rate": -1}, "learning_rate must be finite and > 0, got -1"),
    ({"learning_rate": float("nan")}, "learning_rate must be finite and > 0, got nan"),
    ({"tau_start": float("inf")}, "need finite tau_start > tau_end > 0"),
    ({"patience": -3}, "patience must be >= 0, got -3"),
    ({"model": {"embed_width": -2}}, "hidden/blocks/embed_width must be >= 1"),
    ({"weights": {"margin": -1}}, "weights.margin must be finite and >= 0, got -1"),
    ({"weights": {"homophily": float("nan")}}, "weights.homophily must be finite and >= 0"),
])
def test_train_rejects_invalid_train_config(workspace, capsys, train, message):
    """Every command that reads the config builds the train section, so
    ``corrupt`` fails on it too, before it writes a mask."""
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config["train"] = {**FAST_TRAIN, **train}
    Path(cfg).write_text(json.dumps(config))
    for command in ("corrupt", "train"):
        assert cli.main([command, "--config", cfg]) == 1, command
        assert f"error: {message}" in capsys.readouterr().err, command
    assert not (root / "runs").exists()


def test_kegg_k_below_one_fails_before_any_file(workspace, capsys):
    """The train section is checked with the sampler of every model method the
    config can run, so k = 0 fails up front for kegg, in a grid or alone."""
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config["train"] = {**FAST_TRAIN, "model": {**FAST_TRAIN["model"], "k": 0}}
    Path(cfg).write_text(json.dumps({**config, "grid": {"methods": ["mean", "kegg"]}}))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    Path(cfg).write_text(json.dumps({**config, "method": "kegg"}))
    assert cli.main(["corrupt", "--config", cfg]) == 1
    message = "error: kegg needs k >= 1 neighbors per node, got k=0"
    assert capsys.readouterr().err.splitlines() == [message, message]
    assert not (root / "runs").exists()
    Path(cfg).write_text(json.dumps({**config, "grid": {"methods": ["mean", "egg"]}}))
    assert cli.main(["corrupt", "--config", cfg]) == 0  # no kegg job: k is unused


@pytest.mark.parametrize("rows, cols", [(80, 4), (60, 5)])
def test_evaluate_rejects_the_imputation_of_another_table(workspace, capsys, rows, cols):
    root, cfg = workspace
    flags = ["--config", cfg, "--method", "mean"]
    for command in ("corrupt", "impute"):
        assert cli.main([command, *flags]) == 0
    assert cli.main(["make-synthetic", "--rows", str(rows), "--cols", str(cols),
                     "--output", "data/synth.csv"]) == 0
    assert cli.main(["corrupt", *flags]) == 0
    capsys.readouterr()
    assert cli.main(["evaluate", *flags]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: imputed_z.npy has shape (60, 4) but the table has shape ({rows}, {cols}); "
        f"rerun `eggimpute impute` on this table"]
    assert not (root / "runs" / "results.csv").exists()


def _save_npz(path, imputed_z, mask):
    with open(path, "wb") as fh:
        np.savez(fh, imputed_z)
    return "is not a saved array ("


def _truncate(path, imputed_z, mask):
    path.write_bytes(path.read_bytes()[:-8])
    return "is not a saved array ("


def _save_strings(path, imputed_z, mask):
    np.save(path, np.full(imputed_z.shape, "x"))
    return "holds <U1 values, not floats"


def _save_integers(path, imputed_z, mask):
    np.save(path, imputed_z.astype(np.int64))
    return "holds int64 values, not floats"


def _hide_nan(path, imputed_z, mask):
    imputed_z[mask == 0] = np.nan
    np.save(path, imputed_z)
    row, col = np.argwhere(mask == 0)[0]
    return f"holds nan at row {row}, column {col}, but an imputed cell is finite"


@pytest.mark.parametrize("damage", [_save_npz, _truncate, _save_strings, _save_integers,
                                    _hide_nan])
def test_evaluate_rejects_an_imputation_that_impute_did_not_write(workspace, capsys, damage):
    """One error line naming the file, and no report written or appended."""
    root, cfg = workspace
    flags = ["--config", cfg, "--method", "mean"]
    for command in ("corrupt", "impute"):
        assert cli.main([command, *flags]) == 0
    rd = Path("runs/synth/mcar/0.2/mean/0")
    path = rd / "imputed_z.npy"
    expected = damage(path, np.load(path), missingness.load_mask(rd / "mask.csv"))
    capsys.readouterr()
    assert cli.main(["evaluate", *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} {expected}"), err
    assert err.endswith("; rerun `eggimpute impute`\n") and err.count("\n") == 1
    assert not (rd / "report.json").exists() and not (root / "runs/results.csv").exists()


def test_a_one_row_table_corrupts_but_fails_to_split(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["make-synthetic", "--rows", "1", "--output", "data/one.csv"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": "data/one.csv", "schema": "data/one.schema.json",
                               "train": FAST_TRAIN}))
    assert cli.main(["corrupt", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == \
        "error: a train/validation split needs at least 2 rows, got 1\n"


def test_benchmark_rejects_a_one_row_table_once_before_any_job(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["make-synthetic", "--rows", "1", "--output", "data/one.csv"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"dataset": "data/one.csv", "schema": "data/one.schema.json",
                               "train": FAST_TRAIN, "grid": {"methods": ["mean", "knn"]}}))
    capsys.readouterr()
    assert cli.main(["benchmark", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == \
        "error: data/one.csv: a train/validation split needs at least 2 rows, got 1\n"
    assert not (tmp_path / "runs").exists()


def test_benchmark_rejects_a_missing_table_before_any_job(mixed_config, monkeypatch, capsys):
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config["datasets"] = [{"name": "mixed", "csv": "mixed.csv", "schema": "mixed.schema.json"},
                          {"name": "gone", "csv": "gone.csv", "schema": "mixed.schema.json"}]
    (root / cfg).write_text(json.dumps(config))
    calls = []
    monkeypatch.setattr(cli, "run_single", lambda *args: calls.append(args))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "gone.csv" in err
    assert calls == []
    assert not (root / "runs").exists()


def test_benchmark_parses_each_distinct_table_once(mixed_config, monkeypatch):
    """Two dataset names on the same files and two methods make four jobs,
    which all run on the one table loaded up front."""
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config["datasets"] = [{"name": name, "csv": "mixed.csv", "schema": "mixed.schema.json"}
                          for name in ("a", "b")]
    config["grid"] = {"methods": ["mean", "knn"]}
    (root / cfg).write_text(json.dumps(config))
    loads = []
    original = dataio.load_csv
    monkeypatch.setattr(dataio, "load_csv", lambda *args: loads.append(args) or original(*args))
    assert cli.main(["benchmark", "--config", cfg]) == 0
    assert loads == [("mixed.csv", "mixed.schema.json")]
    rows = cli._read_results(root / "runs/results.csv")
    assert [(r.dataset, r.method) for r in rows] == [("a", "mean"), ("a", "knn"),
                                                     ("b", "mean"), ("b", "knn")]
    assert [r.rmse for r in rows[:2]] == [r.rmse for r in rows[2:]]


def test_benchmark_flags_beat_the_grid_lists_they_vary(mixed_config):
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config["grid"].update(rates=[0.1, 0.6], seeds=[0, 1])
    (root / cfg).write_text(json.dumps(config))
    assert cli.main(["benchmark", "--config", cfg, "--method", "mean", "--rate", "0.3"]) == 0
    rows = cli._read_results(root / "runs/results.csv")
    assert [(r.method, r.rate, r.seed) for r in rows] == [("mean", 0.3, 0), ("mean", 0.3, 1)]


def test_benchmark_table_flags_beat_the_datasets_list(mixed_config):
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config.update(grid={"methods": ["mean"]},
                  datasets=[{"name": "gone", "csv": "gone.csv", "schema": "gone.schema.json"}])
    (root / cfg).write_text(json.dumps(config))
    assert cli.main(["benchmark", "--config", cfg, "--dataset", "mixed.csv",
                     "--schema", "mixed.schema.json"]) == 0
    assert [r.dataset for r in cli._read_results(root / "runs/results.csv")] == ["mixed"]
    assert cli.main(["benchmark", "--config", cfg, "--name", "solo"]) == 0
    assert [r.dataset for r in cli._read_results(root / "runs/results.csv")] == ["solo"]


def test_a_failed_job_names_its_run_path(mixed_config, capsys):
    """A learning rate of 1e300 makes the egg job's first step non-finite, a
    failure that only training can find; the knn job runs."""
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config.update(grid={"mechanisms": ["mar"], "methods": ["knn", "egg"]},
                  datasets=[{"name": "a", "csv": "mixed.csv", "schema": "mixed.schema.json"}],
                  train={**config["train"], "learning_rate": 1e300})
    (root / cfg).write_text(json.dumps(config))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: run a/mar/0.2/egg/0 failed: ")
    assert "non-finite" in err[0]


@pytest.mark.parametrize("cols,rates,message", [
    (1, [0.2], "MAR needs at least 2 columns"),
    (4, [0.2, 0.95], "rate 0.95 unreachable with 3 corruptible columns")],
    ids=["one-column", "rate-0.95"])
def test_a_table_mar_cannot_corrupt_fails_before_any_job(tmp_path, monkeypatch, capsys, cols,
                                                         rates, message):
    """MAR keeps 30% of the columns (at least one) observed: a one-column table
    has none to corrupt, and on four columns the other three cannot carry a
    rate of 0.95.  The table decides this, so no MCAR job runs first."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["make-synthetic", "--rows", "60", "--cols", str(cols),
                     "--output", "t.csv"]) == 0
    (tmp_path / "config.json").write_text(json.dumps({
        "dataset": "t.csv", "schema": "t.schema.json", "out": "out", "method": "mean",
        "grid": {"mechanisms": ["mcar", "mar"], "rates": rates, "methods": ["mean"]}}))
    capsys.readouterr()
    assert cli.main(["benchmark", "--config", "config.json"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_train_with_a_triplet_term_fails_through_the_non_finite_path(tmp_path, monkeypatch,
                                                                     capsys):
    """A learning rate of 1e300 makes the first step's projections NaN; the
    triplet term then reports a non-finite loss like any other term."""
    monkeypatch.chdir(tmp_path)
    assert cli.main(["make-synthetic", "--rows", "200", "--output", "data/synth.csv"]) == 0
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "dataset": "data/synth.csv", "schema": "data/synth.schema.json",
        "train": {"batch_size": 64, "learning_rate": 1e300, "weights": {"triplet": 0.1},
                  "model": {"hidden": 16, "prototypes": 2}}}))
    assert cli.main(["corrupt", "--config", str(cfg)]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: training failed before its first epoch completed: "
                          "non-finite loss term")


def test_stage_seeds_are_distinct():
    seeds = {cli._stage_seed_int(0, stage)
             for stage in ("corrupt", "split", "train", "ensemble", "forest")}
    assert len(seeds) == 5


def test_train_fails_when_the_first_step_is_non_finite(workspace, monkeypatch, capsys):
    """No epoch completed, so there is no trained model to save."""
    root, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0

    def failing_step(params, state, lr):
        raise FloatingPointError("non-finite gradient for parameter 'w'")

    monkeypatch.setattr(training, "rmsprop_step", failing_step)
    assert cli.main(["train", "--config", cfg]) == 1
    assert "before its first epoch completed" in capsys.readouterr().err
    assert not (root / "runs/synth/mcar/0.2/egg/0/checkpoint.npz").exists()


def test_missing_artifact_message(workspace, capsys):
    _, cfg = workspace
    assert cli.main(["impute", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "corrupt" in err


def test_the_environment_does_not_move_the_output_root(workspace, monkeypatch):
    """The output root comes from the config's ``out`` or ``--out``, never from
    the environment, so a run is described by its config and flags alone."""
    root, cfg = workspace
    monkeypatch.setenv("EGGIMPUTE_OUT", "elsewhere")
    assert cli.main(["corrupt", "--config", cfg]) == 0
    assert (root / "runs/synth/mcar/0.2/egg/0/mask.csv").exists()
    assert cli.main(["corrupt", "--config", cfg, "--out", "flagout"]) == 0
    assert (root / "flagout/synth/mcar/0.2/egg/0/mask.csv").exists()
    assert not (root / "elsewhere").exists()


def test_benchmark_has_no_runs_flag(workspace, capsys):
    """Seeds are listed in ``grid.seeds``; ``--runs`` is an unknown flag."""
    root, cfg = workspace
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["benchmark", "--config", cfg, "--runs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --runs 2" in capsys.readouterr().err
    assert not (root / "runs").exists()


def test_mask_of_another_table_fails_with_both_shapes(workspace, capsys):
    _, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0
    assert cli.main(["make-synthetic", "--rows", "50", "--cols", "4",
                     "--output", "data/synth.csv"]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "(60, 4)" in err and "(50, 4)" in err and "eggimpute corrupt" in err


def test_knn_fallback_uses_training_split_stats():
    """Rows 0 and 1 are each other's only donor and both miss column 1, so
    KNN falls back to the column mean: 1.5 over the training rows, not
    8.25 over all rows."""
    schema = [dataio.ColumnSchema("a", dataio.NUMERICAL),
              dataio.ColumnSchema("b", dataio.NUMERICAL)]
    values = np.array([[0.0, np.nan], [0.1, np.nan], [5.0, 1.0], [6.0, 2.0],
                       [10.0, 10.0], [11.0, 20.0]])
    ds = dataio.TabularDataset(schema, values, np.array([0, 0, 1, 1, 0, 1]), 2)
    mask = np.isfinite(values).astype(np.int8)
    train_rows, val_rows = np.arange(4), np.arange(4, 6)
    for method in ("knn", "mean"):
        imputed = cli._impute_all({"knn_k": 1}, method, ds, ds, mask, train_rows, val_rows,
                                  None)
        assert imputed[0, 1] == imputed[1, 1] == 1.5


@pytest.fixture
def mixed_config(tmp_path, monkeypatch):
    """A 90-row table with a categorical column and a two-job-per-method grid."""
    monkeypatch.chdir(tmp_path)
    ds = dataio.make_two_cluster(n=90, d=4, seed=1)
    ds.values[:, 3] = np.digitize(ds.values[:, 3], [-1.0, 1.0])
    ds.schema[3] = dataio.ColumnSchema("f3", dataio.CATEGORICAL, 3, ["lo", "mid", "hi"])
    dataio.write_csv(ds, None, "mixed.csv", "mixed.schema.json")
    config = {"dataset": "mixed.csv", "schema": "mixed.schema.json", "mechanism": "mcar",
              "rate": 0.2, "seed": 0, "out": "runs", "ensemble": 2, "train": FAST_TRAIN,
              "grid": {"methods": ["egg", "kegg", "mean", "knn"]}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    return tmp_path, "config.json"


def _results(path):
    """results.csv rows without the timing columns."""
    return [line.split(",")[:-2] for line in path.read_text().splitlines()]


def test_stepwise_commands_and_benchmark_agree(mixed_config):
    root, cfg = mixed_config
    assert cli.main(["benchmark", "--config", cfg, "--out", "grid"]) == 0
    grid = {r.method: r for r in cli._read_results(root / "grid/results.csv")}
    metrics = ("rmse", "mae", "cat_accuracy", "downstream_accuracy")
    for method in ("egg", "kegg", "mean", "knn"):
        for step in ("corrupt", "train", "impute", "evaluate"):
            assert cli.main([step, "--config", cfg, "--method", method]) == 0
        report = json.loads((root / f"runs/mixed/mcar/0.2/{method}/0/report.json").read_text())
        assert report["cat_accuracy"] is not None
        assert {k: report[k] for k in metrics} == \
            {k: getattr(grid[method], k) for k in metrics}, method


def test_benchmark_records_failures_and_keeps_going(mixed_config, capsys):
    """A learning rate of 1e300 makes each egg job's first step non-finite."""
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config["grid"] = {"mechanisms": ["mar"], "methods": ["mean", "egg"], "seeds": [0, 1]}
    config["train"] = {**config["train"], "learning_rate": 1e300}
    (root / cfg).write_text(json.dumps(config))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("error: run") == 2 and err.count("non-finite") == 2
    rows = _results(root / "runs/results.csv")[1:]
    assert sorted((r[3], r[4]) for r in rows) == [("mean", "0"), ("mean", "1")]


def test_benchmark_records_a_rate_that_is_not_a_number(mixed_config, monkeypatch, capsys):
    """A grid entry obeys the rule of the setting it varies, checked before any job."""
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config["grid"] = {"rates": ["0.2"], "methods": ["mean"]}
    (root / cfg).write_text(json.dumps(config))
    calls = []
    monkeypatch.setattr(cli, "run_single", lambda *args: calls.append(args))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert "error: rate must be in [0, 1), got '0.2'" in err and "error: run" not in err
    assert calls == []
    assert not (root / "runs").exists()


def test_benchmark_where_every_run_fails_says_it_wrote_no_results(workspace, capsys):
    """A learning rate of 1e300 makes every job's first step non-finite; the
    stale results file goes and none takes its place."""
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config.update(method="egg", grid={"mechanisms": ["mcar", "mar"]},
                  train={**config["train"], "learning_rate": 1e300})
    Path(cfg).write_text(json.dumps(config))
    (root / "runs").mkdir()
    (root / "runs/results.csv").write_text("stale\n")
    capsys.readouterr()
    assert cli.main(["benchmark", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert err.count("error: run") == 2 and err.count("non-finite") == 2
    assert "wrote runs" not in out and "wrote no results" in out
    assert not (root / "runs/results.csv").exists()


def test_train_records_the_best_epoch_in_history_and_only_the_model_in_the_checkpoint(
        workspace, monkeypatch):
    root, cfg = workspace
    trained = []
    original = training.train

    def spy(*args):
        trained.append(original(*args))
        return trained[-1]

    monkeypatch.setattr(training, "train", spy)
    assert cli.main(["corrupt", "--config", cfg]) == 0
    assert cli.main(["train", "--config", cfg]) == 0
    rd = root / "runs/synth/mcar/0.2/egg/0"
    history = json.loads((rd / "history.json").read_text())
    assert (history["best_epoch"], history["best_val_loss"]) == \
        (trained[0].best_epoch, trained[0].best_val_loss)
    with np.load(rd / "checkpoint.npz") as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
    assert set(meta) == {"version", "config", "num_classes"}


# -- results.csv --------------------------------------------------------

_cells = st.text(st.sampled_from(',"\n\r') | st.characters(blacklist_categories=("Cs",)))
_metric = st.none() | st.floats(allow_nan=False, allow_infinity=False)
_reports = st.builds(evaluation.MetricReport, _cells, _cells,
                     st.floats(allow_nan=False, allow_infinity=False), _cells,
                     st.integers(min_value=0), _metric, _metric, _metric, _metric, _metric,
                     _metric)


@given(st.lists(_reports, min_size=1, max_size=4))
def test_results_round_trip_through_csv(reports):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.csv"
        for rep in reports:
            cli._append_result(path, rep)
        assert cli._read_results(path) == reports


def test_results_rows_are_pinned_bytes(tmp_path):
    """Criterion 11 compares these bytes: unquoted names, floats by repr, None empty."""
    path = tmp_path / "results.csv"
    cli._append_result(path, evaluation.MetricReport("table", "mnar", 0.2, "kegg", 0, 1 / 3,
                                                     0.25, None, 0.9, 1.5, None))
    cli._append_result(path, evaluation.MetricReport('a,"b"', "mcar", 0.1, "mean", 7))
    assert path.read_bytes() == (
        b"dataset,mechanism,rate,method,seed,rmse,mae,cat_accuracy,downstream_accuracy,"
        b"train_seconds,inference_seconds\n"
        b"table,mnar,0.2,kegg,0,0.3333333333333333,0.25,,0.9,1.5,\n"
        b'"a,""b""",mcar,0.1,mean,7,,,,,,\n')


def test_benchmark_and_report_with_a_comma_in_the_dataset_name(workspace, capsys):
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config.update(name="a,b", grid={"methods": ["mean", "knn"]})
    Path(cfg).write_text(json.dumps(config))
    assert cli.main(["benchmark", "--config", cfg]) == 0
    assert [r.dataset for r in cli._read_results(root / "runs/results.csv")] == ["a,b"] * 2
    assert cli.main(["report", "--results", "runs/results.csv"]) == 0
    summary = json.loads((root / "runs/summary.json").read_text())
    assert set(summary["unified_average_ranking"]) == {"mean", "knn"}


@pytest.mark.parametrize("text, message", [
    ("dataset,mechanism,rate,method,seed,rmse\nd,mcar,0.2,mean,0,0.5\n",
     "has columns ['dataset', 'mechanism', 'rate', 'method', 'seed', 'rmse'], "
     f"expected {cli.RESULTS_COLUMNS}"),
    (",".join(cli.RESULTS_COLUMNS) + "\nd,mcar,0.2,mean\n", "cells do not match its header"),
    (",".join(cli.RESULTS_COLUMNS) + "\nd,mcar,0.2,mean,0,,,,,,\nd,mcar,abc,mean,0,,,,,,\n",
     "holds 'abc' at row 1, column rate, but that column holds float values"),
    (",".join(cli.RESULTS_COLUMNS) + "\nd,mcar,0.2,mean,1.5,,,,,,\n",
     "holds '1.5' at row 0, column seed, but that column holds int values"),
], ids=["missing_columns", "short_row", "rate_cell", "seed_cell"])
def test_report_rejects_a_results_file_that_does_not_match_the_columns(tmp_path, capsys, text,
                                                                       message):
    path = tmp_path / "results.csv"
    path.write_text(text)
    assert cli.main(["report", "--results", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} ") and message in err and err.count("\n") == 1
    assert not (tmp_path / "summary.json").exists()


# -- settings -----------------------------------------------------------

@pytest.mark.parametrize("change, message", [
    ({"method": "eg"}, "unknown method 'eg'; choose from egg, kegg, nn_ablation, mean, knn"),
    ({"mechanism": "mcra"}, "unknown mechanism 'mcra'; choose from mcar, mar, mnar"),
    ({"grid": {"methods": ["mean", "eg"]}}, "unknown method 'eg'"),
    ({"grid": {"mechanisms": ["mcar", "mnra"]}}, "unknown mechanism 'mnra'"),
    ({"ensembel": 3}, "unknown setting(s): ensembel"),
    ({"runs": 2}, "unknown setting(s): runs"),  # seeds are listed in grid.seeds
    ({"dataset": None}, "set 'dataset' and 'schema', or 'datasets'"),
    ({"schema": None}, "set 'dataset' and 'schema', or 'datasets'"),
    ({"out": 3}, "out must be a string, got 3"),
    ({"name": 3}, "name must be a string, got 3"),
    ({"dataset": ["data/synth.csv"]}, "dataset must be a string, got ['data/synth.csv']"),
    ({"method": 3}, "method must be a string, got 3"),
    ({"grid": [1]}, "grid must map some of mechanisms, rates, methods and seeds to lists"),
    ({"grid": []}, "grid must map some of mechanisms, rates, methods and seeds to lists"),
    ({"grid": {"rates": 0.2}}, "grid must map some of mechanisms, rates, methods and seeds"),
    ({"grid": {"ratez": [0.1, 0.3]}}, "grid must map some of mechanisms, rates, methods and"),
    ({"datasets": [{"csv": "data/synth.csv", "schema": "data/synth.schema.json"}]},
     "datasets must be a list of objects, each with string 'name', 'csv' and 'schema'"),
    ({"datasets": [{"name": "s", "csv": "data/synth.csv", "schema": "data/synth.schema.json",
                    "kind": "x"}]},
     "datasets must be a list of objects, each with string 'name', 'csv' and 'schema' and no "
     "other key"),
    ({"datasets": 3}, "datasets must be a list of objects"),
    ({"train": "x"}, "train, train.model and train.weights must be objects, got 'x'"),
    ({"train": ""}, "train, train.model and train.weights must be objects, got ''"),
    ({"train": {"model": []}}, "train, train.model and train.weights must be objects"),
    ({"train": {"weights": 0.1}}, "train, train.model and train.weights must be objects"),
    ({"grid": {"rates": []}}, "grid must map some of mechanisms, rates, methods and seeds"),
    ({"grid": {"rates": ["a"]}}, "rate must be in [0, 1), got 'a'"),
    ({"grid": {"rates": [True]}}, "rate must be in [0, 1), got True"),
    ({"grid": {"rates": [1.5]}}, "rate must be in [0, 1), got 1.5"),
    ({"grid": {"seeds": [-1]}}, "seed must be an integer >= 0, got -1"),
    ({"grid": {"seeds": [True]}}, "seed must be an integer >= 0, got True"),
    ({"grid": {"seeds": [1.5]}}, "seed must be an integer >= 0, got 1.5"),
    ({"grid": {"seeds": ["3"]}}, "seed must be an integer >= 0, got '3'"),
    ({"rate": 1.5}, "rate must be in [0, 1), got 1.5"),
    ({"train_fraction": 1.5}, "train_fraction must be in (0, 1), got 1.5"),
    # a repeated entry would run one run directory twice, which ``report`` then refuses
    ({"grid": {"methods": ["mean", "mean", "knn"]}},
     "grid.methods repeats 'mean'; each run may be counted once"),
    ({"grid": {"rates": [0, 0.0]}}, "grid.rates repeats 0.0; each run may be counted once"),
    ({"grid": {"seeds": [1, 0, 1]}}, "grid.seeds repeats 1; each run may be counted once"),
    ({"grid": {"mechanisms": ["mar", "mcar", "mar"]}},
     "grid.mechanisms repeats 'mar'; each run may be counted once"),
    ({"datasets": [{"name": "a", "csv": "a.csv", "schema": "a.json"},
                   {"name": "a", "csv": "b.csv", "schema": "b.json"}]},
     "datasets repeats 'a'; each run may be counted once"),
], ids=["method", "mechanism", "grid_method", "grid_mechanism", "unknown_key", "runs",
        "no_dataset", "no_schema", "out_type", "name_type", "dataset_type", "method_type",
        "grid_list", "grid_empty_list", "grid_value", "grid_key", "datasets_no_name",
        "datasets_extra_key", "datasets_not_a_list", "train_string", "train_empty_string",
        "train_model_list", "train_weights_number", "grid_empty_rates", "grid_rate_string",
        "grid_rate_bool", "grid_rate_range", "grid_seed_negative", "grid_seed_bool",
        "grid_seed_float", "grid_seed_string", "rate_range", "train_fraction_range",
        "grid_method_repeat", "grid_rate_repeat", "grid_seed_repeat", "grid_mechanism_repeat",
        "datasets_name_repeat"])
def test_commands_reject_bad_top_level_settings_before_any_work(workspace, monkeypatch, capsys,
                                                                change, message):
    root, cfg = workspace
    config = {k: v for k, v in {**json.loads(Path(cfg).read_text()), **change}.items()
              if v is not None}
    Path(cfg).write_text(json.dumps(config))
    calls = []
    monkeypatch.setattr(training, "train", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "run_single", lambda *args: calls.append(args))
    for command in ("corrupt", "train", "impute", "evaluate", "benchmark"):
        assert cli.main([command, "--config", cfg]) == 1, command
        assert f"error: {message}" in capsys.readouterr().err, command
    assert calls == []
    assert not (root / "runs").exists()


_grid_values = (st.integers() | st.floats() | st.booleans() | st.text() | st.none()
                | st.sampled_from(cli.ALL_METHODS + list(missingness.MECHANISMS)))


@given(st.sampled_from(["mechanism", "rate", "method", "seed"]), _grid_values)
def test_a_grid_entry_obeys_the_rule_of_the_setting_it_varies(setting, value):
    """``{setting: v}`` fails exactly when ``{"grid": {setting + "s": [v]}}`` does,
    with the same message."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        for change in ({setting: value}, {"grid": {setting + "s": [value]}}):
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps({"dataset": "d.csv", "schema": "d.json", **change}))
            try:
                cli.load_config(str(path))
                outcomes.append(None)
            except ValueError as err:
                outcomes.append(str(err))
    assert outcomes[0] == outcomes[1]


COMMON_FLAGS = [
    (["-h", "--help"], None, None, argparse.SUPPRESS, "show this help message and exit"),
    (["--config"], None, None, None, "JSON experiment config"),
    (["--dataset"], None, None, None, "dataset CSV path"),
    (["--schema"], None, None, None, "schema JSON path"),
    (["--name"], None, None, None, "dataset name for the run directory"),
    (["--mechanism"], None, ["mcar", "mar", "mnar"], None, None),
    (["--rate"], float, None, None, None),
    (["--method"], None, ["egg", "kegg", "nn_ablation", "mean", "knn"], None, None),
    (["--seed"], int, None, None, None),
    (["--ensemble"], int, None, None, "predictions per row at inference"),
    (["--out"], None, None, None, "output root; beats the config's 'out'"),
]


@pytest.mark.parametrize("command", ["corrupt", "train", "impute", "evaluate", "benchmark"])
def test_config_commands_take_the_same_flags(command):
    """Each flag's option strings, type, choices, default and help; a default
    other than None would override the config file on every run."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [(a.option_strings, a.type, a.choices, a.default, a.help)
            for a in sub.choices[command]._actions] == COMMON_FLAGS


@pytest.mark.parametrize("change, message", [
    ({"train": {**FAST_TRAIN, "batch_size": "30"}}, "train.batch_size must be int, got '30'"),
    ({"train": {**FAST_TRAIN, "model": {"hidden": "8"}}},
     "train.model.hidden must be int, got '8'"),
    ({"train": {**FAST_TRAIN, "max_epochs": True}}, "train.max_epochs must be int, got True"),
    ({"train_fraction": "0.7"}, "train_fraction must be in (0, 1), got '0.7'"),
], ids=["batch_size", "model_hidden", "max_epochs", "train_fraction"])
def test_train_rejects_values_of_the_wrong_type(workspace, capsys, change, message):
    root, cfg = workspace
    Path(cfg).write_text(json.dumps({**json.loads(Path(cfg).read_text()), **change}))
    for command in ("corrupt", "train"):
        assert cli.main([command, "--config", cfg]) == 1, command
        assert f"error: {message}" in capsys.readouterr().err, command
    assert not (root / "runs").exists()


@pytest.mark.parametrize("command", ["corrupt", "train", "impute", "evaluate"])
def test_stepwise_commands_need_dataset_and_schema(workspace, monkeypatch, capsys, command):
    """``load_config`` accepts a ``datasets``-only config for ``benchmark``;
    the stepwise commands work on one named table and stop before any work."""
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    spec = {"name": "synth", "csv": config.pop("dataset"), "schema": config.pop("schema")}
    Path(cfg).write_text(json.dumps({**config, "datasets": [spec]}))
    calls = []
    monkeypatch.setattr(training, "train", lambda *args: calls.append(args))
    assert cli.main([command, "--config", cfg]) == 1
    assert ("error: corrupt, train, impute and evaluate need 'dataset' and 'schema'"
            in capsys.readouterr().err)
    assert calls == []
    assert not (root / "runs").exists()


HEADER = "f0,f1,f2,f3,target\n"


@pytest.mark.parametrize("table, schema, message", [
    (HEADER + "1,2,3,4,c0\n3,4\n", None, "row 3 has 2 cells, but the header has 5"),
    (HEADER + "1,2,3,4,c0,9\n", None, "row 2 has 6 cells, but the header has 5"),
    ("", None, "is empty; it needs a header row"),
    (HEADER + "1,2,3,4,c0\n", {"columns": []}, "lacks the key 'target'"),
    (HEADER + "1,2,3,4,c0\n", {"target": "target"}, "lacks the key 'columns'"),
    (HEADER + "1,2,3,4,c0\n", {"columns": [{"name": "f0"}], "target": "target"},
     "lacks the key 'kind'"),
    (HEADER + "1,2,3,4,c0\n", {"columns": [{"kind": "numerical"}], "target": "target"},
     "lacks the key 'name'"),
    (HEADER + "1,2,3,4,c0\n1, nan ,3,4,c1\n", None,
     "non-finite numeric cell at row 3, column 'f1': 'nan'; leave a missing cell empty"),
    (HEADER + "1,2,3,inf,c0\n", None, "non-finite numeric cell at row 2, column 'f3': 'inf'"),
    (HEADER + "1,2,-1e999,4,c0\n", None, "non-finite numeric cell at row 2, column 'f2'"),
    ("a,a,target\n1,2,c0\n3,4,c1\n",
     {"columns": [{"name": "a", "kind": "numerical"}] * 2, "target": "target"},
     "repeats the column name 'a'"),
    (HEADER + "1,2,3,4,c0\n", [], "must be an object with 'columns' and 'target'"),
    (HEADER + "1,2,3,4,c0\n", {"columns": ["a"], "target": "target"},
     "needs 'columns' a list of objects, 'target' a string"),
    (HEADER + "1,2,3,4,c0\n", {"columns": {"f0": "numerical"}, "target": "target"},
     "needs 'columns' a list of objects, 'target' a string"),
    (HEADER + "1,2,3,4,c0\n", {"columns": [], "target": 3},
     "needs 'columns' a list of objects, 'target' a string"),
    ("target\nc0\nc1\n", {"columns": [], "target": "target"},
     "dataset needs at least one feature column besides the target"),
], ids=["short_row", "long_row", "empty", "no_target", "no_columns", "no_kind", "no_name",
        "nan", "inf", "overflow", "repeated_name", "schema_not_an_object",
        "column_not_an_object", "columns_not_a_list", "target_not_a_string",
        "no_feature_column"])
def test_corrupt_rejects_a_table_it_cannot_represent(workspace, capsys, table, schema, message):
    root, cfg = workspace
    (root / "data/synth.csv").write_text(table)
    if schema is not None:
        (root / "data/synth.schema.json").write_text(json.dumps(schema))
    assert cli.main(["corrupt", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (root / "runs").exists()


@pytest.mark.parametrize("train, message", [
    ({"batch_sz": 32}, "unknown train setting(s): batch_sz"),
    ({"model": {"hidden": "8"}}, "train.model.hidden must be int, got '8'"),
    ({"batch_size": 0}, "batch_size and max_epochs must be >= 1"),
], ids=["unknown_key", "wrong_type", "out_of_range"])
def test_benchmark_builds_the_train_section_once_before_any_job(mixed_config, monkeypatch,
                                                                capsys, train, message):
    """Every job would fail on the same section; the grid stops before the first."""
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    (root / cfg).write_text(json.dumps({**config, "train": {**FAST_TRAIN, **train}}))
    calls = []
    monkeypatch.setattr(cli, "run_single", lambda *args: calls.append(args))
    assert cli.main(["benchmark", "--config", cfg]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert calls == []
    assert not (root / "runs").exists()


def _add_column(root, kind, cells):
    """Append a column ``f4`` before the target of the mixed table and its schema."""
    lines = (root / "mixed.csv").read_text().splitlines()
    rows = [line.rsplit(",", 1) for line in lines]
    rows = [[rows[0][0], "f4", rows[0][1]]] + \
        [[head, cells[i % len(cells)], label] for i, (head, label) in enumerate(rows[1:])]
    (root / "mixed.csv").write_text("".join(",".join(r) + "\n" for r in rows))
    schema = json.loads((root / "mixed.schema.json").read_text())
    schema["columns"].append({"name": "f4", "kind": kind})
    (root / "mixed.schema.json").write_text(json.dumps(schema))


@pytest.mark.parametrize("kind, cells, message", [
    ("numerical", ["0.5", "-1.5"],
     "checkpoint array 'mlp_fp.w1' has shape (7, 10), but this table needs (8, 10)"),
    ("categorical", ["u", "v"],
     "checkpoint array 'embedding.1' has shape None, but this table needs (3, 4)"),
], ids=["numerical", "categorical"])
def test_impute_rejects_the_checkpoint_of_another_table(mixed_config, capsys, kind, cells,
                                                        message):
    """The table gains a column after ``train``: the first array whose shape
    differs is named, not a matmul error or a KeyError from deep inside."""
    root, cfg = mixed_config
    for step in ("corrupt", "train"):
        assert cli.main([step, "--config", cfg]) == 0
    _add_column(root, kind, cells)
    assert cli.main(["corrupt", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["impute", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert f"error: {message}; rerun `eggimpute train` on this table" in err
    assert not (root / "runs/mixed/mcar/0.2/egg/0/imputed.csv").exists()


def _save_meta(path, meta):
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8))


def _save_npy(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


@pytest.mark.parametrize("write, cause", [
    (lambda path: np.savez(path, w=np.zeros(2)), "KeyError"),
    (lambda path: _save_meta(path, {"version": 1, "config": {"extra": 1}, "num_classes": 2}),
     "TypeError"),
    (_save_npy, "TypeError"),
    (lambda path: _save_meta(path, {"version": 1, "config": {}}), "KeyError"),
], ids=["no_meta", "unknown_config_key", "npy_file", "no_class_count"])
def test_impute_rejects_a_file_that_is_not_a_checkpoint(workspace, capsys, write, cause):
    _, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0
    rd = Path("runs/synth/mcar/0.2/egg/0")
    write(rd / "checkpoint.npz")
    capsys.readouterr()
    assert cli.main(["impute", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {rd / 'checkpoint.npz'} is not an eggimpute checkpoint "
                          f"({cause}")
    assert err.endswith("; rerun `eggimpute train`\n") and err.count("\n") == 1
    assert sorted(p.name for p in rd.iterdir()) == ["checkpoint.npz", "mask.csv"]


def test_an_integer_rate_names_the_run_directory_its_flag_names(workspace):
    """``"rate": 0`` and ``--rate 0`` (a float to argparse) are one run."""
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    Path(cfg).write_text(json.dumps({**config, "rate": 0, "method": "mean",
                                     "grid": {"rates": [0, 0.5]}}))
    loaded = cli.load_config(cfg)
    assert type(loaded["rate"]) is float and [type(r) for r in loaded["grid"]["rates"]] == \
        [float, float]
    assert cli.main(["corrupt", "--config", cfg]) == 0
    assert (root / "runs/synth/mcar/0.0/mean/0/mask.csv").exists()
    assert cli.main(["impute", "--config", cfg, "--rate", "0"]) == 0


def test_a_categorical_column_of_one_category_imputes_that_category(tmp_path, monkeypatch):
    """A column whose every cell is ``only`` has one category, so no imputation
    can pick a class without a name."""
    monkeypatch.chdir(tmp_path)
    ds = dataio.make_two_cluster(n=60, d=4, seed=2)
    ds.values[:, 3] = 0
    ds.schema[3] = dataio.ColumnSchema("c", dataio.CATEGORICAL, 1, ["only"])
    dataio.write_csv(ds, None, "one.csv", "one.schema.json")
    config = {"dataset": "one.csv", "schema": "one.schema.json", "mechanism": "mcar",
              "rate": 0.4, "method": "egg", "ensemble": 2, "train": FAST_TRAIN}
    Path("config.json").write_text(json.dumps(config))
    for step in ("corrupt", "train", "impute"):
        assert cli.main([step, "--config", "config.json"]) == 0, step
    lines = Path("runs/one/mcar/0.4/egg/0/imputed.csv").read_text().splitlines()
    column = lines[0].split(",").index("c")
    assert {line.split(",")[column] for line in lines[1:]} == {"only"}


PROPERTY_TRAIN = {"batch_size": 16, "max_epochs": 1, "patience": 0, "learning_rate": 1e-3,
                  "model": {"hidden": 4, "prototypes": 1, "embed_width": 2, "k": 2}}


@st.composite
def tiny_benchmarks(draw):
    """A tiny table (its header, rows and schema) and a benchmark grid for it.

    2-30 rows, 0-3 numeric and 0-2 categorical columns, each column either
    constant or drawn cell by cell, blanks included, and labels that may
    all be one class; the grid draws from every method and mechanism and
    a few rates, and trains one epoch at hidden 4."""
    n = draw(st.integers(2, 30))
    kinds = ([dataio.NUMERICAL] * draw(st.integers(0, 3))
             + [dataio.CATEGORICAL] * draw(st.integers(0, 2)))
    cells = {dataio.NUMERICAL: st.sampled_from(["", "-1.5", "0", "0.25", "2", "7.5"]),
             dataio.CATEGORICAL: st.sampled_from(["", "a", "b", "c"])}
    columns = []
    for kind in kinds:
        if draw(st.booleans()):
            columns.append([draw(cells[kind])] * n)
        else:
            columns.append(draw(st.lists(cells[kind], min_size=n, max_size=n)))
    classes = draw(st.sampled_from([["x"], ["x", "y"], ["x", "y", "z"]]))
    columns.append(draw(st.lists(st.sampled_from(classes), min_size=n, max_size=n)))
    names = [f"c{j}" for j in range(len(kinds))] + ["label"]
    schema = {"columns": [{"name": f"c{j}", "kind": k} for j, k in enumerate(kinds)],
              "target": "label"}
    grid = {"methods": draw(st.lists(st.sampled_from(cli.ALL_METHODS), min_size=1,
                                     max_size=2, unique=True)),
            "mechanisms": draw(st.lists(st.sampled_from(sorted(missingness.MECHANISMS)),
                                        min_size=1, max_size=2, unique=True)),
            "rates": draw(st.lists(st.sampled_from([0.0, 0.2, 0.5, 0.9]), min_size=1,
                                   max_size=2, unique=True))}
    return names, list(zip(*columns)), schema, grid


@pytest.mark.filterwarnings("ignore::UserWarning")  # empty columns, single-class splits
@settings(max_examples=60, deadline=None)
@given(tiny_benchmarks())
def test_benchmark_on_any_tiny_table_succeeds_or_fails_up_front(case):
    """Every job writes its row, or one error line says why before any job
    runs: no traceback, and nothing under ``out``."""
    names, rows, schema, grid = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with open(root / "t.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([names, *rows])
        (root / "t.schema.json").write_text(json.dumps(schema))
        (root / "config.json").write_text(json.dumps({
            "dataset": str(root / "t.csv"), "schema": str(root / "t.schema.json"),
            "out": str(root / "out"), "ensemble": 2, "knn_k": 2, "grid": grid,
            "train": PROPERTY_TRAIN}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["benchmark", "--config", str(root / "config.json")])
        lines = err.getvalue().splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: ") and \
                not lines[0].startswith("error: run "), lines
            assert not (root / "out").exists()
        else:
            assert code == 0, lines
            jobs = len(grid["methods"]) * len(grid["mechanisms"]) * len(grid["rates"])
            reports = cli._read_results(root / "out" / "results.csv")
            assert len(reports) == jobs
            for rep in reports:
                for field in ("rmse", "mae", "cat_accuracy", "downstream_accuracy"):
                    value = getattr(rep, field)
                    assert value is None or np.isfinite(value), (field, value)


# -- damaged artifacts --------------------------------------------------

STEP_RUN = Path("out/t/mcar/0.2/egg/0")
READERS = {"config.json": ["corrupt", "train", "impute", "evaluate"],  # and who reads each
           "t.schema.json": ["corrupt", "train", "impute", "evaluate"],
           str(STEP_RUN / "mask.csv"): ["train", "impute", "evaluate"],
           str(STEP_RUN / "checkpoint.npz"): ["impute"],
           str(STEP_RUN / "imputed_z.npy"): ["evaluate"],
           "out/results.csv": ["report"]}
NON_FINITE = {"nan", "inf", "-inf", "infinity", "-infinity"}


@contextlib.contextmanager
def _inside(directory):
    previous = Path.cwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _tree(root):
    """Each file's bytes, and None for each directory, by its path under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


@pytest.fixture(scope="module")
def step_run(tmp_path_factory):
    """Every file of an egg run on a 40-row mixed table, after corrupt, train,
    impute and evaluate, by its path under the working directory."""
    root = tmp_path_factory.mktemp("step_run")
    ds = dataio.make_two_cluster(n=40, d=3, seed=1)
    ds.values[:, 2] = np.digitize(ds.values[:, 2], [-1.0, 1.0])
    ds.schema[2] = dataio.ColumnSchema("f2", dataio.CATEGORICAL, 3, ["lo", "mid", "hi"])
    dataio.write_csv(ds, None, root / "t.csv", root / "t.schema.json")
    (root / "config.json").write_text(json.dumps(
        {"dataset": "t.csv", "schema": "t.schema.json", "out": "out", "ensemble": 2,
         "train": PROPERTY_TRAIN}))
    with _inside(root), contextlib.redirect_stdout(io.StringIO()):
        for step in ("corrupt", "train", "impute", "evaluate"):
            assert cli.main([step, "--config", "config.json"]) == 0, step
    return _tree(root)


_LEAVES = st.sampled_from([None, True, -1, 0, 2, 0.5, 1.5, float("nan"), float("inf"), "x",
                           [], {}])
_CELLS_OF_DAMAGE = st.sampled_from(["", "x", "2", "-1", "0.5", "1e308", "nan", "inf", "-inf"])


def _damage_json(data, value):
    """``value`` with one leaf, found by walking down its objects and lists, replaced
    or deleted."""
    if not isinstance(value, (dict, list)) or not value or data.draw(st.booleans()):
        return data.draw(_LEAVES)
    keys = list(value) if isinstance(value, dict) else list(range(len(value)))
    key = data.draw(st.sampled_from(keys))
    value = value.copy()
    if data.draw(st.integers(0, 4)) == 0:
        del value[key]
    else:
        value[key] = _damage_json(data, value[key])
    return value


def _damage_csv(data, text):
    """``text`` with a cell replaced, a row or the last column dropped, or a row repeated."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["cell", "drop_row", "drop_column", "repeat_row"]))
    if how == "drop_column":
        lines = [line.rsplit(",", 1)[0] for line in lines]
    elif how in ("drop_row", "repeat_row"):
        lines[i:i + 1] = [lines[i]] * (2 if how == "repeat_row" else 0)
    else:
        cells = lines[i].split(",")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(_CELLS_OF_DAMAGE)
        lines[i] = ",".join(cells)
    return "".join(line + "\n" for line in lines)


def _damage_array(data, array):
    """``array`` with a row or column dropped, another dtype, or one cell set to a
    non-finite or out-of-range value."""
    how = data.draw(st.sampled_from(["shape", "dtype", "cell"]))
    if how == "shape":
        axis = data.draw(st.integers(0, array.ndim - 1))
        return np.delete(array, 0, axis=axis) if array.shape[axis] else array[..., None]
    if how == "dtype":
        return array.astype(data.draw(st.sampled_from([np.int64, np.bool_, np.float32, "U3",
                                                       np.complex128])))
    array = array.astype(np.float64)  # a copy
    if array.size:
        array.flat[data.draw(st.integers(0, array.size - 1))] = data.draw(
            st.sampled_from([np.nan, np.inf, -np.inf, 1e300, -1.0, 7.0, 0.5]))
    return array


def _save(writer, *args, **kwargs):
    fh = io.BytesIO()
    writer(fh, *args, **kwargs)
    return fh.getvalue()


def _damage(data, name, raw):
    """The bytes of artifact ``name`` (``raw`` when intact) after one drawn damage."""
    if data.draw(st.integers(0, 3)) == 0:
        return raw[:data.draw(st.integers(0, len(raw) - 1))]
    if name.endswith(".json"):
        return json.dumps(_damage_json(data, json.loads(raw))).encode()
    if name.endswith(".csv"):
        return _damage_csv(data, raw.decode()).encode()
    if name.endswith(".npy"):
        if data.draw(st.integers(0, 4)) == 0:
            return _save(np.savez, z=np.load(io.BytesIO(raw)))
        return _save(np.save, _damage_array(data, np.load(io.BytesIO(raw))))
    with np.load(io.BytesIO(raw)) as archive:
        arrays = {k: archive[k] for k in archive.files}
    key = data.draw(st.sampled_from(sorted(arrays)))
    if key == "__meta__":
        meta = _damage_json(data, json.loads(bytes(arrays[key]).decode()))
        arrays[key] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    elif data.draw(st.integers(0, 4)) == 0:
        del arrays[key]
    else:
        arrays[key] = _damage_array(data, arrays[key])
    return _save(np.savez, **arrays)


def _strict_json(text):
    def refuse(constant):
        raise AssertionError(f"non-finite {constant} in JSON output")
    return json.loads(text, parse_constant=refuse)


def _assert_finite(name, raw):
    """A file a command wrote holds no non-finite number."""
    if name.endswith(".json"):
        _strict_json(raw)
    elif name.endswith(".npy"):
        assert np.isfinite(np.load(io.BytesIO(raw))).all(), name
    elif name.endswith(".npz"):
        with np.load(io.BytesIO(raw)) as archive:
            assert all(np.isfinite(archive[k]).all() for k in archive.files), name
    else:
        rows = csv.reader(line for line in raw.decode().splitlines() if not line.startswith("#"))
        assert not any(cell.strip().lower() in NON_FINITE for row in rows for cell in row), name


@pytest.mark.filterwarnings("ignore::UserWarning")  # empty columns, single-class splits
@settings(max_examples=100, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(READERS)))
def test_a_command_reading_a_damaged_artifact_succeeds_finitely_or_fails_cleanly(step_run,
                                                                                 data, name):
    """One artifact a command reads is truncated, reshaped, retyped or given a
    non-finite or out-of-range value.  The command then exits 0 and writes only
    finite numbers, or exits 1 with one ``error:`` line and no file written or
    appended."""
    command = data.draw(st.sampled_from(READERS[name]))
    damaged = _damage(data, name, step_run[name])
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for path, raw in step_run.items():
            if raw is None:
                (root / path).mkdir(parents=True, exist_ok=True)
            else:
                (root / path).parent.mkdir(parents=True, exist_ok=True)
                (root / path).write_bytes(damaged if path == name else raw)
        before = _tree(root)
        argv = ["report", "--results", name] if command == "report" else \
            [command, "--config", "config.json"]
        out, err = io.StringIO(), io.StringIO()
        with _inside(root), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # each would print to stderr
            code = cli.main(argv)
        after = _tree(root)
    lines = err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}"
                                           for w in caught]
    if code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert after == before
    else:
        assert code == 0, lines
        for line in out.getvalue().splitlines():
            if line.startswith("{"):
                _strict_json(line)
        for path, raw in after.items():
            if raw is not None and raw != before.get(path):
                _assert_finite(path, raw)
