import json
from pathlib import Path

import numpy as np
import pytest

from eggimpute import cli, dataio, evaluation, missingness, training


FAST_TRAIN = {"batch_size": 32, "max_epochs": 2, "patience": 5,
              "model": {"hidden": 10, "prototypes": 2, "embed_width": 4, "k": 3}}


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("EGGIMPUTE_OUT", raising=False)
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


def test_corrupt_writes_mask(workspace):
    root, cfg = workspace
    assert cli.main(["corrupt", "--config", cfg]) == 0
    mask_path = root / "runs/synth/mcar/0.2/egg/0/mask.csv"
    assert mask_path.exists()
    mask = missingness.load_mask(mask_path)
    assert mask.mechanism == "mcar"
    assert 0.1 < mask.missing_fraction < 0.3


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
    assert cli.main(["benchmark", "--config", cfg, "--method", "mean",
                     "--runs", "2"]) == 0
    results = root / "runs/results.csv"
    lines = results.read_text().splitlines()
    assert len(lines) == 3  # header + 2 seeds
    # add a second method so aggregation has a contest
    assert cli.main(["benchmark", "--config", cfg, "--method", "knn",
                     "--runs", "2", "--out", "runs_knn"]) == 0
    merged = root / "merged.csv"
    knn_lines = (root / "runs_knn/results.csv").read_text().splitlines()
    merged.write_text("\n".join(lines + knn_lines[1:]) + "\n")
    assert cli.main(["report", "--results", str(merged)]) == 0
    summary = json.loads((root / "summary.json").read_text())
    assert set(summary) == {"count_of_wins", "unified_average_ranking", "timing"}
    assert set(summary["unified_average_ranking"]) == {"mean", "knn"}


def test_benchmark_grid_enumeration():
    cfg = {"dataset": "d.csv", "schema": "d.json", "mechanism": "mcar", "rate": 0.2,
           "method": "egg", "seed": 3, "runs": 2,
           "grid": {"mechanisms": ["mcar", "mnar"], "rates": [0.1, 0.2],
                    "methods": ["mean", "knn"]}}
    jobs = cli._benchmark_grid(cfg)
    assert len(jobs) == 1 * 2 * 2 * 2 * 2  # datasets x mech x rates x methods x seeds
    seeds = {j[4] for j in jobs}
    assert seeds == {3, 4}


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


def test_config_env_override(workspace, monkeypatch):
    _, cfg = workspace
    monkeypatch.setenv("EGGIMPUTE_OUT", "elsewhere")
    loaded = cli.load_config(cfg)
    assert loaded["out"] == "elsewhere"


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
    ("runs", 1.5, "runs must be an integer >= 1, got 1.5"),
    ("runs", 0, "runs must be an integer >= 1, got 0"),
    ("seed", "3", "seed must be an integer >= 0, got '3'"),
    ("seed", 1.5, "seed must be an integer >= 0, got 1.5"),
    ("seed", -1, "seed must be an integer >= 0, got -1"),
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


@pytest.mark.parametrize("train, message", [
    ({"batch_sz": 32}, "unknown train setting(s): batch_sz"),
    ({"model": {"hiden": 10}}, "unknown train.model setting(s): hiden"),
    ({"weights": {"triplett": 0.1}}, "unknown train.weights setting(s): triplett"),
    ({"batch_size": 0}, "batch_size and max_epochs must be >= 1"),
    ({"max_epochs": 0}, "batch_size and max_epochs must be >= 1"),
    ({"seed": 12345}, "train.seed is set by the top-level 'seed'"),
    ({"model": {"sampler": "kegg"}}, "train.model.sampler is set by the top-level 'method'"),
])
def test_train_rejects_invalid_train_config(workspace, capsys, train, message):
    root, cfg = workspace
    config = json.loads(Path(cfg).read_text())
    config["train"] = {**FAST_TRAIN, **train}
    Path(cfg).write_text(json.dumps(config))
    assert cli.main(["corrupt", "--config", cfg]) == 0
    capsys.readouterr()
    assert cli.main(["train", "--config", cfg]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (root / "runs/synth/mcar/0.2/egg/0/checkpoint.npz").exists()


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


def test_explicit_out_beats_env(workspace, monkeypatch):
    _, cfg = workspace
    monkeypatch.setenv("EGGIMPUTE_OUT", "envout")
    assert cli.load_config(cfg, {"out": "flagout"})["out"] == "flagout"
    assert cli.load_config(cfg, {"out": None})["out"] == "envout"


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
    monkeypatch.delenv("EGGIMPUTE_OUT", raising=False)
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


def test_benchmark_workers_match_serial_run(mixed_config):
    root, cfg = mixed_config
    assert cli.main(["benchmark", "--config", cfg, "--runs", "2", "--out", "serial"]) == 0
    assert cli.main(["benchmark", "--config", cfg, "--runs", "2", "--out", "pool",
                     "--workers", "2"]) == 0
    serial = _results(root / "serial/results.csv")
    assert len(serial) == 1 + 4 * 2
    assert _results(root / "pool/results.csv") == serial


def test_benchmark_workers_record_failures_and_keep_going(mixed_config, capsys):
    """MAR keeps one of the 4 columns observed, so a rate of 0.95 is unreachable."""
    root, cfg = mixed_config
    config = json.loads((root / cfg).read_text())
    config["grid"] = {"mechanisms": ["mar"], "rates": [0.2, 0.95], "methods": ["mean"]}
    (root / cfg).write_text(json.dumps(config))
    assert cli.main(["benchmark", "--config", cfg, "--runs", "2", "--workers", "2"]) == 1
    err = capsys.readouterr().err
    assert err.count("error: run") == 2 and err.count("unreachable") == 2
    rows = _results(root / "runs/results.csv")[1:]
    assert sorted((r[2], r[4]) for r in rows) == [("0.2", "0"), ("0.2", "1")]
